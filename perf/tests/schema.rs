//! Every metric `BENCHMARK.json` declares appears, in its declared unit,
//! in the result document of a quick traced run of every workload.

use baryon_sim::json::{self, Json};
use std::path::PathBuf;
use std::process::Command;

fn field<'a>(doc: &'a Json, key: &str) -> Option<&'a Json> {
    match doc {
        Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn text(doc: &Json, key: &str) -> String {
    match field(doc, key) {
        Some(Json::Str(s)) => s.clone(),
        other => panic!("`{key}` is not a string: {other:?}"),
    }
}

fn declared(manifest: &Json, list: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = field(manifest, list) else {
        panic!("BENCHMARK.json has no `{list}`");
    };
    items
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect()
}

#[test]
fn quick_traced_run_reports_every_declared_metric() {
    let home = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let manifest = std::fs::read_to_string(home.join("../BENCHMARK.json")).expect("manifest");
    let manifest = json::parse(&manifest).expect("manifest parses");
    let out = home.join("out/schema-test.json");
    let run = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args([
            "run",
            "--quick",
            "--traced",
            "--seconds",
            "1",
            "--seed",
            "3",
            "--out",
        ])
        .arg(&out)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "benchmark failed: {}\n{stdout}",
        String::from_utf8_lossy(&run.stderr)
    );
    let last = json::parse(stdout.lines().last().expect("a summary line")).expect("summary");
    assert_eq!(field(&last, "correct"), Some(&Json::Bool(true)));
    assert_eq!(field(&last, "failed"), Some(&Json::U64(0)));

    let doc = json::parse(&std::fs::read_to_string(&out).expect("result document"))
        .expect("document parses");
    let Some(Json::Obj(workloads)) = field(&doc, "workloads") else {
        panic!("no workloads in {out:?}");
    };
    let names: Vec<&str> = workloads.iter().map(|(n, _)| n.as_str()).collect();
    let Some(Json::Arr(declared_workloads)) = field(&manifest, "workloads") else {
        panic!("BENCHMARK.json has no workloads");
    };
    let expected: Vec<String> = declared_workloads.iter().map(|w| text(w, "name")).collect();
    assert_eq!(names, expected);
    for (workload, w) in workloads {
        for (section, list) in [("metrics", "end_to_end"), ("layers", "per_layer")] {
            let section_doc =
                field(w, section).unwrap_or_else(|| panic!("{workload}: no {section}"));
            for (name, unit) in declared(&manifest, list) {
                let m = field(section_doc, &name)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing from {section}"));
                assert_eq!(text(m, "unit"), unit, "{workload}: {name}");
                assert!(
                    field(m, "value").is_some(),
                    "{workload}: {name} has no value"
                );
            }
        }
    }
    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_file(out.with_extension("spans.jsonl"));
}
