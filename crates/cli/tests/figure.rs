//! `baryon-cli figure`: the command writes the same CSV bytes as the figure
//! goldens at the goldens' settings, renders a `report.md` section for
//! every figure, and refuses an unknown id with status 2.

use baryon_bench::figures::ALL;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn figure(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_baryon-cli"))
        .arg("figure")
        .args(args)
        .output()
        .expect("run baryon-cli")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("baryon-cli-figure-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn fig10_matches_its_golden_and_the_report_has_every_section() {
    let out = temp_dir("fig10");
    let run = figure(&[
        "--id",
        "fig10",
        "--insts",
        "1200",
        "--warmup",
        "300",
        "--scale",
        "2048",
        "--out",
        out.to_str().expect("utf-8 temp path"),
    ]);
    assert!(run.status.success(), "{run:?}");
    let golden =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../bench/tests/fixtures/figures/fig10.csv");
    let want = std::fs::read(&golden).expect("golden fixture");
    let got = std::fs::read(out.join("fig10.csv")).expect("fig10.csv written");
    assert!(got == want, "fig10.csv differs from {}", golden.display());

    let report = std::fs::read_to_string(out.join("report.md")).expect("report.md written");
    for f in &ALL {
        assert!(
            report.contains(&format!("\n## {}\n", f.id)),
            "no {} section",
            f.id
        );
    }
    // Only fig10 was generated; every other section says how to make it.
    assert!(
        report.contains("run `baryon-cli figure --id fig9`"),
        "{report}"
    );
    std::fs::remove_dir_all(&out).expect("cleanup");
}

#[test]
fn an_unknown_id_exits_2_and_lists_the_valid_ids() {
    let run = figure(&["--id", "nope"]);
    assert_eq!(run.status.code(), Some(2), "{run:?}");
    let stderr = String::from_utf8_lossy(&run.stderr);
    for f in &ALL {
        assert!(stderr.contains(f.id), "{} not listed: {stderr}", f.id);
    }
}
