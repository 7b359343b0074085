//! `perf` — the repository benchmark.
//!
//! ```text
//! perf [run] [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1 | --traced]
//!            [--quick] [--out FILE]
//! perf compare BASE.json... -- CHANGE.json...
//! ```
//!
//! `run` (the default) measures the named workloads (all four by default)
//! with tracing off, checks every output, prints one line per metric —
//! `<workload> <metric> <value> <unit>` — and, as its last line, a JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. `--trace 1`
//! (or `--traced`) adds the traced run and puts the per-layer metrics in
//! that last line instead of the end-to-end ones. The full result document
//! goes to `--out` (default `perf/out/last.json`), per-job fleet spans to
//! the same path with a `.spans.jsonl` extension.
//!
//! Each workload measures for `--seconds` (default: 15 s for the sim
//! workloads, 20 s for `fleet-trivial`, 40 s for `fleet-sweep`; 2 s with
//! `--quick`). The seed defaults to 42 and is the only input that varies.
//! The binary also serves as its own fleet shard (`--shard ...`) and as
//! the child whose peak memory is measured (`--rss-child SPEC`).

mod ckpt;
mod compare;
mod fleet;
mod jsonpath;
mod metrics;
mod replay;
mod sim;
mod stats;
mod trace;
mod workload;

use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::workload::{Check, Outcome, Workload};
use baryon_core::checkpoint::atomic_write;
use baryon_fleet::harness;
use baryon_sim::json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Environment that changes what is measured: fault injection, serve
/// checkpoint cadence, client timeouts, and the older bench knobs.
fn refused_env() -> Option<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .find(|k| {
            ["BARYON_CHAOS_", "BARYON_CLIENT_", "BARYON_BENCH_"]
                .iter()
                .any(|p| k.starts_with(p))
                || k == "BARYON_SERVE_CHECKPOINT_EVERY"
        })
}

/// Parsed `run` options.
#[derive(Debug, PartialEq)]
struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<u64>,
    traced: bool,
    quick: bool,
    out: Option<PathBuf>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut opts = Options {
            workloads: Vec::new(),
            seed: 42,
            seconds: None,
            traced: false,
            quick: false,
            out: None,
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f, Some(v.to_owned())),
                None => (arg.as_str(), None),
            };
            let mut value = || {
                inline
                    .clone()
                    .or_else(|| args.next().cloned())
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag {
                "--workload" => {
                    let name = value()?;
                    opts.workloads
                        .push(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
                }
                "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    let s: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if s == 0 {
                        return Err("--seconds must be at least 1".to_owned());
                    }
                    opts.seconds = Some(s);
                }
                "--trace" => {
                    opts.traced = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                    }
                }
                "--traced" => opts.traced = true,
                "--quick" => opts.quick = true,
                "--out" => opts.out = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if opts.workloads.is_empty() {
            opts.workloads = Workload::ALL.to_vec();
        }
        Ok(opts)
    }

    fn window(&self, workload: Workload) -> Duration {
        match (self.seconds, self.quick) {
            (Some(s), _) => Duration::from_secs(s),
            (None, true) => Duration::from_secs(2),
            (None, false) => workload.default_window(),
        }
    }
}

/// This package's directory (where the benchmark keeps its files).
fn home() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// A per-process working directory under `perf/.run`, removed on drop:
/// checkpoint rotations and fleet journals live here during a run.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Result<WorkDir, String> {
        let dir = home().join(".run").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave `.run` itself only if another run still uses it.
        let _ = std::fs::remove_dir(home().join(".run"));
    }
}

/// The commit the benchmark was built from, read from `.git` directly
/// (no process, no lookup outside the checkout); `unknown` without one.
fn git_revision() -> String {
    let git = home().join("../.git");
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn check_json(c: &Check) -> Json {
    Json::obj([
        ("name", Json::from(c.name.as_str())),
        ("ok", Json::Bool(c.ok)),
        ("detail", Json::from(c.detail.as_str())),
    ])
}

/// Every catalogued metric must have been measured, in its declared unit.
fn check_schema(out: &mut Outcome, traced: bool) {
    let (e2e, layers) = match metrics::declared(metrics::BENCHMARK_JSON) {
        Ok(d) => d,
        Err(e) => {
            out.check("result schema matches BENCHMARK.json", false, e);
            return;
        }
    };
    let units_match = e2e.iter().chain(&layers).all(|d| {
        metrics::find(&d.name).is_some_and(|m| m.unit == d.unit && m.better.as_str() == d.better)
    });
    // The serving layers exist only on the fleet workloads; every other
    // per-layer metric comes from the traced run of any workload.
    let serving = |name: &str| {
        ["fleet.", "serve.", "bench."]
            .iter()
            .any(|p| name.starts_with(p))
    };
    let expected: Vec<&str> = e2e
        .iter()
        .chain(layers.iter().filter(|_| traced))
        .map(|d| d.name.as_str())
        .filter(|name| out.workload.is_fleet() || !serving(name))
        .collect();
    let missing: Vec<&str> = expected
        .iter()
        .copied()
        .filter(|name| out.report.get(name).is_none())
        .collect();
    let ok = missing.is_empty() && units_match;
    let detail = if missing.is_empty() {
        format!("{} metrics present", expected.len())
    } else {
        format!("missing {}", missing.join(", "))
    };
    out.check("result schema matches BENCHMARK.json", ok, detail);
}

fn workload_json(out: &Outcome, traced: bool) -> Json {
    let mut pairs = vec![
        ("window_s".to_owned(), Json::F64(out.window.as_secs_f64())),
        ("attempted".to_owned(), Json::from(out.attempted)),
        ("failed".to_owned(), Json::from(out.failed())),
        ("digest".to_owned(), Json::from(out.digest.as_str())),
        (
            "checks".to_owned(),
            Json::arr(out.checks.iter().map(check_json)),
        ),
        ("metrics".to_owned(), out.report.to_json(&END_TO_END)),
    ];
    if traced {
        pairs.push(("layers_valid".to_owned(), Json::Bool(out.layers_valid)));
        pairs.push(("layers".to_owned(), out.report.to_json(&PER_LAYER)));
    }
    Json::Obj(pairs)
}

/// Writes the result document and the fleet spans next to it.
fn write_results(path: &Path, opts: &Options, outcomes: &[Outcome]) -> Result<(), String> {
    let doc = Json::obj([
        ("benchmark", Json::from("baryon-perf")),
        ("seed", Json::from(opts.seed)),
        ("git_rev", Json::from(git_revision())),
        ("traced", Json::Bool(opts.traced)),
        ("quick", Json::Bool(opts.quick)),
        (
            "host_threads",
            Json::from(std::thread::available_parallelism().map_or(0, |n| n.get())),
        ),
        (
            "workloads",
            Json::Obj(
                outcomes
                    .iter()
                    .map(|o| (o.workload.name().to_owned(), workload_json(o, opts.traced)))
                    .collect(),
            ),
        ),
    ]);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut body = doc.render();
    body.push('\n');
    atomic_write(path, body.as_bytes()).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut spans = String::new();
    for span in outcomes.iter().flat_map(|o| &o.spans) {
        span.write(&mut spans);
        spans.push('\n');
    }
    let spans_path = path.with_extension("spans.jsonl");
    atomic_write(&spans_path, spans.as_bytes())
        .map_err(|e| format!("{}: {e}", spans_path.display()))
}

/// The last line: the metrics the run was asked for, by name (prefixed
/// with the workload when more than one ran).
fn summary_line(outcomes: &[Outcome], catalogue: &[Metric]) -> String {
    let prefix = outcomes.len() > 1;
    let mut metrics = Vec::new();
    for o in outcomes {
        for m in catalogue {
            let key = if prefix {
                format!("{}.{}", o.workload.name(), m.name)
            } else {
                m.name.to_owned()
            };
            metrics.push((
                key,
                Json::obj([
                    ("value", Json::F64(o.report.value(m.name))),
                    ("unit", Json::from(m.unit)),
                ]),
            ));
        }
    }
    Json::obj([
        (
            "correct",
            Json::Bool(outcomes.iter().all(|o| o.failed() == 0)),
        ),
        (
            "attempted",
            Json::from(outcomes.iter().map(|o| o.attempted).sum::<u64>().max(1)),
        ),
        (
            "failed",
            Json::from(outcomes.iter().map(Outcome::failed).sum::<u64>()),
        ),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

fn run(opts: &Options) -> Result<bool, String> {
    let work = WorkDir::new()?;
    let mut outcomes = Vec::new();
    for &w in &opts.workloads {
        let window = opts.window(w);
        eprintln!(
            "perf: {} ({} s window, seed {})",
            w.name(),
            window.as_secs(),
            opts.seed
        );
        let dir = work.0.join(w.name());
        let mut out = if w.is_fleet() {
            fleet::run(w, opts.seed, window, opts.traced, &dir)
        } else {
            sim::run(w, opts.seed, window, opts.traced, &dir)
        }
        .map_err(|e| format!("{}: {e}", w.name()))?;
        check_schema(&mut out, opts.traced);
        println!("{} digest {}", w.name(), out.digest);
        let layers: &[Metric] = if opts.traced { &PER_LAYER } else { &[] };
        for m in END_TO_END.iter().chain(layers) {
            println!(
                "{} {} {} {}",
                w.name(),
                m.name,
                out.report.value(m.name),
                m.unit
            );
        }
        for c in &out.checks {
            eprintln!(
                "perf: {} check {}: {} ({})",
                w.name(),
                if c.ok { "ok" } else { "FAILED" },
                c.name,
                c.detail
            );
        }
        outcomes.push(out);
    }
    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| home().join("out/last.json"));
    write_results(&path, opts, &outcomes)?;
    let catalogue: &[Metric] = if opts.traced { &PER_LAYER } else { &END_TO_END };
    println!("{}", summary_line(&outcomes, catalogue));
    Ok(outcomes.iter().all(|o| o.failed() == 0))
}

fn main() -> ExitCode {
    if let Some(code) = harness::maybe_run_shard() {
        return code;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(sim::RSS_CHILD_FLAG) {
        return match args.get(1).map(|spec| sim::rss_child(spec)) {
            Some(Ok(())) => ExitCode::SUCCESS,
            Some(Err(e)) => {
                eprintln!("perf: {e}");
                ExitCode::FAILURE
            }
            None => ExitCode::from(2),
        };
    }
    if let Some(var) = refused_env() {
        eprintln!("perf: refusing to run with {var} set: it changes what is measured");
        return ExitCode::from(2);
    }
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => {
            let rest = &args[1..];
            let Some(split) = rest.iter().position(|a| a == "--") else {
                eprintln!("usage: perf compare BASE.json... -- CHANGE.json...");
                return ExitCode::from(2);
            };
            compare::run(&rest[..split], &rest[split + 1..])
        }
        first => {
            let rest = if first == Some("run") {
                &args[1..]
            } else {
                &args[..]
            };
            match Options::parse(rest) {
                Ok(opts) => run(&opts),
                Err(e) => {
                    eprintln!("perf: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn single_workload_arguments_parse() {
        let opts =
            Options::parse(&args("--workload sim-kv --seed 7 --seconds 12 --trace 1")).expect("ok");
        assert_eq!(opts.workloads, [Workload::SimKv]);
        assert_eq!((opts.seed, opts.seconds, opts.traced), (7, Some(12), true));
        assert_eq!(opts.window(Workload::SimKv), Duration::from_secs(12));
    }

    #[test]
    fn defaults_run_everything_with_per_workload_windows() {
        let opts = Options::parse(&args("--seed=3 --out=r.json")).expect("ok");
        assert_eq!(opts.workloads, Workload::ALL);
        assert_eq!(opts.out, Some(PathBuf::from("r.json")));
        assert_eq!(opts.window(Workload::FleetSweep), Duration::from_secs(40));
        let quick = Options::parse(&args("--quick --traced")).expect("ok");
        assert!(quick.traced);
        assert_eq!(quick.window(Workload::FleetSweep), Duration::from_secs(2));
    }

    #[test]
    fn bad_arguments_are_errors() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--frobnicate",
            "--seed",
        ] {
            assert!(Options::parse(&args(bad)).is_err(), "accepted {bad}");
        }
    }
}
