//! Differential goldens for the data-oriented hot-path refactor: every
//! controller family runs on every registry workload (telemetry off and
//! on) and the full `RunResult` JSON must hash to the values blessed
//! before the refactor. The fixture is the oracle — the arena-backed
//! structures must be *bit-identical* to the map-backed originals, not
//! merely statistically close.
//!
//! Regenerate (only when a behaviour change is intended and explained in
//! the commit message):
//!
//! ```sh
//! BARYON_BLESS_GOLDENS=1 cargo test -p baryon-bench --test differential_golden
//! ```

use baryon_bench::spec::{RunSpec, CONTROLLER_NAMES};
use baryon_workloads::{registry, Scale};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Small but non-trivial: enough instructions that every controller
/// exercises fills, evictions, commits and writebacks on every workload,
/// small enough that the 10×17 matrix stays affordable in debug builds.
const INSTS: u64 = 1_200;
const WARMUP: u64 = 300;
const SCALE: u64 = 2048;
const SEED: u64 = 42;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/differential_goldens.txt")
}

/// FNV-1a 64-bit: tiny, dependency-free, and stable across platforms.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn spec(workload: &str, controller: &str, telemetry: bool) -> RunSpec {
    RunSpec {
        workload: workload.to_owned(),
        controller: controller.to_owned(),
        insts: INSTS,
        warmup: WARMUP,
        scale: SCALE,
        seed: SEED,
        mlp: 1,
        telemetry,
        threads: 1,
        ..RunSpec::default()
    }
}

/// Runs one (controller, workload) cell with telemetry off and on and
/// returns `(off_hash, on_hash)`.
///
/// * `off_hash` covers the complete `RunResult::to_json` rendering —
///   every counter, byte count, latency bucket and telemetry metric.
/// * `on_hash` covers the telemetry-on snapshot with the wall-clock
///   `*.span.*` summaries stripped (spans legitimately vary run to run;
///   everything else may not).
///
/// The pair also cross-checks that enabling telemetry does not perturb
/// the simulation itself.
fn hash_cell(workload: &str, controller: &str) -> (u64, u64) {
    let off = spec(workload, controller, false)
        .execute()
        .unwrap_or_else(|e| panic!("{controller}/{workload} (telemetry off): {e}"));
    let on = spec(workload, controller, true)
        .execute()
        .unwrap_or_else(|e| panic!("{controller}/{workload} (telemetry on): {e}"));
    assert_eq!(
        (off.total_cycles, off.instructions, off.llc_misses),
        (on.total_cycles, on.instructions, on.llc_misses),
        "{controller}/{workload}: telemetry flag perturbed the simulation"
    );
    let off_hash = fnv1a(off.to_json().render().as_bytes());
    let mut stripped = String::new();
    for (k, v) in on.snapshot() {
        if !k.contains("span.") {
            let _ = write!(stripped, "{k}={v:?};");
        }
    }
    (off_hash, fnv1a(stripped.as_bytes()))
}

#[test]
fn all_controllers_match_pre_refactor_goldens() {
    let scale = Scale { divisor: SCALE };
    let workloads: Vec<String> = registry(scale).iter().map(|w| w.name.to_owned()).collect();
    assert!(workloads.len() >= 15, "registry unexpectedly small");

    let mut lines = Vec::new();
    for controller in CONTROLLER_NAMES {
        for workload in &workloads {
            let (off, on) = hash_cell(workload, controller);
            lines.push(format!("{controller} {workload} {off:016x} {on:016x}"));
        }
    }
    let actual = lines.join("\n") + "\n";

    let path = fixture_path();
    if std::env::var_os("BARYON_BLESS_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&path, &actual).expect("write goldens");
        eprintln!("blessed {} golden cells to {}", lines.len(), path.display());
        return;
    }

    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with BARYON_BLESS_GOLDENS=1 to create it",
            path.display()
        )
    });
    if expected == actual {
        return;
    }
    // Report every diverging cell, not just the first.
    let mut diffs = Vec::new();
    for (want, got) in expected.lines().zip(actual.lines()) {
        if want != got {
            diffs.push(format!("  expected: {want}\n  actual:   {got}"));
        }
    }
    let want_n = expected.lines().count();
    let got_n = actual.lines().count();
    if want_n != got_n {
        diffs.push(format!("  cell count changed: {want_n} -> {got_n}"));
    }
    panic!(
        "{} golden cell(s) diverged from the pre-refactor oracle:\n{}\n\
         (intended behaviour change? re-bless with BARYON_BLESS_GOLDENS=1 and justify in the commit)",
        diffs.len(),
        diffs.join("\n")
    );
}
