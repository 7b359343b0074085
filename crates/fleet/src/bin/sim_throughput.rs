//! `sim_throughput` — the simulator profiling harness.
//!
//! Runs a small matrix of workloads through the baryon controller twice —
//! telemetry spans off and on — and measures wall-clock simulation
//! throughput (instructions simulated per second of host time). The result
//! document `BENCH_sim_throughput.json` is written at the repository root
//! and carries, per workload, the ops/sec of both configurations, the
//! telemetry overhead, and a per-phase breakdown extracted from the
//! `ctrl.span.*` / `sim.span.*` summaries of the unified registry.
//!
//! The process exits non-zero when the aggregate telemetry-on overhead
//! exceeds the budget (default 5%) **or** any workload's telemetry-off
//! throughput falls below its per-workload regression floor, so CI gates
//! on both:
//!
//! ```text
//! cargo run --release -p baryon-fleet --bin sim_throughput
//! BARYON_BENCH_MAX_OVERHEAD_PCT=10 BARYON_BENCH_REPEATS=5 ... sim_throughput
//! BARYON_BENCH_FLOOR_SCALE=0.5 ... sim_throughput   # relax floors on slow hosts
//! ```
//!
//! Wall-clock times are the minimum over `BARYON_BENCH_REPEATS` runs
//! (default 3): the minimum is the standard noise-robust estimator for
//! "how fast can this go", which is what an overhead gate needs.

use baryon_bench::spec::RunSpec;
use baryon_core::checkpoint::atomic_write;
use baryon_core::metrics::RunResult;
use baryon_sim::json::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The profiling matrix: one workload per access-pattern family, paired
/// with its regression floor (minimum telemetry-off ops/sec).
///
/// Floors sit well under the measured throughput of the arena-backed hot
/// path so host noise cannot trip them, but the `ycsb-a` floor is
/// deliberately above 2× the pre-refactor map-backed baseline
/// (1.43 M ops/s on the reference host): the speedup is a gated
/// deliverable, not a one-off observation. Scale all floors with
/// `BARYON_BENCH_FLOOR_SCALE` (e.g. `0` to disable on untrusted hosts).
const WORKLOADS: [(&str, f64); 4] = [
    ("505.mcf_r", 3.0e6),
    ("557.xz_r", 4.3e6),
    ("pr.twi", 4.0e6),
    ("ycsb-a", 2.9e6),
];

const SCALE: u64 = 1024;
const INSTS: u64 = 200_000;
const WARMUP: u64 = 40_000;

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn spec(workload: &str, telemetry: bool) -> RunSpec {
    RunSpec {
        workload: workload.to_owned(),
        controller: "baryon".to_owned(),
        insts: INSTS,
        warmup: WARMUP,
        scale: SCALE,
        seed: 42,
        mlp: 1,
        telemetry,
        threads: 1,
        ..RunSpec::default()
    }
}

/// One timed configuration: the fastest wall time over `repeats` runs,
/// plus the result of the last run (identical across repeats — the
/// simulation is deterministic).
struct Timed {
    wall_us: f64,
    result: RunResult,
}

fn run_timed(workload: &str, telemetry: bool, repeats: u64) -> Result<Timed, String> {
    let s = spec(workload, telemetry);
    // One untimed run to warm caches and the page allocator.
    let mut result = s.execute()?;
    let mut wall_us = f64::INFINITY;
    for _ in 0..repeats {
        let t = Instant::now();
        result = s.execute()?;
        wall_us = wall_us.min(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(Timed { wall_us, result })
}

fn ops_per_sec(r: &RunResult, wall_us: f64) -> f64 {
    if wall_us <= 0.0 {
        0.0
    } else {
        r.instructions as f64 / (wall_us / 1e6)
    }
}

/// The per-phase breakdown: every `*.span.*` summary of the telemetry-on
/// run, with its share of the total span time.
fn phase_breakdown(r: &RunResult) -> Json {
    let spans: Vec<(&str, u64, f64)> = r
        .telemetry
        .summaries()
        .filter(|(name, _)| name.contains(".span."))
        .map(|(name, h)| (name, h.count(), h.mean() * h.count() as f64))
        .collect();
    let total_ns: f64 = spans.iter().map(|(_, _, t)| t).sum();
    Json::Obj(
        spans
            .into_iter()
            .map(|(name, count, ns)| {
                (
                    name.to_owned(),
                    Json::obj([
                        ("count", Json::from(count)),
                        ("total_ms", Json::from(ns / 1e6)),
                        (
                            "share_pct",
                            Json::from(if total_ns > 0.0 {
                                100.0 * ns / total_ns
                            } else {
                                0.0
                            }),
                        ),
                    ]),
                )
            })
            .collect(),
    )
}

fn overhead_pct(off_us: f64, on_us: f64) -> f64 {
    if off_us <= 0.0 {
        0.0
    } else {
        100.0 * (on_us - off_us) / off_us
    }
}

/// Times one workload with periodic checkpointing enabled (telemetry off),
/// for the `checkpoint` section of the result document. Returns the
/// fastest wall time, the run result, the number of checkpoint files
/// left on disk by the final repeat, and the number of checkpoints each
/// run wrote (recovered from the newest checkpoint's op counter).
fn run_timed_checkpointed(
    workload: &str,
    every_ops: u64,
    keep: usize,
    repeats: u64,
) -> Result<(Timed, usize, u64), String> {
    let s = spec(workload, false);
    let dir =
        std::env::temp_dir().join(format!("baryon-sim-throughput-ckpt-{}", std::process::id()));
    // Reset the directory once, before any timing: tearing it down inside
    // the loop made every timed repeat recreate the directory and its
    // checkpoint files cold, charging ~25% of filesystem setup cost to
    // "checkpoint overhead". The run is deterministic, so repeats
    // overwrite the same file names along the same warm path instead.
    let _ = std::fs::remove_dir_all(&dir);
    let mut result = None;
    let mut wall_us = f64::INFINITY;
    let mut files = 0;
    for _ in 0..=repeats {
        // First pass warms caches and populates the directory (untimed),
        // like `run_timed`.
        let t = Instant::now();
        let r = s.execute_with_checkpoints(&dir, every_ops, keep)?;
        if result.is_some() {
            wall_us = wall_us.min(t.elapsed().as_secs_f64() * 1e6);
        }
        files = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
        result = Some(r);
    }
    let written =
        baryon_core::checkpoint::Checkpoint::latest_in(&dir, baryon_bench::spec::CHECKPOINT_PREFIX)
            .ok()
            .flatten()
            .and_then(|p| baryon_core::checkpoint::Checkpoint::read_from(&p).ok())
            .map(|c| c.ops / every_ops.max(1))
            .unwrap_or(0);
    let _ = std::fs::remove_dir_all(&dir);
    Ok((
        Timed {
            wall_us,
            result: result.expect("at least one run"),
        },
        files,
        written,
    ))
}

fn out_path() -> PathBuf {
    // crates/fleet -> repository root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sim_throughput.json")
}

fn main() -> ExitCode {
    let budget_pct = env_f64("BARYON_BENCH_MAX_OVERHEAD_PCT", 5.0);
    let repeats = env_u64("BARYON_BENCH_REPEATS", 3).max(1);
    let floor_scale = env_f64("BARYON_BENCH_FLOOR_SCALE", 1.0).max(0.0);

    let mut rows = Vec::new();
    let (mut total_off_us, mut total_on_us) = (0.0_f64, 0.0_f64);
    let mut first_off: Option<Timed> = None;
    let mut floor_failures = Vec::new();
    for (workload, base_floor) in WORKLOADS {
        let off = match run_timed(workload, false, repeats) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("sim_throughput: {workload}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let on = match run_timed(workload, true, repeats) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("sim_throughput: {workload}: {e}");
                return ExitCode::FAILURE;
            }
        };
        total_off_us += off.wall_us;
        total_on_us += on.wall_us;
        if first_off.is_none() {
            first_off = Some(Timed {
                wall_us: off.wall_us,
                result: off.result.clone(),
            });
        }
        let oh = overhead_pct(off.wall_us, on.wall_us);
        let off_ops = ops_per_sec(&off.result, off.wall_us);
        let floor = base_floor * floor_scale;
        let floor_pass = off_ops >= floor;
        if !floor_pass {
            floor_failures.push(format!(
                "{workload}: {off_ops:.0} ops/s below floor {floor:.0}"
            ));
        }
        println!(
            "{workload:<12} off {off_ops:>9.0} ops/s  on {:>9.0} ops/s  overhead {oh:+.2}%  floor {floor:>9.0} [{}]",
            ops_per_sec(&on.result, on.wall_us),
            if floor_pass { "ok" } else { "FAIL" },
        );
        rows.push(Json::obj([
            ("workload", Json::from(workload)),
            ("instructions", Json::from(off.result.instructions)),
            ("floor_ops_per_sec", Json::from(floor)),
            ("floor_pass", Json::Bool(floor_pass)),
            (
                "telemetry_off",
                Json::obj([
                    ("wall_us", Json::from(off.wall_us)),
                    (
                        "ops_per_sec",
                        Json::from(ops_per_sec(&off.result, off.wall_us)),
                    ),
                ]),
            ),
            (
                "telemetry_on",
                Json::obj([
                    ("wall_us", Json::from(on.wall_us)),
                    (
                        "ops_per_sec",
                        Json::from(ops_per_sec(&on.result, on.wall_us)),
                    ),
                ]),
            ),
            ("overhead_pct", Json::from(oh)),
            ("phases", phase_breakdown(&on.result)),
        ]));
    }

    // Checkpoint overhead: the first workload once more with periodic
    // checkpointing, against its plain telemetry-off timing. The result
    // must be bit-identical — checkpointing observes the run, it never
    // perturbs it — so a mismatch is a hard failure, not a statistic.
    let ckpt_every = env_u64("BARYON_BENCH_CHECKPOINT_EVERY", 25_000);
    let ckpt_keep = 2;
    let (ckpt, ckpt_files, ckpt_written) =
        match run_timed_checkpointed(WORKLOADS[0].0, ckpt_every, ckpt_keep, repeats) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("sim_throughput: checkpointed {}: {e}", WORKLOADS[0].0);
                return ExitCode::FAILURE;
            }
        };
    let baseline = first_off.expect("at least one workload timed");
    if ckpt.result != baseline.result {
        eprintln!(
            "sim_throughput: checkpointed run of {} diverged from the plain run",
            WORKLOADS[0].0
        );
        return ExitCode::FAILURE;
    }
    let ckpt_oh = overhead_pct(baseline.wall_us, ckpt.wall_us);
    // The relative overhead is dominated by the bench's deliberately
    // extreme cadence (a full state snapshot every few milliseconds of
    // host time); the cost per checkpoint is the portable number.
    let per_ckpt_ms = if ckpt_written > 0 {
        (ckpt.wall_us - baseline.wall_us) / 1e3 / ckpt_written as f64
    } else {
        0.0
    };
    println!(
        "{:<12} checkpointing every {ckpt_every} ops: {:>9.0} ops/s  overhead {ckpt_oh:+.2}%  \
         ({ckpt_written} snapshots, {per_ckpt_ms:.2} ms each, {ckpt_files} files kept)",
        WORKLOADS[0].0,
        ops_per_sec(&ckpt.result, ckpt.wall_us),
    );
    let checkpoint_doc = Json::obj([
        ("workload", Json::from(WORKLOADS[0].0)),
        ("every_ops", Json::from(ckpt_every)),
        ("keep", Json::from(ckpt_keep as u64)),
        ("wall_us", Json::from(ckpt.wall_us)),
        (
            "ops_per_sec",
            Json::from(ops_per_sec(&ckpt.result, ckpt.wall_us)),
        ),
        ("overhead_pct", Json::from(ckpt_oh)),
        ("checkpoints_written", Json::from(ckpt_written)),
        ("per_checkpoint_ms", Json::from(per_ckpt_ms)),
        ("files_on_disk", Json::from(ckpt_files as u64)),
        ("result_matches", Json::Bool(true)),
    ]);

    let aggregate_pct = overhead_pct(total_off_us, total_on_us);
    let pass = aggregate_pct <= budget_pct && floor_failures.is_empty();
    let doc = Json::obj([
        ("bench", Json::from("sim_throughput")),
        ("controller", Json::from("baryon")),
        ("scale", Json::from(SCALE)),
        ("insts", Json::from(INSTS)),
        ("warmup", Json::from(WARMUP)),
        ("repeats", Json::from(repeats)),
        ("max_overhead_pct", Json::from(budget_pct)),
        ("floor_scale", Json::from(floor_scale)),
        ("aggregate_overhead_pct", Json::from(aggregate_pct)),
        ("pass", Json::from(pass)),
        ("checkpoint", checkpoint_doc),
        ("workloads", Json::Arr(rows)),
    ]);

    let path = out_path();
    let mut body = doc.render();
    body.push('\n');
    // Atomic (temp file + rename) so a crash mid-write never leaves a
    // torn result document for CI to misread.
    if let Err(e) = atomic_write(&path, body.as_bytes()) {
        eprintln!("sim_throughput: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "aggregate overhead {aggregate_pct:+.2}% (budget {budget_pct}%) -> {}",
        path.display()
    );
    let mut failed = false;
    if aggregate_pct > budget_pct {
        eprintln!(
            "sim_throughput: telemetry overhead {aggregate_pct:.2}% exceeds budget {budget_pct}%"
        );
        failed = true;
    }
    for f in &floor_failures {
        eprintln!("sim_throughput: regression: {f}");
        failed = true;
    }
    if failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
