//! `metadata_report` — the remap-metadata benchmark and CI gate.
//!
//! Runs the full registry of workloads through `baryon` (flat remap
//! table), `hybrid2` (per-block metadata lines), and `trimma` (the
//! multi-level remap store) with telemetry on, and writes
//! `BENCH_metadata.json` at the repository root with, per workload:
//!
//! * **metadata footprint bytes** — flat and hybrid2 are provisioned
//!   up front (analytic: the structures exist whether or not blocks
//!   migrate); trimma reports the *live* footprint gauge (root level
//!   plus only the leaves that migrations actually allocated), plus its
//!   worst-case reservation for context,
//! * **remap-walk span time** — the `ctrl.span.remap_walk` wall-clock
//!   summary of the baryon-family controllers,
//! * **hot-level hit latency and hit rate** — the configured SRAM
//!   latency of each store's metadata cache and its measured hit rate.
//!
//! The process exits non-zero when trimma's live footprint fails to
//! undercut the flat table on at least `BARYON_METADATA_MIN_WINS`
//! workloads (default 9 of the 17-workload registry): sparse and
//! low-migration workloads are exactly where the multi-level structure
//! must pay off, and losing that property is a regression.
//!
//! ```text
//! cargo run --release -p baryon-bench --bin metadata_report
//! BARYON_METADATA_MIN_WINS=5 BARYON_METADATA_INSTS=50000 ... metadata_report
//! ```

use baryon_bench::spec::RunSpec;
use baryon_core::checkpoint::atomic_write;
use baryon_core::config::BaryonConfig;
use baryon_core::metrics::RunResult;
use baryon_sim::json::Json;
use baryon_workloads::{registry, Scale};
use std::path::PathBuf;
use std::process::ExitCode;

const SCALE: u64 = 1024;

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn spec(workload: &str, controller: &str, insts: u64) -> RunSpec {
    RunSpec {
        workload: workload.to_owned(),
        controller: controller.to_owned(),
        insts,
        warmup: insts / 4,
        scale: SCALE,
        seed: 42,
        mlp: 1,
        telemetry: true,
        ..RunSpec::default()
    }
}

/// The `ctrl.span.remap_walk` summary: (samples, mean ns).
fn walk_span(r: &RunResult) -> Option<(u64, f64)> {
    r.telemetry
        .summaries()
        .find(|(name, _)| *name == "ctrl.span.remap_walk")
        .map(|(_, h)| (h.count(), h.mean()))
}

fn span_json(r: &RunResult) -> Json {
    match walk_span(r) {
        Some((count, mean_ns)) => Json::obj([
            ("samples", Json::from(count)),
            ("mean_ns", Json::from(mean_ns)),
        ]),
        None => Json::Null,
    }
}

fn main() -> ExitCode {
    let insts = env_u64("BARYON_METADATA_INSTS", 20_000);
    let scale = Scale { divisor: SCALE };
    let workloads: Vec<String> = registry(scale).iter().map(|w| w.name.to_owned()).collect();
    let min_wins = env_u64("BARYON_METADATA_MIN_WINS", (workloads.len() as u64) / 2 + 1);

    // Provisioned footprints are a property of the design point, not the
    // workload: the flat table and hybrid2's per-block metadata lines
    // exist in full from cycle zero.
    let flat_cfg = BaryonConfig::default_cache_mode(scale);
    let trimma_cfg = BaryonConfig::default_trimma(scale);
    let flat_bytes = flat_cfg.remap_table_bytes();
    let trimma_reserved = trimma_cfg.remap_reserved_bytes();
    // Hybrid2's MetaModel keeps one 64 B metadata line per OS block.
    let hybrid2_bytes = flat_cfg.os_blocks() * 64;

    let mut rows = Vec::new();
    let mut wins = 0u64;
    println!(
        "{:<16} {:>12} {:>12} {:>14} {:>10} {:>10}",
        "workload", "flat B", "trimma B", "trimma/flat", "flat walk", "trimma walk"
    );
    for workload in &workloads {
        let run = |controller: &str| {
            spec(workload, controller, insts)
                .execute()
                .unwrap_or_else(|e| panic!("{controller}/{workload}: {e}"))
        };
        let baryon = run("baryon");
        let hybrid2 = run("hybrid2");
        let trimma = run("trimma");

        let trimma_live = trimma.telemetry.gauge("ctrl.remap.footprint_bytes");
        if trimma_live <= 0.0 {
            eprintln!("metadata_report: {workload}: trimma exported no footprint gauge");
            return ExitCode::FAILURE;
        }
        let ratio = trimma_live / flat_bytes as f64;
        if (trimma_live as u64) < flat_bytes {
            wins += 1;
        }
        let fmt_walk = |r: &RunResult| match walk_span(r) {
            Some((_, mean)) => format!("{mean:.0} ns"),
            None => "-".to_owned(),
        };
        println!(
            "{workload:<16} {flat_bytes:>12} {:>12} {ratio:>13.2}x {:>10} {:>10}",
            trimma_live as u64,
            fmt_walk(&baryon),
            fmt_walk(&trimma),
        );
        rows.push(Json::obj([
            ("workload", Json::from(workload.as_str())),
            (
                "baryon",
                Json::obj([
                    ("footprint_bytes", Json::from(flat_bytes)),
                    ("hot_hit_latency", Json::from(flat_cfg.remap_cache_latency)),
                    (
                        "hot_hit_rate",
                        Json::from(baryon.telemetry.gauge("ctrl.remap.cache_hit_rate")),
                    ),
                    ("remap_walk", span_json(&baryon)),
                    ("cycles", Json::from(baryon.total_cycles)),
                ]),
            ),
            (
                "hybrid2",
                Json::obj([
                    ("footprint_bytes", Json::from(hybrid2_bytes)),
                    ("hot_hit_latency", Json::from(3u64)),
                    ("cycles", Json::from(hybrid2.total_cycles)),
                ]),
            ),
            (
                "trimma",
                Json::obj([
                    ("footprint_bytes", Json::from(trimma_live as u64)),
                    ("reserved_bytes", Json::from(trimma_reserved)),
                    ("footprint_vs_flat", Json::from(ratio)),
                    (
                        "live_leaves",
                        Json::from(trimma.telemetry.gauge("ctrl.remap.live_leaves")),
                    ),
                    (
                        "leaves_allocated",
                        Json::from(trimma.counter("ctrl.remap.leaves_allocated")),
                    ),
                    (
                        "leaves_freed",
                        Json::from(trimma.counter("ctrl.remap.leaves_freed")),
                    ),
                    (
                        "hot_hit_latency",
                        Json::from(match trimma_cfg.remap {
                            baryon_core::config::RemapKind::MultiLevel { hot_latency, .. } => {
                                hot_latency
                            }
                            baryon_core::config::RemapKind::Flat => {
                                unreachable!("trimma is multi-level")
                            }
                        }),
                    ),
                    (
                        "hot_hit_rate",
                        Json::from(trimma.telemetry.gauge("ctrl.remap.cache_hit_rate")),
                    ),
                    ("remap_walk", span_json(&trimma)),
                    ("cycles", Json::from(trimma.total_cycles)),
                ]),
            ),
        ]));
    }

    let pass = wins >= min_wins;
    let doc = Json::obj([
        ("bench", Json::from("metadata")),
        ("scale", Json::from(SCALE)),
        ("insts", Json::from(insts)),
        ("workloads_run", Json::from(workloads.len() as u64)),
        ("footprint_wins", Json::from(wins)),
        ("min_wins", Json::from(min_wins)),
        ("pass", Json::Bool(pass)),
        ("workloads", Json::Arr(rows)),
    ]);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_metadata.json");
    let mut body = doc.render();
    body.push('\n');
    if let Err(e) = atomic_write(&path, body.as_bytes()) {
        eprintln!("metadata_report: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "trimma undercuts the flat table on {wins}/{} workloads (min {min_wins}) -> {}",
        workloads.len(),
        path.display()
    );
    if !pass {
        eprintln!(
            "metadata_report: regression: trimma's live metadata footprint beat the flat table \
             on only {wins} workloads (need {min_wins})"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
