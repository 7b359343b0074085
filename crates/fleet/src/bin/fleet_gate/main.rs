//! `fleet_gate` — the fleet's end-to-end CI gate.
//!
//! Boots a real coordinator over 3 worker shards (this binary re-invoked
//! in `--shard` mode) and proves that gathered results stay
//! byte-identical to a single-process run while the fleet is hurt. Each
//! scenario runs on a fresh fleet:
//!
//! * `kill` — `SIGKILL` a shard mid-sweep ([`kill`]);
//! * `rollout` — bad, benign, and mid-roll config commits ([`rollout`]);
//! * `chaos` — seeded disk and response fault injection plus a forced
//!   crash loop ([`chaos`]).
//!
//! ```text
//! cargo run --release -p baryon-fleet --bin fleet_gate            # all, in order
//! cargo run --release -p baryon-fleet --bin fleet_gate -- chaos   # one scenario
//! ```
//!
//! Exits non-zero with a diagnostic on any divergence; `scripts/ci.sh`
//! runs every scenario.

mod chaos;
mod kill;
mod rollout;

use baryon_bench::spec::{GridSpec, RunSpec};
use baryon_fleet::coordinator::FleetConfig;
use baryon_fleet::harness;
use std::process::ExitCode;
use std::time::Instant;

/// Worker shards in every scenario's fleet.
const SHARDS: usize = 3;

/// A scenario boots its own fleet, hurts it, checks it, and tears it down.
type Scenario = fn() -> Result<(), String>;

/// The scenarios, in the order a bare invocation runs them.
const SCENARIOS: [(&str, Scenario); 3] = [
    ("kill", kill::run),
    ("rollout", rollout::run),
    ("chaos", chaos::run),
];

/// The 8-cell sweep every scenario gathers: 4 workloads × 2 controllers,
/// long enough per cell that the fleet can be hurt mid-flight.
fn gate_grid(insts: u64, warmup: u64, seed: u64) -> GridSpec {
    GridSpec {
        workloads: vec![
            "505.mcf_r".into(),
            "557.xz_r".into(),
            "pr.twi".into(),
            "ycsb-a".into(),
        ],
        controllers: vec!["simple".into(), "baryon".into()],
        base: RunSpec {
            insts,
            warmup,
            scale: 1024,
            seed,
            ..RunSpec::default()
        },
    }
}

/// The fleet shape every scenario boots, journaled under a temp directory
/// named for the scenario.
fn gate_config(scenario: &str, max_in_flight_per_client: usize) -> FleetConfig {
    FleetConfig {
        port: 0,
        shards: SHARDS,
        workers_per_shard: 1,
        shard_queue_depth: 16,
        queue_cap: 64,
        max_in_flight_per_client,
        journal_root: std::env::temp_dir().join(format!(
            "baryon-fleet-gate-{scenario}-{}",
            std::process::id()
        )),
    }
}

fn main() -> ExitCode {
    if let Some(code) = harness::maybe_run_shard() {
        return code;
    }
    let selected: Vec<_> = match std::env::args().nth(1) {
        None => SCENARIOS.to_vec(),
        Some(name) => match SCENARIOS.iter().find(|(n, _)| *n == name) {
            Some(&scenario) => vec![scenario],
            None => {
                eprintln!("usage: fleet_gate [kill|rollout|chaos]");
                return ExitCode::from(2);
            }
        },
    };
    for (name, run) in selected {
        let started = Instant::now();
        if let Err(e) = run() {
            eprintln!("fleet gate {name} failed: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "fleet gate {name} OK ({:.1} s)",
            started.elapsed().as_secs_f64()
        );
    }
    ExitCode::SUCCESS
}
