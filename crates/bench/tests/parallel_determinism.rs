//! The `threads` knob is a pure host-side throughput lever: however the
//! per-core shard refills are scheduled across worker threads, the merge
//! loop consumes steps in one canonical order, so every observable output
//! must be bit-identical to the single-threaded run.
//!
//! Two locks here:
//!
//! * a grid of controller × workload cells comparing `threads=1` against
//!   `threads=8` byte for byte (full result JSON, plus the telemetry
//!   snapshot with wall-clock spans stripped), and
//! * a property test that cuts a `threads=8` run at a random op index —
//!   usually mid-lookahead, with steps still buffered — checkpoints it,
//!   resumes, and demands the single-threaded golden.

use baryon_bench::spec::{resume_from, RunSpec};
use baryon_sim::check::props;
use std::fmt::Write as _;

fn spec(workload: &str, controller: &str, threads: u64, telemetry: bool) -> RunSpec {
    RunSpec {
        workload: workload.to_owned(),
        controller: controller.to_owned(),
        insts: 2_500,
        warmup: 800,
        scale: 2048,
        seed: 42,
        mlp: 1,
        telemetry,
        threads,
        ..RunSpec::default()
    }
}

/// Telemetry snapshot with the `*.span.*` wall-clock summaries removed
/// (spans legitimately vary run to run; everything else may not).
fn stripped_snapshot(r: &baryon_core::metrics::RunResult) -> String {
    let mut out = String::new();
    for (k, v) in r.snapshot() {
        if !k.contains("span.") {
            let _ = write!(out, "{k}={v:?};");
        }
    }
    out
}

#[test]
fn eight_threads_match_one_thread_bit_for_bit() {
    // Controllers with the most divergent internal state, on workloads
    // covering zipf, streaming and pointer-chasing patterns.
    for controller in ["baryon", "simple", "dice", "os-paging"] {
        for workload in ["ycsb-a", "505.mcf_r", "pr.twi"] {
            let serial = spec(workload, controller, 1, false)
                .execute()
                .unwrap_or_else(|e| panic!("{controller}/{workload} threads=1: {e}"));
            let parallel = spec(workload, controller, 8, false)
                .execute()
                .unwrap_or_else(|e| panic!("{controller}/{workload} threads=8: {e}"));
            assert_eq!(
                serial.to_json().render(),
                parallel.to_json().render(),
                "{controller}/{workload}: threads=8 diverged from threads=1"
            );
        }
    }
}

#[test]
fn telemetry_snapshot_is_thread_invariant() {
    let serial = spec("ycsb-a", "baryon", 1, true).execute().expect("runs");
    let parallel = spec("ycsb-a", "baryon", 8, true).execute().expect("runs");
    assert_eq!(
        stripped_snapshot(&serial),
        stripped_snapshot(&parallel),
        "non-span telemetry diverged between threads=1 and threads=8"
    );
}

#[test]
fn parallel_run_cut_and_resumed_matches_serial_golden() {
    const CONTROLLERS: [&str; 3] = ["baryon", "simple", "unison"];
    let dir = std::env::temp_dir().join(format!("baryon-par-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");

    props("parallel_cut_resume_bit_identical")
        .cases(8)
        .run(|g| {
            let mut par = spec("ycsb-a", CONTROLLERS[g.choice(CONTROLLERS.len())], 8, false);
            par.seed = g.range(1, 1 << 20);
            let mut serial = par.clone();
            serial.threads = 1;
            g.note(format!("controller={} seed={}", par.controller, par.seed));
            let golden = serial.execute().expect("serial golden");

            // Interrupt the parallel run mid-flight; the cut almost always
            // lands inside a lookahead window, so the checkpoint must carry
            // the buffered shard steps.
            let mut system = par.build_system().expect("system");
            system.begin(par.insts);
            let cut = g.range(1, 3_500);
            g.note(format!("cut at op {cut}"));
            if system.advance(cut) {
                let r = system.finish();
                assert_eq!(r.to_json().render(), golden.to_json().render());
                return;
            }
            let path = dir.join(format!("case-{}-{cut}.ckpt", par.seed));
            par.checkpoint_of(&system)
                .write_to(&path)
                .expect("write checkpoint");
            drop(system);

            let (back, resumed) = resume_from(&path).expect("resume");
            assert_eq!(back.threads, 8, "threads did not survive the round trip");
            assert_eq!(
                resumed.to_json().render(),
                golden.to_json().render(),
                "parallel resumed run diverged from the serial golden"
            );
            std::fs::remove_file(&path).expect("cleanup case file");
        });

    std::fs::remove_dir_all(&dir).expect("cleanup");
}
