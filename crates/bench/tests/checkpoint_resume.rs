//! Property: a run interrupted at an arbitrary point and resumed from a
//! checkpoint is bit-identical to the same run performed uninterrupted.
//!
//! Each case draws a controller, a workload, a seed, telemetry on or off,
//! and a random interruption index, runs the spec once to completion for
//! the golden result, then replays it with `begin`/`advance`, snapshots at
//! the drawn index, rebuilds a fresh system from the checkpoint, and runs
//! the tail. The full result document (cycles, serve counters, latency
//! histogram, telemetry snapshot) must match the golden byte for byte;
//! with telemetry on, only the `*.span.*` wall-clock summaries may differ.

use baryon_bench::spec::{resume_from, RunSpec};
use baryon_core::metrics::RunResult;
use baryon_sim::check::{props, Gen};
use std::fmt::Write as _;
use std::path::Path;

fn spec_for(workload: &str, controller: &str, seed: u64, telemetry: bool) -> RunSpec {
    RunSpec {
        workload: workload.into(),
        controller: controller.into(),
        insts: 3_000,
        warmup: 1_000,
        scale: 2048,
        seed,
        mlp: 1,
        telemetry,
        ..RunSpec::default()
    }
}

/// The result document, or, with telemetry on (its `*.span.*` summaries
/// are wall-clock times that vary run to run), the headline figures plus
/// every other telemetry entry.
fn fingerprint(spec: &RunSpec, r: &RunResult) -> String {
    if !spec.telemetry {
        return r.to_json().render();
    }
    let mut out = format!("{} {} {:?};", r.total_cycles, r.llc_misses, r.serve);
    for (k, v) in r.snapshot() {
        if !k.contains("span.") {
            let _ = write!(out, "{k}={v:?};");
        }
    }
    out
}

/// Runs `spec` uninterrupted for the golden, then again cut at a drawn op
/// index, checkpointed into `dir`, resumed in a fresh system, and checked
/// against the golden.
fn cut_and_resume(g: &mut Gen<'_>, spec: &RunSpec, dir: &Path) {
    g.note(format!(
        "{} / {} seed={} telemetry={}",
        spec.workload, spec.controller, spec.seed, spec.telemetry
    ));
    let golden = fingerprint(spec, &spec.execute().expect("golden run"));

    // Replay incrementally and interrupt at a random op index.
    let mut system = spec.build_system().expect("system");
    system.begin(spec.insts);
    let cut = g.range(1, 4_000);
    g.note(format!("cut at op {cut}"));
    if system.advance(cut) {
        // The whole run fit under the cut: nothing to resume, but the
        // incremental result must still match.
        assert_eq!(fingerprint(spec, &system.finish()), golden);
        return;
    }
    let path = dir.join(format!("{}-{}-{cut}.ckpt", spec.controller, spec.seed));
    spec.checkpoint_of(&system)
        .write_to(&path)
        .expect("write checkpoint");
    drop(system); // the interrupted run is gone for good

    let (back, resumed) = resume_from(&path).expect("resume");
    assert_eq!(&back, spec, "spec did not survive the round trip");
    assert_eq!(
        fingerprint(spec, &resumed),
        golden,
        "resumed run diverged from the uninterrupted golden"
    );
    std::fs::remove_file(&path).expect("cleanup case file");
}

fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("baryon-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// The multi-level remap store has by far the most structural checkpoint
/// state (live leaves, free-slot stack, two hot caches), so trimma gets a
/// dedicated pinned property on top of the mixed draw below.
#[test]
fn trimma_resume_at_random_cut_is_bit_identical() {
    let dir = fresh_dir("ckpt-trimma");
    props("trimma_checkpoint_resume").cases(8).run(|g| {
        let spec = spec_for("ycsb-a", "trimma", g.range(1, 1 << 20), false);
        cut_and_resume(g, &spec, &dir);
    });
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn resume_at_random_index_is_bit_identical() {
    // Cover Baryon plus a spread of baselines whose
    // internal state differs the most (set-assoc ways, footprint maps,
    // compressed sets, OS paging epochs, the multi-level remap store's
    // live leaves), on zipf, pointer-chasing and graph access patterns.
    const CONTROLLERS: [&str; 6] = ["baryon", "simple", "unison", "dice", "os-paging", "trimma"];
    const WORKLOADS: [&str; 3] = ["ycsb-a", "505.mcf_r", "pr.twi"];
    let dir = fresh_dir("ckpt-prop");
    props("checkpoint_resume_bit_identical").cases(20).run(|g| {
        let workload = WORKLOADS[g.choice(WORKLOADS.len())];
        let controller = CONTROLLERS[g.choice(CONTROLLERS.len())];
        let spec = spec_for(workload, controller, g.range(1, 1 << 20), g.bool());
        cut_and_resume(g, &spec, &dir);
    });
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
