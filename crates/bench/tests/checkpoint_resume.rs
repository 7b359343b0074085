//! Property: a run interrupted at an arbitrary point and resumed from a
//! checkpoint is bit-identical to the same run performed uninterrupted.
//!
//! Each case draws a controller, a seed, and a random interruption index,
//! runs the spec once to completion for the golden result, then replays it
//! with `begin`/`advance`, snapshots at the drawn index, rebuilds a fresh
//! system from the checkpoint, and runs the tail. The full result document
//! (cycles, serve counters, latency histogram, telemetry snapshot) must
//! match the golden byte for byte.

use baryon_bench::spec::{resume_from, RunSpec};
use baryon_sim::check::props;

fn spec_for(controller: &str, seed: u64) -> RunSpec {
    RunSpec {
        workload: "ycsb-a".into(),
        controller: controller.into(),
        insts: 3_000,
        warmup: 1_000,
        scale: 2048,
        seed,
        mlp: 1,
        telemetry: false,
        threads: 1,
        ..RunSpec::default()
    }
}

/// The multi-level remap store has by far the most structural checkpoint
/// state (live leaves, free-slot stack, two hot caches), so trimma gets a
/// dedicated pinned property on top of the mixed draw below.
#[test]
fn trimma_resume_at_random_cut_is_bit_identical() {
    let dir = std::env::temp_dir().join(format!("baryon-ckpt-trimma-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");

    props("trimma_checkpoint_resume").cases(8).run(|g| {
        let spec = spec_for("trimma", g.range(1, 1 << 20));
        let golden = spec.execute().expect("golden run");
        let mut system = spec.build_system().expect("system");
        system.begin(spec.insts);
        let cut = g.range(1, 4_000);
        g.note(format!("seed={} cut at op {cut}", spec.seed));
        if system.advance(cut) {
            let r = system.finish();
            assert_eq!(r.to_json().render(), golden.to_json().render());
            return;
        }
        let path = dir.join(format!("trimma-{}-{cut}.ckpt", spec.seed));
        spec.checkpoint_of(&system)
            .write_to(&path)
            .expect("write checkpoint");
        drop(system);

        let (back, resumed) = resume_from(&path).expect("resume");
        assert_eq!(back, spec, "spec did not survive the round trip");
        assert_eq!(
            resumed.to_json().render(),
            golden.to_json().render(),
            "trimma resume diverged from the uninterrupted golden"
        );
        std::fs::remove_file(&path).expect("cleanup case file");
    });

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn resume_at_random_index_is_bit_identical() {
    // Cover the tentpole controller plus a spread of baselines whose
    // internal state differs the most (set-assoc ways, footprint maps,
    // OS paging epochs, the multi-level remap store's live leaves).
    const CONTROLLERS: [&str; 5] = ["baryon", "simple", "unison", "os-paging", "trimma"];
    let dir = std::env::temp_dir().join(format!("baryon-ckpt-prop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");

    props("checkpoint_resume_bit_identical").cases(12).run(|g| {
        let spec = spec_for(
            CONTROLLERS[g.choice(CONTROLLERS.len())],
            g.range(1, 1 << 20),
        );
        g.note(format!("controller={} seed={}", spec.controller, spec.seed));
        let golden = spec.execute().expect("golden run");

        // Replay incrementally and interrupt at a random op index.
        let mut system = spec.build_system().expect("system");
        system.begin(spec.insts);
        let cut = g.range(1, 4_000);
        g.note(format!("cut at op {cut}"));
        if system.advance(cut) {
            // The whole run fit under the cut: nothing to resume,
            // but the incremental result must still match.
            let r = system.finish();
            assert_eq!(r.to_json().render(), golden.to_json().render());
            return;
        }
        let path = dir.join(format!("case-{}-{cut}.ckpt", spec.seed));
        spec.checkpoint_of(&system)
            .write_to(&path)
            .expect("write checkpoint");
        drop(system); // the interrupted run is gone for good

        let (back, resumed) = resume_from(&path).expect("resume");
        assert_eq!(back, spec, "spec did not survive the round trip");
        assert_eq!(
            resumed.to_json().render(),
            golden.to_json().render(),
            "resumed run diverged from the uninterrupted golden"
        );
        std::fs::remove_file(&path).expect("cleanup case file");
    });

    std::fs::remove_dir_all(&dir).expect("cleanup");
}
