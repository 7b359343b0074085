//! Locks in `execute_all`'s contract: running specs on parallel worker
//! threads only reorders wall-clock execution, never a result. Every
//! result must be bit-identical to the same spec executed serially, and
//! come back in input order.

use baryon_bench::spec::{execute_all, RunSpec};
use baryon_core::Knobs;

fn spec(workload: &str, controller: &str, knobs: Knobs) -> RunSpec {
    RunSpec {
        workload: workload.to_owned(),
        controller: controller.to_owned(),
        insts: 2_000,
        warmup: 500,
        scale: 2048,
        seed: 7,
        knobs,
        ..RunSpec::default()
    }
}

#[test]
fn parallel_results_equal_serial_execute_in_input_order() {
    let no_zero = Knobs {
        zero_opt: Some(false),
        ..Knobs::default()
    };
    let specs: Vec<RunSpec> = ["505.mcf_r", "pr.twi", "ycsb-a"]
        .into_iter()
        .flat_map(|w| {
            [
                spec(w, "simple", Knobs::default()),
                spec(w, "unison", Knobs::default()),
                spec(w, "baryon", no_zero),
            ]
        })
        .collect();
    let parallel = execute_all(&specs).expect("every spec runs");
    assert_eq!(parallel.len(), specs.len());
    for (i, (spec, got)) in specs.iter().zip(&parallel).enumerate() {
        let serial = spec.execute().expect("serial run");
        assert_eq!(
            got.to_json().render(),
            serial.to_json().render(),
            "spec {i} ({} / {}) diverged from its serial run",
            spec.workload,
            spec.controller
        );
    }
    assert!(parallel.iter().all(|r| r.total_cycles > 0));
}

#[test]
fn an_invalid_spec_fails_before_anything_runs() {
    let bad = spec(
        "ycsb-a",
        "simple",
        Knobs {
            zero_opt: Some(false),
            ..Knobs::default()
        },
    );
    let err = execute_all(&[spec("ycsb-a", "simple", Knobs::default()), bad])
        .expect_err("knobs on a non-Baryon controller");
    assert!(err.contains("simple"), "{err}");
    assert!(execute_all(&[]).expect("nothing to run").is_empty());
}
