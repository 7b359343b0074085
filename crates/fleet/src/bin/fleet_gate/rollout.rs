//! The `rollout` scenario: the A/B config-rollout invariants with a sweep
//! in flight.
//!
//! 1. compute the golden result of a grid sweep in-process,
//! 2. reject an **invalid** policy at stage time (`400 invalid_config`),
//! 3. submit the sweep; once it is demonstrably mid-flight, stage a
//!    **degraded but valid** policy (a 1 ms job deadline) and commit —
//!    the first shard's canary must fail and the fleet must auto-roll
//!    back (`409 rollout_failed`, slot marked bad, rollback counted),
//! 4. require the sweep to finish with **zero lost jobs** and a result
//!    **byte-identical** to the single-process run,
//! 5. require `/v1/metrics` to expose `fleet.config.generation`,
//!    `fleet.config.rollbacks`, and per-shard respawn-backoff gauges,
//! 6. commit a **benign** policy: the rolling restart must succeed, the
//!    generation must bump, results must be stamped with it, and every
//!    shard must report `serve.policy.generation`,
//! 7. roll back: the fleet returns to the baseline and results lose the
//!    stamp,
//! 8. commit a generous 15 s job deadline (generation 3), then commit a
//!    further candidate with a healthy run in flight and an unbounded
//!    run that trips the deadline mid-roll: the failure regression must
//!    auto-roll the commit back, and the healthy run's mid-roll result
//!    must be **quarantined** (`fleet.config.quarantined_results`),
//!    re-dispatched under the restored generation, and settle
//!    byte-identical to a clean run of the same spec.

use crate::{gate_config, gate_grid, SHARDS};
use baryon_bench::spec::JobSpec;
use baryon_fleet::harness::{self, GateFleet};
use baryon_sim::json::Json;

const STAGE: &str = "/v1/admin/config/stage";
const COMMIT: &str = "/v1/admin/config/commit";

/// The `error.code` of an error envelope.
fn error_code(reply: &Json) -> Option<&str> {
    reply.get("error")?.get("code")?.as_str()
}

/// Commits the staged slot and requires the fleet to refuse it and roll
/// back (`409 rollout_failed`).
fn commit_rolls_back(fleet: &GateFleet, what: &str) -> Result<Json, String> {
    let reply = fleet
        .request("POST", COMMIT, None, 409)
        .map_err(|e| format!("{what} commit should roll back: {e}"))?;
    if error_code(&reply) != Some("rollout_failed") {
        return Err(format!(
            "{what} commit should fail with rollout_failed: {}",
            reply.render()
        ));
    }
    Ok(reply)
}

fn active_generation(fleet: &GateFleet) -> Result<u64, String> {
    let doc = fleet.admin_config()?;
    doc.get("active_generation")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("no active_generation: {}", doc.render()))
}

/// Submits a single run and returns its settled `result` document.
fn run_single(fleet: &GateFleet, what: &str) -> Result<Json, String> {
    const RUN: &str = r#"{"workload":"ycsb-a","controller":"baryon","insts":50000,"warmup":5000,"scale":1024,"seed":13}"#;
    let id = fleet.submit(RUN, what)?;
    fleet.await_done(id, what)
}

pub fn run() -> Result<(), String> {
    let grid = gate_grid(150_000, 15_000, 11);
    let cells = grid.expand().len() as u64;
    let golden = JobSpec::Grid(grid.clone())
        .execute()
        .map_err(|e| format!("golden run: {e}"))?
        .render();

    let launcher = harness::self_launcher(1, 16).map_err(|e| format!("launcher: {e}"))?;
    let fleet = GateFleet::boot(gate_config("rollout", 4), launcher)?;

    // An invalid policy must be refused at stage time with the typed
    // code — nothing reaches the slots.
    let reply = fleet.request("POST", STAGE, Some(r#"{"commit_k":-1}"#), 400)?;
    if error_code(&reply) != Some("invalid_config") {
        return Err(format!("invalid stage got {}", reply.render()));
    }
    if active_generation(&fleet)? != 0 {
        return Err("an invalid stage moved the active generation".to_owned());
    }

    // Submit the sweep and wait until it is demonstrably mid-flight.
    let id = fleet.submit(&JobSpec::Grid(grid).to_json().render(), "sweep")?;
    fleet.await_status(id, "the mid-sweep rollout window", |doc| {
        doc.get("cells_done")
            .and_then(Json::as_u64)
            .is_some_and(|d| d >= 1 && d < cells)
            && doc.get("state").and_then(Json::as_str) == Some("running")
    })?;

    // Stage a degraded-but-valid policy: a 1 ms job deadline passes
    // validation but fails every real run. Commit must hit the first
    // shard's canary, auto-roll the fleet back, and answer 409.
    fleet.request("POST", STAGE, Some(r#"{"job_deadline_ms":1}"#), 200)?;
    println!("staged degraded config mid-sweep; committing");
    let reply = commit_rolls_back(&fleet, "degraded")?;
    println!("degraded commit auto-rolled back: {}", reply.render());
    let config = fleet.admin_config()?;
    if config.get("active_generation").and_then(Json::as_u64) != Some(0) {
        return Err(format!(
            "rollback left the wrong generation: {}",
            config.render()
        ));
    }
    let failed_slot = config.get("last_failed").ok_or("no last_failed record")?;
    if failed_slot.get("generation").and_then(Json::as_u64) != Some(1) {
        return Err(format!(
            "last_failed should name generation 1: {}",
            config.render()
        ));
    }
    if config.get("rollbacks").and_then(Json::as_u64) != Some(1) {
        return Err(format!(
            "expected exactly one rollback: {}",
            config.render()
        ));
    }

    // The sweep must finish with zero lost jobs and a byte-identical
    // gathered document.
    fleet.await_identical(id, &golden, "sweep after the failed rollout")?;
    let metrics = fleet.request("GET", "/v1/metrics", None, 200)?.render();
    if !metrics.contains("\"fleet.jobs.failed\":0") {
        return Err(format!("jobs were lost during the rollout: {metrics}"));
    }
    for needle in [
        "\"fleet.config.generation\":",
        "\"fleet.config.rollbacks\":1",
        "\"fleet.shard0.respawn_backoff_ms\":",
    ] {
        if !metrics.contains(needle) {
            return Err(format!("metrics missing {needle}: {metrics}"));
        }
    }

    // A benign policy must commit cleanly: rolling restart, bumped
    // generation, stamped results, per-shard policy metric.
    fleet.request("POST", STAGE, Some(r#"{"scrub_interval":100000}"#), 200)?;
    // While the candidate sits staged, the admin surface must show the
    // per-knob diff an operator would be committing.
    let config = fleet.admin_config()?;
    let diff = config
        .get("staged_diff")
        .ok_or("benign stage produced no staged_diff")?;
    if diff.get("from_generation").and_then(Json::as_u64) != Some(0)
        || diff.get("to_generation").and_then(Json::as_u64) != Some(2)
    {
        return Err(format!(
            "staged_diff names the wrong generations: {}",
            config.render()
        ));
    }
    let changes = diff
        .get("changes")
        .ok_or("staged_diff has no changes")?
        .render();
    if !changes.contains(r#""scrub_interval":{"from":"default","to":"100000"}"#) {
        return Err(format!("staged_diff missing the scrub knob: {changes}"));
    }
    fleet.request("POST", COMMIT, None, 200)?;
    if active_generation(&fleet)? != 2 {
        return Err("benign commit should activate generation 2".to_owned());
    }
    println!("benign config committed across the fleet (generation 2)");
    let result = run_single(&fleet, "post-commit run")?;
    if result.get("config_generation").and_then(Json::as_u64) != Some(2) {
        return Err(format!(
            "post-commit result not stamped with generation 2: {}",
            result.render()
        ));
    }
    let metrics = fleet.request("GET", "/v1/metrics", None, 200)?.render();
    for i in 0..SHARDS {
        let needle = format!("\"shard{i}.serve.policy.generation\":2");
        if !metrics.contains(&needle) {
            return Err(format!("metrics missing {needle}: {metrics}"));
        }
    }

    // Rollback restores the baseline and un-stamps results.
    fleet.request("POST", "/v1/admin/config/rollback", None, 200)?;
    if active_generation(&fleet)? != 0 {
        return Err("rollback should restore generation 0".to_owned());
    }
    let result = run_single(&fleet, "post-rollback run")?;
    if result.get("config_generation").is_some() {
        return Err(format!(
            "baseline results must not carry a stamp: {}",
            result.render()
        ));
    }

    // Arm a generous job deadline as generation 3. The fleet canary runs
    // in the low seconds on an idle host, so 15 s passes every canary and
    // every run this scenario submits — except the deliberately unbounded
    // one below, which is how the next commit is made to fail mid-roll
    // deterministically.
    fleet.request("POST", STAGE, Some(r#"{"job_deadline_ms":15000}"#), 200)?;
    fleet.request("POST", COMMIT, None, 200)?;
    if active_generation(&fleet)? != 3 {
        return Err("deadline commit should activate generation 3".to_owned());
    }

    // Results that land while a commit is rolling are held back, and a
    // failed commit must quarantine them for re-dispatch rather than
    // release documents produced under a config the fleet rejected. The
    // healthy run below is in flight when the commit starts, so its shard
    // cannot drain before the result lands — staged. The unbounded run
    // trips the active deadline mid-roll, which trips the
    // failure-regression check and rolls the commit back.
    const MID_ROLL: &str = r#"{"workload":"ycsb-a","controller":"baryon","insts":300000,"warmup":20000,"scale":1024,"seed":21}"#;
    const UNBOUNDED: &str = r#"{"workload":"ycsb-a","controller":"baryon","insts":2000000000,"warmup":20000,"scale":1024,"seed":22}"#;
    let running = |doc: &Json| doc.get("state").and_then(Json::as_str) == Some("running");
    let quarantined_before = fleet.counter("fleet.config.quarantined_results")?;
    let failed_before = fleet.counter("fleet.jobs.failed")?;
    let mid_roll = fleet.submit(MID_ROLL, "mid-roll run")?;
    fleet.await_status(mid_roll, "mid-roll dispatch", running)?;
    let doomed = fleet.submit(UNBOUNDED, "unbounded run")?;
    fleet.await_status(doomed, "unbounded dispatch", running)?;
    fleet.request(
        "POST",
        STAGE,
        Some(r#"{"job_deadline_ms":15000,"scrub_interval":50000}"#),
        200,
    )?;
    println!("committing with a healthy run and a doomed run in flight");
    commit_rolls_back(&fleet, "mid-roll")?;
    if active_generation(&fleet)? != 3 {
        return Err("failed mid-roll commit should leave generation 3 active".to_owned());
    }
    let status = fleet.await_status(doomed, "deadline kill", |doc| {
        doc.get("state").and_then(Json::as_str) == Some("failed")
    })?;
    println!("unbounded run killed by the deadline: {}", status.render());
    let failed_after = fleet.counter("fleet.jobs.failed")?;
    if failed_after != failed_before + 1 {
        let job = |path: &str| {
            fleet
                .request("GET", path, None, 200)
                .map(|doc| doc.render())
                .unwrap_or_default()
        };
        return Err(format!(
            "exactly the unbounded run should have failed ({failed_before} -> \
             {failed_after})\n  mid-roll job: {}\n  metrics: {}",
            job(&format!("/v1/jobs/{mid_roll}")),
            job("/v1/metrics")
        ));
    }
    let quarantined = fleet.counter("fleet.config.quarantined_results")?;
    if quarantined <= quarantined_before {
        return Err(format!(
            "the mid-roll result was never quarantined ({quarantined_before} -> {quarantined})"
        ));
    }
    // The quarantined cell must be re-dispatched under the restored
    // generation and settle byte-identical to a clean run of the same
    // spec.
    let result = fleet.await_done(mid_roll, "requeued run")?;
    if result.get("config_generation").and_then(Json::as_u64) != Some(3) {
        return Err(format!(
            "requeued result not stamped with the restored generation: {}",
            result.render()
        ));
    }
    let fresh = fleet.submit(MID_ROLL, "reference run")?;
    fleet.await_identical(
        fresh,
        &result.render(),
        "clean re-run of the quarantined spec",
    )?;
    println!("mid-roll result quarantined ({quarantined} total), re-dispatched, byte-identical");

    fleet.finish()?;
    println!(
        "rollout: bad config auto-rolled back mid-sweep with zero lost jobs and a byte-identical \
         gather; benign config rolled out and back across {SHARDS} shards; mid-roll results \
         quarantined and re-dispatched after a failed commit"
    );
    Ok(())
}
