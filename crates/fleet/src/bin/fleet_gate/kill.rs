//! The `kill` scenario: the fleet's headline determinism invariant across
//! a real `SIGKILL`.
//!
//! 1. compute the golden result of a grid sweep in-process
//!    (`JobSpec::execute`),
//! 2. submit the same sweep as a batched fleet job and open its
//!    `/v1/jobs/<id>/events` stream,
//! 3. `SIGKILL` one shard once the first cells have landed but the sweep
//!    is still running (so it dies with cells in flight),
//! 4. require the supervisor to restart it, the sweep to finish, and the
//!    gathered result to be **byte-identical** to the golden document,
//! 5. require `/v1/metrics` to report every shard under its `shard<i>.`
//!    namespace plus the restart, and the event stream to have delivered
//!    monotonic progress and a final `end`.

use crate::{gate_config, gate_grid, SHARDS};
use baryon_bench::spec::JobSpec;
use baryon_fleet::harness::{self, GateFleet};
use baryon_sim::json::{self, Json};
use std::ops::ControlFlow;

/// Asserts the collected stream lines are well-formed, monotonic in
/// `cells_done`, and terminated by `end` with the expected state.
fn check_stream(lines: &[String], id: u64) -> Result<(), String> {
    let mut last_cells_done = 0;
    let mut saw_progress = false;
    let mut end_state = None;
    for line in lines {
        let doc = json::parse(line).map_err(|e| format!("bad event ({e}): {line}"))?;
        match doc.get("event").and_then(Json::as_str) {
            Some("progress") => {
                saw_progress = true;
                if doc.get("id").and_then(Json::as_u64) != Some(id) {
                    return Err(format!("progress for the wrong job: {line}"));
                }
                let done = doc.get("cells_done").and_then(Json::as_u64).unwrap_or(0);
                if done < last_cells_done {
                    return Err(format!(
                        "cells_done went backwards ({last_cells_done} -> {done}): {line}"
                    ));
                }
                last_cells_done = done;
            }
            Some("end") => {
                end_state = doc.get("state").and_then(Json::as_str).map(str::to_owned);
            }
            Some("alive") => {}
            _ => return Err(format!("unknown event: {line}")),
        }
    }
    if !saw_progress {
        return Err("stream delivered no progress events".to_owned());
    }
    if end_state.as_deref() != Some("done") {
        return Err(format!("stream ended with {end_state:?}, expected done"));
    }
    Ok(())
}

pub fn run() -> Result<(), String> {
    let grid = gate_grid(250_000, 20_000, 7);
    let cells = grid.expand().len() as u64;
    let golden = JobSpec::Grid(grid.clone())
        .execute()
        .map_err(|e| format!("golden run: {e}"))?
        .render();

    // Frequent checkpoints so a killed shard's in-flight cells resume
    // instead of restarting from scratch.
    let mut launcher = harness::self_launcher(1, 16).map_err(|e| format!("launcher: {e}"))?;
    launcher.extra_env.push((
        "BARYON_SERVE_CHECKPOINT_EVERY".to_owned(),
        "10000".to_owned(),
    ));
    let fleet = GateFleet::boot(gate_config("kill", 4), launcher)?;

    // Submit the sweep (grids default to the batch class).
    let body = JobSpec::Grid(grid).to_json().render();
    let accepted = fleet.request("POST", "/v1/jobs", Some(&body), 202)?;
    let id = accepted
        .get("id")
        .and_then(Json::as_u64)
        .ok_or("202 body has no id")?;
    if accepted.get("cells").and_then(Json::as_u64) != Some(cells) {
        return Err(format!("expected {cells} cells: {}", accepted.render()));
    }

    // Stream events concurrently with the kill below.
    let client = fleet.client();
    let streamer = std::thread::spawn(move || {
        let mut lines = Vec::new();
        client
            .stream(&format!("/v1/jobs/{id}/events"), &mut |line| {
                lines.push(line.to_owned());
                ControlFlow::Continue(())
            })
            .map(|()| lines)
    });

    // Kill shard 1 once the sweep is demonstrably mid-flight: some cells
    // done, some not, job still running.
    fleet.await_status(id, "the mid-sweep kill window", |doc| {
        doc.get("cells_done")
            .and_then(Json::as_u64)
            .is_some_and(|d| d >= 1 && d < cells)
            && doc.get("state").and_then(Json::as_str) == Some("running")
    })?;
    fleet
        .controller()
        .kill_shard(1)
        .map_err(|e| format!("SIGKILL shard 1: {e}"))?;
    println!("killed shard 1 mid-sweep; awaiting supervised restart and completion");

    // The supervisor must restart it and the sweep must finish.
    fleet.await_identical(id, &golden, "fleet sweep")?;
    if fleet.controller().restarts() < 1 {
        return Err("shard 1 was never restarted".to_owned());
    }
    let stream_lines = streamer
        .join()
        .map_err(|_| "stream collector panicked".to_owned())?
        .map_err(|e| format!("event stream: {e}"))?;
    check_stream(&stream_lines, id)?;

    // Fleet metrics must carry every shard under its namespace, and the
    // restart.
    let metrics = fleet.request("GET", "/v1/metrics", None, 200)?.render();
    for i in 0..SHARDS {
        let needle = format!("\"shard{i}.serve.jobs.done\"");
        if !metrics.contains(&needle) {
            return Err(format!("metrics missing {needle}: {metrics}"));
        }
    }
    if !metrics.contains("\"fleet.shards.restarts\":") {
        return Err(format!("metrics missing restart count: {metrics}"));
    }
    fleet.finish()?;
    println!(
        "kill: {cells}-cell sweep over {SHARDS} shards (one SIGKILLed and restarted) matches \
         the single-process run byte-for-byte"
    );
    Ok(())
}
