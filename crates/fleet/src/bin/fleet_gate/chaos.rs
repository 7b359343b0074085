//! The `chaos` scenario: the degradation ladder end to end.
//!
//! Runs the fleet under *aggressive* seeded fault injection
//! ([`baryon_sim::faultfs`], enabled on every shard via the launcher's
//! environment, never in the coordinator) and proves the graceful-
//! degradation ladder end to end:
//!
//! 1. compute clean goldens in-process (chaos is per-process and this
//!    process sets no `BARYON_CHAOS_*` variables),
//! 2. boot a fleet whose 3 worker shards each run with hostile-disk and
//!    lying-shard injection: torn/failed journal appends, silent
//!    post-write corruption, read flips, fsync failures, and post-CRC
//!    response-body flips,
//! 3. force one shard into a crash loop until its crash-loop budget
//!    (`BARYON_FLEET_QUARANTINE_AFTER=2`) quarantines it with singles in
//!    flight — they must fail over to healthy shards and still settle
//!    byte-identical to the clean run (`fleet.shards.quarantined`,
//!    `fleet.cells.failover`),
//! 4. rot every checkpoint rotation member of an in-flight run on a
//!    healthy shard, crash that shard once, and require the resumed
//!    incarnation to quarantine the rotten rungs and descend the fallback
//!    ladder to a cold run (`shard<k>.serve.ckpt.quarantined`), again
//!    byte-identical,
//! 5. run an 8-cell sweep over the degraded fleet (one shard out of
//!    rotation, chaos still live) and require the gathered document to be
//!    byte-identical to the golden, with zero failed jobs,
//! 6. require the coordinator to have rejected at least one corrupt shard
//!    reply along the way (`fleet.shard.reply_errors`).
//!
//! Every rate knob and the seed come from the environment when set
//! (`BARYON_CHAOS_SEED`, `BARYON_CHAOS_*_PPM`) so a failure reproduces
//! exactly; the defaults below are the CI configuration:
//!
//! ```text
//! BARYON_CHAOS_SEED=42 BARYON_CHAOS_CORRUPT_PPM=20000 ... fleet_gate chaos
//! ```

use crate::{gate_config, gate_grid, SHARDS};
use baryon_bench::spec::{JobSpec, RunSpec};
use baryon_fleet::harness::{self, GateFleet};
use baryon_sim::json::Json;
use std::path::Path;
use std::time::{Duration, Instant};

const POLL: Duration = Duration::from_millis(10);

/// The default (CI) chaos configuration: aggressive enough that every
/// rung of the ladder is exercised in one run, convergent enough that
/// retries always make progress. Overridable knob by knob from the
/// caller's environment.
const CHAOS_KNOBS: &[(&str, &str)] = &[
    ("BARYON_CHAOS_SEED", "42"),
    ("BARYON_CHAOS_WRITE_FAIL_PPM", "20000"),
    ("BARYON_CHAOS_ENOSPC_PPM", "10000"),
    ("BARYON_CHAOS_FSYNC_FAIL_PPM", "20000"),
    ("BARYON_CHAOS_CORRUPT_PPM", "20000"),
    ("BARYON_CHAOS_READ_FLIP_PPM", "20000"),
    ("BARYON_CHAOS_RESPONSE_CORRUPT_PPM", "30000"),
];

/// The single used to load the crash-looping shard (short enough to keep
/// the gate fast, long enough to still be in flight when the quarantine
/// lands).
fn failover_spec() -> RunSpec {
    RunSpec {
        insts: 400_000,
        warmup: 20_000,
        scale: 1024,
        seed: 17,
        ..RunSpec::default()
    }
}

/// The single whose checkpoints get rotted on disk (long enough that it
/// is reliably mid-run, with rotation members on disk, when its shard is
/// crashed).
fn ladder_spec() -> RunSpec {
    RunSpec {
        insts: 900_000,
        warmup: 20_000,
        scale: 1024,
        seed: 19,
        ..RunSpec::default()
    }
}

/// Flips one bit in every checkpoint rotation member under the shard's
/// journal directory (the parent's filesystem view is clean — this is
/// the deterministic "disk rotted at rest" event). Returns how many
/// files were rotted.
fn rot_checkpoints(shard_journal: &Path) -> Result<usize, String> {
    let mut rotted = 0;
    let entries = std::fs::read_dir(shard_journal)
        .map_err(|e| format!("read {}: {e}", shard_journal.display()))?;
    for entry in entries.flatten() {
        let dir = entry.path();
        let is_ckpt_dir = dir.is_dir()
            && entry
                .file_name()
                .to_str()
                .is_some_and(|n| n.starts_with("ckpt-"));
        if !is_ckpt_dir {
            continue;
        }
        for member in std::fs::read_dir(&dir)
            .map_err(|e| format!("read {}: {e}", dir.display()))?
            .flatten()
        {
            let path = member.path();
            if path.extension().is_none_or(|ext| ext != "ckpt") {
                continue;
            }
            let mut bytes =
                std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            if bytes.is_empty() {
                continue;
            }
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x10;
            std::fs::write(&path, &bytes).map_err(|e| format!("write {}: {e}", path.display()))?;
            rotted += 1;
        }
    }
    Ok(rotted)
}

/// Waits until the shard's journal holds at least one checkpoint
/// rotation member for some in-flight run.
fn await_checkpoint_on_disk(shard_journal: &Path) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(entries) = std::fs::read_dir(shard_journal) {
            for entry in entries.flatten() {
                let dir = entry.path();
                let named_ckpt = entry
                    .file_name()
                    .to_str()
                    .is_some_and(|n| n.starts_with("ckpt-"));
                if !dir.is_dir() || !named_ckpt {
                    continue;
                }
                let has_member = std::fs::read_dir(&dir).is_ok_and(|members| {
                    members
                        .flatten()
                        .any(|m| m.path().extension().is_some_and(|ext| ext == "ckpt"))
                });
                if has_member {
                    return Ok(());
                }
            }
        }
        if Instant::now() > deadline {
            return Err(format!(
                "no checkpoint appeared under {}",
                shard_journal.display()
            ));
        }
        std::thread::sleep(POLL);
    }
}

/// Phase: crash-loop one shard past its quarantine budget with singles
/// in flight on it; every single must fail over and settle identical to
/// `golden`.
fn crash_loop_phase(fleet: &GateFleet, golden: &str) -> Result<(), String> {
    let controller = fleet.controller();
    let body = JobSpec::Run(failover_spec()).to_json().render();
    // Submit more identical singles than the fleet has slots and
    // crash-loop the shard that takes the first one. With at least SHARDS
    // singles still queued, the victim's slot pulls another whenever it
    // lands one, so it holds a single through both kills and the
    // quarantine reliably catches a cell in flight.
    let ids: Vec<u64> = (0..10)
        .map(|_| fleet.submit(&body, "failover single"))
        .collect::<Result<_, _>>()?;
    let deadline = Instant::now() + Duration::from_secs(30);
    let victim = loop {
        if let Some(shard) = ids
            .iter()
            .find_map(|&id| controller.dispatched_shard(id, 0))
        {
            break shard;
        }
        if Instant::now() > deadline {
            return Err("no failover single was ever dispatched".into());
        }
        std::thread::sleep(POLL);
    };
    let mut queued = 0;
    for &id in &ids {
        let doc = fleet.request("GET", &format!("/v1/jobs/{id}"), None, 200)?;
        queued += usize::from(doc.get("state").and_then(Json::as_str) == Some("queued"));
    }
    if queued < SHARDS {
        return Err(format!(
            "only {queued} singles still queued at the first kill; lengthen failover_spec"
        ));
    }

    // Two rapid kills: the first respawns (crash recovery), the second
    // exhausts the budget of 2 and quarantines the shard.
    let restarts_before = controller.restarts();
    controller
        .kill_shard(victim)
        .map_err(|e| format!("kill shard {victim}: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(30);
    while controller.restarts() <= restarts_before {
        if Instant::now() > deadline {
            return Err(format!("shard {victim} was never respawned"));
        }
        std::thread::sleep(POLL);
    }
    controller
        .kill_shard(victim)
        .map_err(|e| format!("re-kill shard {victim}: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(30);
    while !controller.shard_is_quarantined(victim) {
        if Instant::now() > deadline {
            return Err(format!("shard {victim} was never quarantined"));
        }
        std::thread::sleep(POLL);
    }
    println!("shard {victim} quarantined after exhausting its crash-loop budget");

    let failover =
        fleet.await_counter("fleet.cells.failover", Duration::from_secs(10), |n| n >= 1)?;
    if failover == 0 {
        return Err("quarantine caught no cells in flight (fleet.cells.failover is 0)".into());
    }
    for &id in &ids {
        fleet.await_identical(id, golden, &format!("failed-over single {id}"))?;
    }
    println!(
        "{} singles settled byte-identical through the quarantine ({failover} failed over)",
        ids.len()
    );
    Ok(())
}

/// Phase: rot every checkpoint of an in-flight run at rest, crash its
/// (healthy) shard once, and require the respawned incarnation to
/// quarantine the rotten rungs and descend to a cold run. Chaos can eat
/// the shard's journal record (the run then restarts cold without ever
/// touching the rotten checkpoints), so the phase retries with a fresh
/// run until the `serve.ckpt.quarantined` counter moves.
fn ladder_phase(fleet: &GateFleet, golden: &str) -> Result<(), String> {
    let controller = fleet.controller();
    let body = JobSpec::Run(ladder_spec()).to_json().render();
    for attempt in 0..4 {
        if attempt > 0 {
            // Let the respawn window lapse so the single crash below
            // never eats into the quarantine budget across attempts.
            std::thread::sleep(Duration::from_secs(11));
        }
        // The quarantined shard's slots pull nothing, so the run lands on
        // a healthy shard.
        let id = fleet.submit(&body, "ladder single")?;
        fleet.await_status(id, "ladder dispatch", |doc| {
            doc.get("state").and_then(Json::as_str) == Some("running")
        })?;
        let shard = controller
            .dispatched_shard(id, 0)
            .ok_or("the running ladder single is not dispatched")?;
        let shard_journal = fleet.journal_root().join(format!("shard{shard}"));
        await_checkpoint_on_disk(&shard_journal)?;

        // Freeze the shard (pause blocks the supervisor's respawn), rot
        // the rotation on disk, then let it come back and resume.
        let quarantined = format!("shard{shard}.serve.ckpt.quarantined");
        let before = fleet.counter(&quarantined)?;
        controller.pause_shard(shard);
        controller
            .kill_shard(shard)
            .map_err(|e| format!("kill shard {shard}: {e}"))?;
        let rotted = rot_checkpoints(&shard_journal)?;
        controller.unpause_shard(shard);
        fleet.await_identical(id, golden, "ladder single")?;
        let after = fleet.await_counter(&quarantined, Duration::from_secs(10), |n| n > before)?;
        if after > before {
            println!(
                "shard {shard} quarantined {} rotten checkpoint(s) ({rotted} rotted on disk) \
                 and the run still settled byte-identical",
                after - before
            );
            return Ok(());
        }
        println!(
            "attempt {attempt} on shard {shard}: chaos ate the journal record before resume \
             ({rotted} rotted); retrying with a fresh run"
        );
    }
    Err("checkpoint ladder never engaged (serve.ckpt.quarantined never moved)".into())
}

pub fn run() -> Result<(), String> {
    // Clean goldens first: this process never sets BARYON_CHAOS_* for
    // itself, so these are fault-free.
    let grid = gate_grid(250_000, 20_000, 13);
    let grid_golden = JobSpec::Grid(grid.clone())
        .execute()
        .map_err(|e| format!("grid golden: {e}"))?
        .render();
    let failover_golden = JobSpec::Run(failover_spec())
        .execute()
        .map_err(|e| format!("failover golden: {e}"))?
        .render();
    let ladder_golden = JobSpec::Run(ladder_spec())
        .execute()
        .map_err(|e| format!("ladder golden: {e}"))?
        .render();

    // Chaos and the checkpoint cadence ride into the shards on the
    // launcher environment; the knobs honor the caller's values so
    // failures reproduce exactly.
    let mut launcher = harness::self_launcher(1, 16).map_err(|e| format!("launcher: {e}"))?;
    launcher.extra_env.push((
        "BARYON_SERVE_CHECKPOINT_EVERY".to_owned(),
        "10000".to_owned(),
    ));
    for (name, default) in CHAOS_KNOBS {
        let value = std::env::var(name).unwrap_or_else(|_| (*default).to_owned());
        launcher.extra_env.push(((*name).to_owned(), value));
    }
    // The crash-loop budget is read once, at bind: scope it to this
    // scenario's coordinator so no other scenario inherits it.
    std::env::set_var("BARYON_FLEET_QUARANTINE_AFTER", "2");
    let fleet = GateFleet::boot(gate_config("chaos", 64), launcher);
    std::env::remove_var("BARYON_FLEET_QUARANTINE_AFTER");
    let fleet = fleet?;

    crash_loop_phase(&fleet, &failover_golden)?;
    ladder_phase(&fleet, &ladder_golden)?;

    // The 8-cell sweep over the degraded fleet: one shard out of
    // rotation, disk and response chaos still live on the survivors.
    let sweep = fleet.submit(&JobSpec::Grid(grid).to_json().render(), "sweep")?;
    fleet.await_identical(sweep, &grid_golden, "chaos sweep")?;
    println!("8-cell sweep over the degraded fleet matches the clean run byte-for-byte");

    // Ladder bookkeeping: every degradation counter fired, nothing was
    // lost.
    if fleet.counter("fleet.jobs.failed")? != 0 {
        return Err("jobs were lost under chaos (fleet.jobs.failed != 0)".into());
    }
    let quarantined = fleet.controller().quarantined_shards();
    if quarantined != 1 {
        return Err(format!(
            "expected exactly 1 quarantined shard, have {quarantined}"
        ));
    }
    // Every verified shard reply is a draw at the response flip rate; the
    // scrapes below keep drawing until one is rejected.
    let reply_errors =
        fleet.await_counter("fleet.shard.reply_errors", Duration::from_secs(30), |n| {
            n >= 1
        })?;
    if reply_errors == 0 {
        return Err("no corrupt shard reply was ever rejected (reply_errors is 0)".into());
    }
    println!("coordinator rejected {reply_errors} corrupt shard replies");

    fleet.finish()?;
    println!(
        "chaos: crash-looped shard quarantined with live failover, rotten checkpoints \
         quarantined down the fallback ladder, and an 8-cell sweep under aggressive disk+response \
         chaos lost zero jobs and gathered byte-identically"
    );
    Ok(())
}
