//! The checkpoint pass: a workload's job replayed in-process the way
//! `RunSpec::execute_with_checkpoints` (and a journaled serve worker) runs
//! it — `advance` by the serving cadence, then `checkpoint_of` plus
//! `save_rotating` per snapshot — with each snapshot timed from here.

use crate::metrics::Report;
use crate::stats::{median, tail};
use crate::workload::Outcome;
use baryon_bench::spec::{resume_from, RunSpec, CHECKPOINT_PREFIX};
use baryon_core::checkpoint::Checkpoint;
use baryon_core::metrics::RunResult;
use std::path::Path;
use std::time::Instant;

/// Operations between snapshots: `baryon-serve`'s default cadence.
pub const EVERY: u64 = 20_000;

/// Rotation depth, as a serve worker keeps.
const KEEP: usize = 2;

/// Snapshots to time before the pass stops (enough for a p95 with ten
/// samples beyond it).
pub const MIN_SNAPSHOTS: usize = 200;

/// What the pass measured.
#[derive(Debug, Default)]
pub struct CkptPass {
    /// `checkpoint_of` per snapshot, ms.
    pub encode_ms: Vec<f64>,
    /// `save_rotating` (CRC, atomic write, fsync, rotate) per snapshot, ms.
    pub write_ms: Vec<f64>,
    /// Encoded state bytes per snapshot.
    pub bytes: Vec<f64>,
    /// Snapshots one job writes at the cadence (0 for jobs shorter than
    /// one interval).
    pub per_job: u64,
    /// Each cell's result from its first checkpointed run.
    pub results: Vec<RunResult>,
}

impl CkptPass {
    /// Records the per-snapshot cost (encode plus write) and its parts.
    pub fn record(&self, r: &mut Report) {
        let total: Vec<f64> = self
            .encode_ms
            .iter()
            .zip(&self.write_ms)
            .map(|(e, w)| e + w)
            .collect();
        let n = total.len();
        r.set("ckpt_ms_p50", median(&total), n);
        r.set_tail("ckpt_ms_p95", tail(&total, 95.0), 1.0, n);
        r.set("core.checkpoint.encode_ms", median(&self.encode_ms), n);
        r.set("core.checkpoint.write_ms", median(&self.write_ms), n);
        r.set("core.checkpoint.bytes", median(&self.bytes), n);
        r.set("core.checkpoint.per_job", self.per_job as f64, 1);
    }
}

/// Runs every cell at least once, round-robin, until [`MIN_SNAPSHOTS`]
/// snapshots are timed. A job too short to reach one interval is
/// snapshotted once at its last operation instead. Each run's result must
/// render identically to `reference[cell]`; afterwards the first cell's
/// newest checkpoint is resumed once and must finish identically too.
///
/// # Errors
///
/// A cell that fails to build.
pub fn pass(
    cells: &[RunSpec],
    reference: &[String],
    dir: &Path,
    out: &mut Outcome,
) -> Result<CkptPass, String> {
    let mut pass = CkptPass::default();
    let mut mismatches = 0;
    let mut write_errors = 0;
    let mut runs = 0;
    for (i, spec) in (0..cells.len()).cycle().map(|i| (i, &cells[i])) {
        if runs >= cells.len() && pass.encode_ms.len() >= MIN_SNAPSHOTS {
            break;
        }
        let cell_dir = dir.join(format!("cell{i}"));
        let mut system = spec.build_system()?;
        system.begin(spec.insts);
        let mut cadence = 0;
        loop {
            let done = system.advance(EVERY);
            if !done || cadence == 0 {
                let t0 = Instant::now();
                let ckpt = spec.checkpoint_of(&system);
                let t1 = Instant::now();
                let written = ckpt.save_rotating(&cell_dir, CHECKPOINT_PREFIX, KEEP);
                let t2 = Instant::now();
                if let Err(e) = written {
                    eprintln!("perf: checkpoint into {}: {e}", cell_dir.display());
                    write_errors += 1;
                }
                pass.encode_ms.push((t1 - t0).as_secs_f64() * 1e3);
                pass.write_ms.push((t2 - t1).as_secs_f64() * 1e3);
                pass.bytes.push(ckpt.state.len() as f64);
                if !done {
                    cadence += 1;
                }
            }
            if done {
                break;
            }
        }
        let result = system.finish();
        if result.to_json().render() != reference[i] {
            mismatches += 1;
        }
        if runs < cells.len() {
            pass.per_job += cadence;
            pass.results.push(result);
        }
        runs += 1;
    }
    out.attempted += runs as u64;
    out.failed_ops += mismatches + write_errors;
    out.check(
        "checkpointed runs equal plain runs",
        mismatches == 0,
        format!(
            "{runs} runs, {} snapshots, {mismatches} mismatched",
            pass.encode_ms.len()
        ),
    );
    out.check(
        "checkpoints written",
        write_errors == 0,
        format!("{write_errors} write errors"),
    );
    let resumed = Checkpoint::latest_in(&dir.join("cell0"), CHECKPOINT_PREFIX)
        .map_err(|e| e.to_string())
        .and_then(|latest| latest.ok_or_else(|| "no checkpoint on disk".to_owned()))
        .and_then(|latest| resume_from(&latest).map_err(|e| e.to_string()))
        .map(|(_, result)| result.to_json().render());
    out.check(
        "resume_from(latest) equals the plain run",
        resumed.as_deref() == Ok(reference[0].as_str()),
        match &resumed {
            Ok(r) if *r == reference[0] => "identical".to_owned(),
            Ok(_) => "resumed result differs".to_owned(),
            Err(e) => e.clone(),
        },
    );
    Ok(pass)
}
