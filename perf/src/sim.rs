//! `sim-kv` and `sim-cnn`: back-to-back in-process `System::run`s of one
//! `RunSpec`, a checkpointed replay, and a child process for peak memory.

use crate::ckpt;
use crate::stats::{fnv1a, median, Tail};
use crate::trace;
use crate::workload::{Outcome, Workload};
use baryon_bench::spec::RunSpec;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// `RunSpec::build_system` timings per run; the median is `setup_s`.
const SETUP_REPEATS: usize = 21;

/// Runs one sim workload for `window`.
///
/// # Errors
///
/// A spec that fails to build or a child that cannot be run.
pub fn run(
    workload: Workload,
    seed: u64,
    window: Duration,
    traced: bool,
    work: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::new(workload, window);
    let cells = workload.cells(seed);
    let spec = &cells[0];

    // The untimed warm-up pass doubles as the reference result.
    let plain = spec.execute()?;
    let reference = plain.to_json().render();
    out.digest = fnv1a(reference.as_bytes());

    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let system = spec.build_system()?;
        setup.push(t.elapsed().as_secs_f64());
        drop(system);
    }

    let mut walls = Vec::new();
    let mut mismatches = 0;
    let start = Instant::now();
    while walls.is_empty() || start.elapsed() < window {
        let mut system = spec.build_system()?;
        let t = Instant::now();
        let result = system.run(spec.insts);
        walls.push(t.elapsed().as_secs_f64());
        if result.to_json().render() != reference {
            mismatches += 1;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    out.attempted += walls.len() as u64;
    out.failed_ops += mismatches;
    out.check(
        "timed repeats render the warm-up result",
        mismatches == 0,
        format!(
            "{} runs, {mismatches} differ; digest {}",
            walls.len(),
            out.digest
        ),
    );

    let ck = ckpt::pass(&cells, &[reference], &work.join("ckpt"), &mut out)?;
    let (rss_kb, child_digest) = child_peak_rss(spec)?;
    out.check(
        "child process renders the same result",
        child_digest == out.digest,
        format!("child digest {child_digest}"),
    );

    let r = &mut out.report;
    let n = walls.len();
    let minst: Vec<f64> = walls
        .iter()
        .map(|w| plain.instructions as f64 / w / 1e6)
        .collect();
    r.set("sim_minst_per_s", median(&minst), n);
    r.set("setup_s", median(&setup), setup.len());
    r.set("peak_rss_mb", rss_kb as f64 / 1024.0, 1);
    ck.record(r);
    r.set("lat_p50_ms", median(&walls) * 1e3, n);
    // Every run repeats the same deterministic work, so the spread of
    // their walls is host jitter (multi-second episodes ~50% slower on a
    // shared host), not a tail of the simulator's own: the median stands
    // in for the tail here.
    let typical = Tail {
        percentile: 50.0,
        value: median(&walls),
    };
    r.set_tail("lat_p95_ms", typical, 1e3, n);
    r.set("jobs_per_s", n as f64 / elapsed, n);
    r.set("cells_per_s", n as f64 / elapsed, n);
    r.set("sweep_p50_s", median(&walls), n);

    if traced {
        let plain = std::slice::from_ref(&plain);
        trace::record(&cells, plain, window / 2, &mut out)?;
    }
    Ok(out)
}

/// The flag that makes this binary run one spec and report its peak RSS.
pub const RSS_CHILD_FLAG: &str = "--rss-child";

/// Re-executes this binary on `spec` and returns the child's `VmHWM` (kB)
/// and result digest.
fn child_peak_rss(spec: &RunSpec) -> Result<(u64, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let output = Command::new(exe)
        .arg(RSS_CHILD_FLAG)
        .arg(spec.to_json().render())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("peak-RSS child: {e}"))?;
    if !output.status.success() {
        return Err(format!("peak-RSS child exited with {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let mut words = text.split_whitespace();
    match (
        words.next(),
        words.next().and_then(|kb| kb.parse().ok()),
        words.next(),
    ) {
        (Some("vmhwm_kb"), Some(kb), Some(digest)) => Ok((kb, digest.to_owned())),
        _ => Err(format!("peak-RSS child printed {text:?}")),
    }
}

/// The child side of [`child_peak_rss`]: runs the spec given as JSON and
/// prints `vmhwm_kb <kB> <digest>`.
///
/// # Errors
///
/// A malformed spec or an unreadable `/proc/self/status`.
pub fn rss_child(spec_json: &str) -> Result<(), String> {
    let doc = baryon_sim::json::parse(spec_json).map_err(|e| e.to_string())?;
    let spec = RunSpec::from_json(&doc)?;
    let digest = fnv1a(spec.execute()?.to_json().render().as_bytes());
    let kb = vm_hwm_kb("self").ok_or("no VmHWM in /proc/self/status")?;
    println!("vmhwm_kb {kb} {digest}");
    Ok(())
}

/// Peak resident set (`VmHWM`, kB) of `/proc/<pid>`.
pub fn vm_hwm_kb(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_peak_rss_is_readable() {
        let kb = vm_hwm_kb("self").expect("procfs");
        assert!(kb > 0);
    }
}
