//! `kill_resume` — the crash-recovery CI gate.
//!
//! Proves the durability story end to end across a real process boundary:
//!
//! 1. compute the golden result of a run spec in-process,
//! 2. spawn a `baryon-serve` child bound to a journal directory and
//!    submit the same spec over HTTP,
//! 3. `SIGKILL` the child as soon as the job has written a checkpoint
//!    (so it dies mid-run, never gracefully),
//! 4. restart a child on the *same* journal directory,
//! 5. require the recovered job to finish with the byte-identical result
//!    document, and the metrics to report the recovery.
//!
//! The harness is its own server: invoked with `--child <dir>` it binds an
//! ephemeral port, prints `ADDR <addr>` and serves until killed. That
//! keeps the gate hermetic — no curl, no fixed ports, no sleep-based
//! synchronization with another binary's startup.
//!
//! ```text
//! cargo run --release -p baryon-serve --bin kill_resume
//! ```
//!
//! Exits non-zero with a diagnostic on any divergence; `scripts/ci.sh`
//! runs it as the crash-recovery gate.

use baryon_bench::spec::RunSpec;
use baryon_serve::client;
use baryon_serve::{ServeConfig, Server};
use baryon_sim::json::{parse, Json};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Checkpoint cadence forced onto the children: small enough that the
/// first checkpoint lands within the first few percent of the run.
const CHECKPOINT_EVERY: &str = "10000";

const POLL: Duration = Duration::from_millis(5);
const DEADLINE: Duration = Duration::from_secs(120);

/// Long enough that the run cannot finish before the first checkpoint is
/// observed and the process killed (the full run takes seconds; the first
/// checkpoint lands in milliseconds).
fn gate_spec() -> RunSpec {
    RunSpec {
        workload: "ycsb-a".to_owned(),
        controller: "baryon".to_owned(),
        insts: 200_000,
        warmup: 40_000,
        scale: 1024,
        seed: 7,
        mlp: 1,
        telemetry: false,
        threads: 1,
        ..RunSpec::default()
    }
}

/// Child mode: serve on an ephemeral port until killed.
fn serve_child(dir: &Path) -> ExitCode {
    let server = match Server::bind(ServeConfig {
        port: 0,
        workers: 1,
        queue_depth: 8,
        journal_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    }) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("child cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Rust's stdout is line-buffered, so the parent sees this immediately.
    println!("ADDR {}", server.local_addr());
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("child server error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Spawns a child incarnation on `dir` and reads its bound address.
fn spawn_server(dir: &Path) -> Result<(Child, SocketAddr), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .arg("--child")
        .arg(dir)
        .env("BARYON_SERVE_CHECKPOINT_EVERY", CHECKPOINT_EVERY)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn child: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .map_err(|e| format!("read child address: {e}"))?;
    let addr = line
        .strip_prefix("ADDR ")
        .and_then(|a| a.trim().parse().ok())
        .ok_or_else(|| format!("child printed {line:?}, expected `ADDR <addr>`"))?;
    Ok((child, addr))
}

fn get(addr: SocketAddr, path: &str) -> Result<client::ClientResponse, String> {
    client::request(addr, "GET", path, None).map_err(|e| format!("GET {path}: {e}"))
}

/// Polls job 1 until it leaves `queued`/`running`, then requires `done`
/// and returns the full status body.
fn await_done(addr: SocketAddr) -> Result<String, String> {
    let deadline = Instant::now() + DEADLINE;
    loop {
        let r = get(addr, "/v1/jobs/1")?;
        if r.status != 200 {
            return Err(format!("job status {}: {}", r.status, r.body));
        }
        if r.body.contains("\"state\":\"queued\"") || r.body.contains("\"state\":\"running\"") {
            if Instant::now() > deadline {
                return Err(format!("job stuck: {}", r.body));
            }
            std::thread::sleep(POLL);
            continue;
        }
        if !r.body.contains("\"state\":\"done\"") {
            return Err(format!("job did not finish cleanly: {}", r.body));
        }
        return Ok(r.body);
    }
}

fn run_gate() -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!("baryon-kill-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let spec = gate_spec();
    let golden = spec
        .execute()
        .map_err(|e| format!("golden run: {e}"))?
        .to_json()
        .render();

    // First incarnation: submit, wait for a checkpoint, kill -9.
    let (mut child, addr) = spawn_server(&dir)?;
    let accepted = client::request(addr, "POST", "/v1/jobs", Some(&spec.to_json().render()))
        .map_err(|e| format!("submit: {e}"))?;
    if accepted.status != 202 {
        return Err(format!("submit {}: {}", accepted.status, accepted.body));
    }
    let ckpt_dir = dir.join("ckpt-1");
    let deadline = Instant::now() + DEADLINE;
    loop {
        let has_checkpoint = std::fs::read_dir(&ckpt_dir)
            .map(|mut entries| entries.next().is_some())
            .unwrap_or(false);
        if has_checkpoint {
            break;
        }
        let status = get(addr, "/v1/jobs/1")?;
        if !status.body.contains("\"state\":\"queued\"")
            && !status.body.contains("\"state\":\"running\"")
        {
            return Err(format!(
                "job settled before the harness could interrupt it \
                 (raise insts or lower the checkpoint cadence): {}",
                status.body
            ));
        }
        if Instant::now() > deadline {
            return Err("no checkpoint appeared before the deadline".to_owned());
        }
        std::thread::sleep(POLL);
    }
    child.kill().map_err(|e| format!("SIGKILL child: {e}"))?;
    child.wait().map_err(|e| format!("reap child: {e}"))?;
    println!("killed mid-run with a checkpoint on disk; restarting on the same journal");

    // Second incarnation, same journal directory: the job must recover,
    // resume, and land on the golden result.
    let (mut child, addr) = spawn_server(&dir)?;
    let outcome = (|| {
        let status = await_done(addr)?;
        let recovered = parse(&status)
            .map_err(|e| format!("status is not JSON ({e}): {status}"))?
            .get("result")
            .map(Json::render)
            .ok_or_else(|| format!("no result in {status}"))?;
        if recovered != golden {
            return Err(format!(
                "recovered result diverged from the uninterrupted run\n  golden:    {golden}\n  recovered: {recovered}"
            ));
        }
        let metrics = get(addr, "/v1/metrics")?;
        if !metrics.body.contains("\"serve.jobs.recovered\":1") {
            return Err(format!(
                "metrics do not report the recovery: {}",
                metrics.body
            ));
        }
        let r = client::request(addr, "POST", "/v1/shutdown", None)
            .map_err(|e| format!("shutdown: {e}"))?;
        if r.status != 200 {
            return Err(format!("shutdown {}: {}", r.status, r.body));
        }
        Ok(())
    })();
    if outcome.is_err() {
        let _ = child.kill();
    }
    child.wait().map_err(|e| format!("reap child: {e}"))?;
    outcome?;

    std::fs::remove_dir_all(&dir).map_err(|e| format!("cleanup {}: {e}", dir.display()))?;
    println!("kill-resume OK: recovered job matches the uninterrupted run byte-for-byte");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, dir] = args.as_slice() {
        if flag == "--child" {
            return serve_child(&PathBuf::from(dir));
        }
    }
    if !args.is_empty() {
        eprintln!("usage: kill_resume          (run the gate)\n       kill_resume --child DIR");
        return ExitCode::from(2);
    }
    match run_gate() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("kill-resume gate failed: {e}");
            ExitCode::FAILURE
        }
    }
}
