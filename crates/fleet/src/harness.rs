//! Self-forking harness support for fleet binaries.
//!
//! The fleet's CI gates and benches are hermetic single binaries: the
//! same executable acts as the coordinator's parent process *and* — when
//! re-invoked with `--shard` — as a worker shard speaking the
//! [`crate::shard::ShardLauncher`] spawn contract (`--port=0
//! --workers=N --queue-depth=N --journal-dir=DIR`, then `ADDR <addr>` on
//! stdout). No pre-built `baryon-cli`, fixed ports, or startup sleeps.
//!
//! [`GateFleet`] is the parent half every gate shares: it boots a fleet,
//! drives its HTTP surface with `Result<_, String>` diagnostics, and
//! tears it down.

use crate::coordinator::{Fleet, FleetConfig, FleetController};
use crate::shard::ShardLauncher;
use baryon_serve::client::Client;
use baryon_serve::{ServeConfig, Server};
use baryon_sim::json::{self, Json};
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// When invoked as `<exe> --shard --port=... --workers=... ...`, runs a
/// `baryon-serve` shard to completion and returns its exit code; returns
/// `None` when this invocation is not shard mode (the caller proceeds as
/// the parent harness).
pub fn maybe_run_shard() -> Option<ExitCode> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) != Some("--shard") {
        return None;
    }
    Some(run_shard(&args[1..]))
}

/// A launcher that re-invokes the current executable in `--shard` mode.
///
/// # Errors
///
/// Propagates `current_exe` resolution failures.
pub fn self_launcher(workers: usize, queue_depth: usize) -> io::Result<ShardLauncher> {
    Ok(ShardLauncher {
        program: std::env::current_exe()?,
        prefix_args: vec!["--shard".to_owned()],
        workers,
        queue_depth,
        policy_path: None,
        extra_env: Vec::new(),
    })
}

/// Parses `--key=value` shard flags onto a [`ServeConfig`].
///
/// # Errors
///
/// Describes the first malformed or unknown flag.
fn parse_shard_config(flags: &[String]) -> Result<ServeConfig, String> {
    let mut cfg = ServeConfig {
        port: 0,
        ..ServeConfig::default()
    };
    for flag in flags {
        let Some((key, value)) = flag.split_once('=') else {
            return Err(format!("flags are --key=value, got {flag:?}"));
        };
        let ok = match key {
            "--port" => value.parse().map(|p| cfg.port = p).is_ok(),
            "--workers" => value.parse().map(|w| cfg.workers = w).is_ok(),
            "--queue-depth" => value.parse().map(|q| cfg.queue_depth = q).is_ok(),
            "--journal-dir" => {
                cfg.journal_dir = Some(PathBuf::from(value));
                true
            }
            "--policy" => {
                let policy = baryon_core::policy::FleetPolicy::load(std::path::Path::new(value))
                    .map_err(|e| format!("cannot load policy {value:?}: {e}"))?;
                cfg.policy = Some(policy);
                true
            }
            _ => return Err(format!("unknown flag {key:?}")),
        };
        if !ok {
            return Err(format!("cannot parse {flag:?}"));
        }
    }
    Ok(cfg)
}

fn run_shard(flags: &[String]) -> ExitCode {
    let cfg = match parse_shard_config(flags) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("shard mode: {e}");
            return ExitCode::from(2);
        }
    };
    let server = match Server::bind(cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("shard cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Line-buffered stdout: the supervisor reads this line synchronously.
    println!("ADDR {}", server.local_addr());
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("shard server error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// How long [`GateFleet::await_status`] waits for a job to reach a state.
const AWAIT_DEADLINE: Duration = Duration::from_secs(240);

/// Pause between job-status polls.
const POLL: Duration = Duration::from_millis(10);

/// A live fleet under test: a coordinator bound on `cfg.port`, serving on
/// its own thread over shards spawned by the launcher.
///
/// Dropping it shuts the fleet down best-effort and removes the journal
/// root; [`GateFleet::finish`] does the same and reports what failed.
pub struct GateFleet {
    addr: SocketAddr,
    controller: FleetController,
    journal_root: PathBuf,
    serving: Option<JoinHandle<io::Result<()>>>,
}

impl GateFleet {
    /// Clears any stale `cfg.journal_root`, binds the coordinator, and
    /// starts serving.
    ///
    /// # Errors
    ///
    /// Describes a failed [`Fleet::bind`].
    pub fn boot(cfg: FleetConfig, launcher: ShardLauncher) -> Result<GateFleet, String> {
        let journal_root = cfg.journal_root.clone();
        let _ = std::fs::remove_dir_all(&journal_root);
        let fleet = Fleet::bind(cfg, launcher).map_err(|e| format!("fleet bind: {e}"))?;
        let addr = fleet.local_addr();
        let controller = fleet.controller();
        let serving = Some(std::thread::spawn(move || fleet.run()));
        Ok(GateFleet {
            addr,
            controller,
            journal_root,
            serving,
        })
    }

    /// The coordinator's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The in-process handle for shard kills, pauses, and counters.
    pub fn controller(&self) -> &FleetController {
        &self.controller
    }

    /// The root of the per-shard journal directories.
    pub fn journal_root(&self) -> &Path {
        &self.journal_root
    }

    /// A client whose read timeout outlasts a rolling restart.
    pub fn client(&self) -> Client {
        Client::new(self.addr).read_timeout(Duration::from_secs(120))
    }

    /// Sends one request and parses its JSON reply, which must carry
    /// `expect_status`.
    ///
    /// # Errors
    ///
    /// Transport failures, any other status, or a non-JSON body.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
        expect_status: u16,
    ) -> Result<Json, String> {
        let r = self
            .client()
            .request(method, path, body)
            .map_err(|e| format!("{method} {path}: {e}"))?;
        if r.status != expect_status {
            return Err(format!(
                "{method} {path}: expected {expect_status}, got {}: {}",
                r.status, r.body
            ));
        }
        json::parse(&r.body).map_err(|e| format!("{method} {path}: not JSON ({e}): {}", r.body))
    }

    /// Submits a job body (`202`) and returns its fleet id.
    ///
    /// # Errors
    ///
    /// A rejected submission or a reply without an id.
    pub fn submit(&self, body: &str, what: &str) -> Result<u64, String> {
        let doc = self
            .request("POST", "/v1/jobs", Some(body), 202)
            .map_err(|e| format!("{what} submit: {e}"))?;
        doc.get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{what}: 202 reply has no id: {}", doc.render()))
    }

    /// Polls the job until `predicate` holds on its status document.
    ///
    /// # Errors
    ///
    /// The job failing before `predicate` holds, or a timeout.
    pub fn await_status(
        &self,
        id: u64,
        what: &str,
        predicate: impl Fn(&Json) -> bool,
    ) -> Result<Json, String> {
        let deadline = Instant::now() + AWAIT_DEADLINE;
        loop {
            let doc = self.request("GET", &format!("/v1/jobs/{id}"), None, 200)?;
            if predicate(&doc) {
                return Ok(doc);
            }
            if doc.get("state").and_then(Json::as_str) == Some("failed") {
                return Err(format!(
                    "job {id} failed while waiting for {what}: {}",
                    doc.render()
                ));
            }
            if Instant::now() > deadline {
                return Err(format!("timed out waiting for {what}: {}", doc.render()));
            }
            std::thread::sleep(POLL);
        }
    }

    /// Awaits the job's `done` state and returns its result document.
    ///
    /// # Errors
    ///
    /// As [`GateFleet::await_status`], or a done job without a result.
    pub fn await_done(&self, id: u64, what: &str) -> Result<Json, String> {
        let status = self.await_status(id, &format!("{what} completion"), |doc| {
            doc.get("state").and_then(Json::as_str) == Some("done")
        })?;
        status
            .get("result")
            .cloned()
            .ok_or_else(|| format!("{what}: done without a result"))
    }

    /// Awaits the job's result and requires it to render exactly as
    /// `golden`.
    ///
    /// # Errors
    ///
    /// As [`GateFleet::await_done`], or a diverging result.
    pub fn await_identical(&self, id: u64, golden: &str, what: &str) -> Result<(), String> {
        let result = self.await_done(id, what)?.render();
        if result != golden {
            return Err(format!(
                "{what} diverged\n  golden: {golden}\n  fleet:  {result}"
            ));
        }
        Ok(())
    }

    /// One counter from `/v1/metrics`; 0 when it has not fired (a
    /// quarantined shard's namespace also drops out of the scrape).
    ///
    /// # Errors
    ///
    /// A failed scrape.
    pub fn counter(&self, key: &str) -> Result<u64, String> {
        let doc = self.request("GET", "/v1/metrics", None, 200)?;
        let counters = doc.get("counters").unwrap_or(&doc);
        Ok(counters.get(key).and_then(Json::as_u64).unwrap_or(0))
    }

    /// Polls a counter until `predicate` holds or `within` elapses;
    /// returns the last value either way.
    ///
    /// # Errors
    ///
    /// A failed scrape.
    pub fn await_counter(
        &self,
        key: &str,
        within: Duration,
        predicate: impl Fn(u64) -> bool,
    ) -> Result<u64, String> {
        let deadline = Instant::now() + within;
        loop {
            let value = self.counter(key)?;
            if predicate(value) || Instant::now() > deadline {
                return Ok(value);
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    }

    /// The `GET /v1/admin/config` document.
    ///
    /// # Errors
    ///
    /// A failed request.
    pub fn admin_config(&self) -> Result<Json, String> {
        self.request("GET", "/v1/admin/config", None, 200)
    }

    /// Shuts the fleet down, joins the serving thread, and removes the
    /// journal root.
    ///
    /// # Errors
    ///
    /// The first of a refused shutdown, a failed serve loop, or a failed
    /// cleanup.
    pub fn finish(mut self) -> Result<(), String> {
        // On a refused shutdown, Drop retries best-effort.
        self.request("POST", "/v1/shutdown", None, 200)?;
        if let Some(serving) = self.serving.take() {
            serving
                .join()
                .map_err(|_| "serving thread panicked".to_owned())?
                .map_err(|e| format!("fleet run: {e}"))?;
        }
        std::fs::remove_dir_all(&self.journal_root)
            .map_err(|e| format!("cleanup {}: {e}", self.journal_root.display()))
    }
}

impl Drop for GateFleet {
    fn drop(&mut self) {
        if let Some(serving) = self.serving.take() {
            let _ = Client::new(self.addr)
                .read_timeout(Duration::from_secs(10))
                .request("POST", "/v1/shutdown", None);
            let _ = serving.join();
        }
        let _ = std::fs::remove_dir_all(&self.journal_root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_launcher_speaks_the_spawn_contract() {
        let launcher = self_launcher(2, 16).expect("current exe resolves");
        assert_eq!(launcher.prefix_args, ["--shard"]);
        assert_eq!(launcher.workers, 2);
        assert_eq!(launcher.queue_depth, 16);
        assert!(launcher.program.is_absolute());
    }

    #[test]
    fn shard_flags_parse_onto_serve_config() {
        let flags: Vec<String> = [
            "--port=0",
            "--workers=3",
            "--queue-depth=9",
            "--journal-dir=/tmp/j",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let cfg = parse_shard_config(&flags).expect("well-formed");
        assert_eq!(cfg.port, 0);
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.queue_depth, 9);
        assert_eq!(
            cfg.journal_dir.as_deref(),
            Some(std::path::Path::new("/tmp/j"))
        );
    }

    #[test]
    fn policy_flag_loads_and_validates_the_file() {
        let dir =
            std::env::temp_dir().join(format!("baryon-harness-policy-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("policy.json");
        std::fs::write(&path, r#"{"generation":7,"scrub_interval":100000}"#).expect("write");
        let cfg = parse_shard_config(&[format!("--policy={}", path.display())]).expect("loads");
        let policy = cfg.policy.expect("policy set");
        assert_eq!(policy.generation, 7);
        assert_eq!(policy.scrub_interval, Some(100_000));
        // An invalid policy file is a parse error, not a panic.
        std::fs::write(&path, r#"{"commit_k":-1}"#).expect("write");
        let err = parse_shard_config(&[format!("--policy={}", path.display())])
            .expect_err("invalid policy");
        assert!(err.contains("cannot load policy"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_shard_flags_are_rejected() {
        for bad in ["--workers", "--workers=lots", "--turbo=1"] {
            let err = parse_shard_config(&[bad.to_owned()]).expect_err(bad);
            assert!(err.contains(bad.split('=').next().unwrap_or(bad)), "{err}");
        }
    }
}
