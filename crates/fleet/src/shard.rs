//! Worker-shard processes: spawn, health-check, kill, restart.
//!
//! A shard is any child process that accepts `baryon-serve`-style flags
//! (`--port=0 --workers=N --queue-depth=N --journal-dir=DIR`) and prints
//! `ADDR <socket-addr>` on stdout once its listener is bound — both
//! `baryon-cli serve` and the self-forking test gates speak this
//! contract. Every shard gets its own journal directory, so a restarted
//! shard replays its journal, re-enqueues never-started jobs, and resumes
//! interrupted runs from their checkpoints; the coordinator's dispatch
//! slots keep following the same shard-local job IDs at the new address.

use baryon_serve::client::Client;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How a shard process is launched. `prefix_args` come before the
/// standard serve flags (e.g. `["serve"]` for `baryon-cli`, or
/// `["--shard"]` for a self-forking gate binary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLauncher {
    /// The executable to spawn.
    pub program: PathBuf,
    /// Arguments before the standard serve flags.
    pub prefix_args: Vec<String>,
    /// Worker threads per shard.
    pub workers: usize,
    /// Bounded queue depth per shard.
    pub queue_depth: usize,
    /// Fleet-policy file every shard loads at boot (`--policy=PATH`);
    /// `None` runs the built-in baseline. Per-shard overrides during a
    /// rolling restart go through [`ShardSet::restart_with_policy`].
    pub policy_path: Option<PathBuf>,
    /// Extra environment variables for the child process. Chaos gates use
    /// this to scope `BARYON_CHAOS_*` fault injection to the shard
    /// processes only, keeping the coordinator itself on clean I/O.
    pub extra_env: Vec<(String, String)>,
}

impl ShardLauncher {
    /// Spawns one shard and waits for its `ADDR <addr>` line.
    ///
    /// # Errors
    ///
    /// Spawn failures, or `InvalidData` if the child exits (or closes
    /// stdout) before announcing its address.
    fn spawn(
        &self,
        journal_dir: &Path,
        policy_path: Option<&Path>,
    ) -> io::Result<(Child, SocketAddr)> {
        let mut command = Command::new(&self.program);
        command
            .args(&self.prefix_args)
            .arg("--port=0")
            .arg(format!("--workers={}", self.workers))
            .arg(format!("--queue-depth={}", self.queue_depth))
            .arg(format!("--journal-dir={}", journal_dir.display()));
        if let Some(path) = policy_path {
            command.arg(format!("--policy={}", path.display()));
        }
        for (key, value) in &self.extra_env {
            command.env(key, value);
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = child.stdout.take().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::BrokenPipe,
                "shard stdout pipe missing despite Stdio::piped",
            )
        })?;
        let mut reader = BufReader::new(stdout);
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "shard exited before announcing ADDR",
                ));
            }
            if let Some(addr) = line.trim().strip_prefix("ADDR ") {
                let addr: SocketAddr = addr.parse().map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("shard announced a malformed address {addr:?}: {e}"),
                    )
                })?;
                // Keep draining stdout so the shard never blocks on a full
                // pipe; its output is banner noise once ADDR is out.
                std::thread::spawn(move || {
                    let mut sink = io::sink();
                    let _ = io::copy(&mut reader, &mut sink);
                });
                return Ok((child, addr));
            }
        }
    }
}

/// One live shard slot.
struct Shard {
    child: Child,
    addr: SocketAddr,
    /// Bumps on every restart; lets concurrent observers tell incarnations
    /// apart.
    generation: u64,
    /// Consecutive failed health probes (reset on success).
    health_failures: u32,
    /// Policy file this incarnation booted with (may diverge from the
    /// launcher's during a rolling rollout); respawns reuse it.
    policy_path: Option<PathBuf>,
    /// Supervisor respawns and their backoff.
    crash_loop: CrashLoop,
}

/// One shard's crash-loop accounting, a pure function of its respawn
/// instants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CrashLoop {
    /// Supervisor respawns in a row, each within [`RESPAWN_WINDOW`] of
    /// the end of the previous one's backoff.
    streak: u32,
    /// When the last respawn's backoff ends: the supervisor does not
    /// respawn the shard before it.
    backoff_end: Option<Instant>,
}

impl CrashLoop {
    /// The streak a respawn at `now` would make. The window runs from the
    /// end of the previous backoff, so a backoff longer than the window
    /// cannot reset the streak that armed it.
    fn streak_at(&self, now: Instant) -> u32 {
        match self.backoff_end {
            Some(end) if now.saturating_duration_since(end) < RESPAWN_WINDOW => {
                self.streak.saturating_add(1)
            }
            _ => 1,
        }
    }

    /// Records a respawn of shard `index` at `now` and arms its backoff.
    fn respawned(&mut self, now: Instant, index: usize) {
        self.streak = self.streak_at(now);
        self.backoff_end = Some(now + respawn_backoff(self.streak, index));
    }
}

/// What [`ShardSet::restart`] did.
enum Restart {
    /// A fresh incarnation is up.
    Up,
    /// The respawn would have spent the crash-loop budget: the shard is
    /// killed and left down.
    Quarantined,
    /// Nothing is up: a lost race, or a failed spawn the next tick retries.
    Down,
}

/// Consecutive health-probe failures before a live-but-wedged shard is
/// killed and restarted.
const MAX_HEALTH_FAILURES: u32 = 5;

/// A respawn within this window of the end of the previous respawn's
/// backoff extends a crash loop.
const RESPAWN_WINDOW: Duration = Duration::from_secs(10);

/// First crash-loop backoff step; doubles per consecutive respawn.
const BACKOFF_BASE_MS: u64 = 500;

/// Crash-loop backoff ceiling.
const BACKOFF_CAP_MS: u64 = 30_000;

/// Default crash-loop budget: this many supervisor respawns in a row,
/// each within [`RESPAWN_WINDOW`] of the previous one's backoff ending,
/// quarantine the shard. Overridable via `BARYON_FLEET_QUARANTINE_AFTER`
/// (`0` disables quarantine entirely).
const QUARANTINE_AFTER_DEFAULT: u32 = 8;

/// The crash-loop budget from `BARYON_FLEET_QUARANTINE_AFTER`, falling
/// back to [`QUARANTINE_AFTER_DEFAULT`] when unset or unparseable.
fn quarantine_after_from_env() -> u32 {
    std::env::var("BARYON_FLEET_QUARANTINE_AFTER")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(QUARANTINE_AFTER_DEFAULT)
}

/// Crash-loop backoff for the `consecutive`-th respawn of shard `index`:
/// exponential from [`BACKOFF_BASE_MS`], capped at [`BACKOFF_CAP_MS`],
/// plus a small deterministic jitter keyed on the shard index so a fleet
/// of crash-looping shards does not respawn in lockstep. The first
/// respawn (`consecutive == 0` or `1`) is immediate.
pub fn respawn_backoff(consecutive: u32, index: usize) -> Duration {
    if consecutive <= 1 {
        return Duration::ZERO;
    }
    let exp = (consecutive - 2).min(63);
    let base = BACKOFF_BASE_MS
        .saturating_mul(1u64 << exp.min(16))
        .min(BACKOFF_CAP_MS);
    let jitter = (index as u64 * 31 + consecutive as u64 * 17) % 100;
    Duration::from_millis(base + jitter)
}

/// The fleet's shard processes: fixed count, each supervised and restarted
/// in place (same index, same journal directory, fresh ephemeral port).
pub struct ShardSet {
    launcher: ShardLauncher,
    journal_root: PathBuf,
    slots: Vec<Mutex<Shard>>,
    restarts: AtomicU64,
    /// Crash-loop budget before a shard is quarantined (0 = never).
    quarantine_after: u32,
}

impl ShardSet {
    /// Spawns `count` shards under `journal_root/shard<i>/`.
    ///
    /// # Errors
    ///
    /// The first spawn or journal-directory failure; already-spawned
    /// shards are killed before returning.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn spawn(
        launcher: ShardLauncher,
        journal_root: &Path,
        count: usize,
    ) -> io::Result<ShardSet> {
        assert!(count > 0, "a fleet needs at least one shard");
        let mut slots = Vec::with_capacity(count);
        for i in 0..count {
            let dir = journal_root.join(format!("shard{i}"));
            std::fs::create_dir_all(&dir)?;
            match launcher.spawn(&dir, launcher.policy_path.as_deref()) {
                Ok((child, addr)) => slots.push(Mutex::new(Shard {
                    child,
                    addr,
                    generation: 0,
                    health_failures: 0,
                    policy_path: launcher.policy_path.clone(),
                    crash_loop: CrashLoop::default(),
                })),
                Err(e) => {
                    for slot in &slots {
                        let mut shard = slot.lock().expect("shard lock poisoned");
                        let _ = shard.child.kill();
                        let _ = shard.child.wait();
                    }
                    return Err(e);
                }
            }
        }
        Ok(ShardSet {
            launcher,
            journal_root: journal_root.to_path_buf(),
            slots,
            restarts: AtomicU64::new(0),
            quarantine_after: quarantine_after_from_env(),
        })
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Always false — a spawned set has at least one shard.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The shard's current address (changes across restarts).
    pub fn addr(&self, index: usize) -> SocketAddr {
        self.slots[index].lock().expect("shard lock poisoned").addr
    }

    /// A typed client for the shard, with retries tuned for the
    /// coordinator's dispatch path (backpressure is expected under load).
    pub fn client(&self, index: usize) -> Client {
        Client::new(self.addr(index))
            .connect_timeout(Duration::from_millis(500))
            .read_timeout(Duration::from_secs(30))
            .retries(2)
            .backoff_base(Duration::from_millis(50))
    }

    /// Total restarts performed across all shards.
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// The shard's remaining crash-loop backoff in milliseconds (0 when it
    /// is not backing off). Exported as `fleet.shard<i>.respawn_backoff_ms`.
    pub fn respawn_backoff_ms(&self, index: usize) -> u64 {
        let shard = self.slots[index].lock().expect("shard lock poisoned");
        shard.crash_loop.backoff_end.map_or(0, |end| {
            end.saturating_duration_since(Instant::now())
                .as_millis()
                .min(u128::from(u64::MAX)) as u64
        })
    }

    /// Chaos hook: SIGKILL the shard's current process. The supervisor's
    /// next tick restarts it (journal replay resumes its jobs).
    ///
    /// # Errors
    ///
    /// Propagates the kill failure (e.g. already reaped).
    pub fn kill(&self, index: usize) -> io::Result<()> {
        let mut shard = self.slots[index].lock().expect("shard lock poisoned");
        shard.child.kill()
    }

    /// One supervisor tick over the shards `skip` does not hold out of
    /// rotation: restart exited shards, probe the rest, and kill and
    /// restart any shard failing [`MAX_HEALTH_FAILURES`] consecutive
    /// probes. Returns the shards that blew through their crash-loop
    /// budget (`BARYON_FLEET_QUARANTINE_AFTER` rapid respawns) and were
    /// left down instead of respawned: the caller quarantines them.
    pub fn check_and_restart(&self, skip: impl Fn(usize) -> bool) -> Vec<usize> {
        let mut quarantined = Vec::new();
        for (i, slot) in self.slots.iter().enumerate() {
            if skip(i) {
                continue; // owned by the rollout engine, or quarantined
            }
            // Probe without holding the lock — a slow shard must not
            // block address lookups on the dispatch path.
            let (addr, generation, dead) = {
                let mut shard = slot.lock().expect("shard lock poisoned");
                if shard
                    .crash_loop
                    .backoff_end
                    .is_some_and(|end| Instant::now() < end)
                {
                    continue; // crash-looping; let the backoff elapse
                }
                let dead = matches!(shard.child.try_wait(), Ok(Some(_)));
                (shard.addr, shard.generation, dead)
            };
            let unhealthy = if dead {
                true
            } else {
                let probe = Client::new(addr)
                    .connect_timeout(Duration::from_millis(250))
                    .read_timeout(Duration::from_millis(500))
                    .healthz();
                let mut shard = slot.lock().expect("shard lock poisoned");
                if shard.generation != generation {
                    continue; // restarted concurrently; leave it be
                }
                match probe {
                    Ok(()) => {
                        shard.health_failures = 0;
                        false
                    }
                    Err(_) => {
                        shard.health_failures += 1;
                        shard.health_failures >= MAX_HEALTH_FAILURES
                    }
                }
            };
            if !unhealthy {
                continue;
            }
            match self.restart(i, generation) {
                Restart::Up => {
                    self.restarts.fetch_add(1, Ordering::Relaxed);
                }
                Restart::Quarantined => quarantined.push(i),
                Restart::Down => {}
            }
        }
        quarantined
    }

    /// Kills (if still alive) and respawns the shard on its journal
    /// directory, keeping its current policy file. Each respawn extends or
    /// restarts the shard's crash loop ([`CrashLoop`]) and arms its
    /// backoff; a respawn that would spend the quarantine budget kills the
    /// shard and leaves it down instead.
    fn restart(&self, index: usize, expected_generation: u64) -> Restart {
        let policy_path = {
            let mut shard = self.slots[index].lock().expect("shard lock poisoned");
            if shard.generation != expected_generation {
                return Restart::Down;
            }
            // Spend the crash-loop budget before paying for a spawn: if
            // this respawn would be the one that exhausts it, retire the
            // shard now — the coordinator requeues its cells.
            let streak = shard.crash_loop.streak_at(Instant::now());
            if self.quarantine_after > 0 && streak >= self.quarantine_after {
                let _ = shard.child.kill();
                let _ = shard.child.wait();
                eprintln!("baryon-fleet: shard {index} quarantined after {streak} rapid respawns");
                return Restart::Quarantined;
            }
            shard.policy_path.clone()
        };
        let dir = self.journal_root.join(format!("shard{index}"));
        let spawned = self.launcher.spawn(&dir, policy_path.as_deref());
        let mut shard = self.slots[index].lock().expect("shard lock poisoned");
        if shard.generation != expected_generation {
            // Lost the race; throw the extra child away.
            if let Ok((mut child, _)) = spawned {
                let _ = child.kill();
                let _ = child.wait();
            }
            return Restart::Down;
        }
        let _ = shard.child.kill();
        let _ = shard.child.wait();
        shard.crash_loop.respawned(Instant::now(), index);
        match spawned {
            Ok((child, addr)) => {
                shard.child = child;
                shard.addr = addr;
                shard.generation += 1;
                shard.health_failures = 0;
                Restart::Up
            }
            Err(e) => {
                // The old child is dead and the new one would not come up;
                // the next tick retries once the backoff elapses.
                eprintln!("baryon-fleet: shard {index} restart failed: {e}");
                Restart::Down
            }
        }
    }

    /// Rolling-rollout restart: politely shuts the shard down (it should
    /// be paused and drained first), respawns it with `policy_path`, and
    /// records that path for future supervisor respawns. Unlike the
    /// supervisor path this is deliberate, so it resets crash-loop
    /// accounting and does not count toward `fleet.shards.restarts`; it is
    /// the one way back for a quarantined shard.
    ///
    /// # Errors
    ///
    /// The respawn failure; on error the old process is already gone and
    /// the slot keeps its previous address — the caller must either retry
    /// or roll the fleet back.
    pub fn restart_with_policy(
        &self,
        index: usize,
        policy_path: Option<PathBuf>,
    ) -> io::Result<()> {
        let mut shard = self.slots[index].lock().expect("shard lock poisoned");
        let _ = Client::new(shard.addr)
            .connect_timeout(Duration::from_millis(500))
            .read_timeout(Duration::from_secs(5))
            .request("POST", "/v1/shutdown", None);
        // Reap the old incarnation before touching the shared journal
        // directory — two writers on one journal is corruption.
        let _ = shard.child.kill();
        let _ = shard.child.wait();
        let dir = self.journal_root.join(format!("shard{index}"));
        // A rolling restart is a *planned* restart: the coordinator
        // drained the shard first, so every in-flight cell is already
        // accounted for upstream (landed, staged, or requeued). Start the
        // new incarnation on a clean journal — replaying the old one
        // would resurrect and re-run jobs the fleet already owns, and a
        // resurrected job can share an id with a fresh dispatch. Crash
        // respawns (`restart`) keep the journal: replay is exactly right
        // when nobody drained the shard.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        let (child, addr) = self.launcher.spawn(&dir, policy_path.as_deref())?;
        shard.child = child;
        shard.addr = addr;
        shard.generation += 1;
        shard.health_failures = 0;
        shard.policy_path = policy_path;
        shard.crash_loop = CrashLoop::default();
        Ok(())
    }

    /// Gracefully shuts every shard down (`POST /v1/shutdown`, then reap;
    /// kill on a deaf shard).
    pub fn shutdown(&self) {
        for slot in &self.slots {
            let mut shard = slot.lock().expect("shard lock poisoned");
            let polite = Client::new(shard.addr)
                .connect_timeout(Duration::from_millis(500))
                .read_timeout(Duration::from_secs(5))
                .request("POST", "/v1/shutdown", None)
                .is_ok();
            if !polite {
                let _ = shard.child.kill();
            }
            let _ = shard.child.wait();
        }
    }
}

impl Drop for ShardSet {
    fn drop(&mut self) {
        for slot in &self.slots {
            if let Ok(mut shard) = slot.lock() {
                let _ = shard.child.kill();
                let _ = shard.child.wait();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_contract_rejects_a_silent_child() {
        // `true` exits immediately without printing ADDR.
        let launcher = ShardLauncher {
            program: PathBuf::from("/bin/true"),
            prefix_args: Vec::new(),
            workers: 1,
            queue_depth: 4,
            policy_path: None,
            extra_env: Vec::new(),
        };
        let dir = std::env::temp_dir().join("baryon-fleet-spawn-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let err = launcher
            .spawn(&dir, None)
            .expect_err("no ADDR line ever comes");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn quarantine_budget_reads_env_with_a_sane_default() {
        // No test in this binary sets the variable, so the default shows.
        assert_eq!(quarantine_after_from_env(), QUARANTINE_AFTER_DEFAULT);
        // One crash must never retire a shard.
        const _: () = assert!(QUARANTINE_AFTER_DEFAULT > 1);
    }

    /// A shard that dies right after every respawn, respawned by a 500 ms
    /// supervisor tick once each backoff ends: returns how long after the
    /// first death it is quarantined under `budget`, if within 600 s.
    fn quarantined_after(budget: u32) -> Option<Duration> {
        let start = Instant::now();
        let tick = Duration::from_millis(500);
        let mut crash_loop = CrashLoop::default();
        let mut now = start;
        while now - start < Duration::from_secs(600) {
            if crash_loop.streak_at(now) >= budget {
                return Some(now - start);
            }
            crash_loop.respawned(now, 0);
            let end = crash_loop.backoff_end.expect("armed");
            // The first tick at or after the backoff's end.
            while now < end {
                now += tick;
            }
        }
        None
    }

    #[test]
    fn every_budget_up_to_the_default_quarantines_a_crash_looping_shard() {
        for budget in 2..=QUARANTINE_AFTER_DEFAULT {
            let after = quarantined_after(budget)
                .unwrap_or_else(|| panic!("budget {budget} never quarantines"));
            assert!(
                after < Duration::from_secs(120),
                "budget {budget}: {after:?}"
            );
        }
        // The streak survives a backoff longer than the window...
        assert!(respawn_backoff(QUARANTINE_AFTER_DEFAULT - 1, 0) > RESPAWN_WINDOW);
        // ...and resets once the shard stays up past it.
        let start = Instant::now();
        let mut crash_loop = CrashLoop::default();
        crash_loop.respawned(start, 0);
        crash_loop.respawned(start + Duration::from_secs(1), 0);
        assert_eq!(crash_loop.streak, 2);
        assert_eq!(crash_loop.streak_at(start + Duration::from_secs(60)), 1);
    }

    #[test]
    fn backoff_is_zero_then_exponential_then_capped() {
        assert_eq!(respawn_backoff(0, 0), Duration::ZERO);
        assert_eq!(
            respawn_backoff(1, 0),
            Duration::ZERO,
            "first respawn is free"
        );
        let steps: Vec<u64> = (2..=10)
            .map(|c| respawn_backoff(c, 0).as_millis() as u64)
            .collect();
        assert!(
            steps[0] >= 500 && steps[0] < 600,
            "first backoff ~base: {steps:?}"
        );
        for pair in steps.windows(2) {
            assert!(pair[1] >= pair[0], "monotone: {steps:?}");
        }
        assert!(
            respawn_backoff(60, 0).as_millis() as u64 <= BACKOFF_CAP_MS + 100,
            "capped"
        );
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_spread_by_index() {
        for consecutive in 2..6 {
            for index in 0..4 {
                assert_eq!(
                    respawn_backoff(consecutive, index),
                    respawn_backoff(consecutive, index),
                    "deterministic"
                );
            }
        }
        assert_ne!(
            respawn_backoff(3, 0),
            respawn_backoff(3, 1),
            "different shards get different jitter"
        );
    }
}
