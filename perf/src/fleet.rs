//! `fleet-trivial` and `fleet-sweep`: closed-loop clients against a live
//! coordinator with two self-launched shard processes.
//!
//! The coordinator runs in this process and the shards are this binary
//! re-executed in `--shard` mode, so both are part of the system under
//! test. Load comes from at most two client threads, each with at most one
//! open connection.

use crate::ckpt;
use crate::jsonpath::{self, as_num, field, get, str_at, u64_at};
use crate::sim::vm_hwm_kb;
use crate::stats::{fnv1a, median, tail};
use crate::trace;
use crate::workload::{Outcome, Workload};
use baryon_bench::spec::JobSpec;
use baryon_fleet::coordinator::{Fleet, FleetConfig};
use baryon_fleet::harness;
use baryon_serve::client::Client;
use baryon_serve::{ServeConfig, Server};
use baryon_sim::json::{self, Json};
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shard processes per fleet, one worker each: one per core.
const SHARDS: usize = 2;

/// Fleets bound per run; the median bind-to-healthy time is `setup_s` and
/// the last fleet serves the window.
const SETUP_REPEATS: usize = 3;

/// A job that has not settled by then is a failed operation.
const JOB_TIMEOUT: Duration = Duration::from_secs(120);

/// Clients and their status-poll interval.
#[derive(Debug, Clone, Copy)]
struct Load {
    clients: usize,
    poll: Duration,
}

fn load(workload: Workload) -> Load {
    match workload {
        Workload::FleetSweep => Load {
            clients: 1,
            poll: Duration::from_millis(10),
        },
        _ => Load {
            clients: 2,
            poll: Duration::from_millis(2),
        },
    }
}

/// One client request from POST to settlement. Times are seconds.
#[derive(Debug, Clone, Default)]
struct JobSpan {
    client: usize,
    id: Option<u64>,
    /// When the POST started, since the loop's epoch.
    submit: f64,
    /// POST → 202.
    admit: Option<f64>,
    /// Each status poll: (sent, since submit; round trip).
    polls: Vec<(f64, f64)>,
    /// Since submit, when a status reply first counted each finished cell.
    cells: Vec<f64>,
    /// Since submit, the first status reply that read `done`.
    done: Option<f64>,
    /// `done`, `failed`, `cancelled`, `refused <status>`, `timeout` or an
    /// error.
    state: String,
    /// The result equals the in-process reference.
    correct: bool,
}

impl JobSpan {
    fn ok(&self) -> bool {
        self.done.is_some() && self.correct
    }

    fn to_json(&self, workload: Workload) -> Json {
        let ms = |s: f64| Json::F64(s * 1e3);
        let pairs = vec![
            ("workload".to_owned(), Json::from(workload.name())),
            ("client".to_owned(), Json::from(self.client)),
            ("id".to_owned(), self.id.map_or(Json::Null, Json::from)),
            ("submit_ms".to_owned(), ms(self.submit)),
            ("admit_ms".to_owned(), self.admit.map_or(Json::Null, ms)),
            (
                "polls_ms".to_owned(),
                Json::arr(
                    self.polls
                        .iter()
                        .map(|(at, rtt)| Json::arr([ms(*at), ms(*rtt)])),
                ),
            ),
            (
                "cells_ms".to_owned(),
                Json::arr(self.cells.iter().map(|c| ms(*c))),
            ),
            ("done_ms".to_owned(), self.done.map_or(Json::Null, ms)),
            ("state".to_owned(), Json::from(self.state.as_str())),
            ("correct".to_owned(), Json::Bool(self.correct)),
        ];
        Json::Obj(pairs)
    }
}

/// Submits `body`, then polls its status every `poll` until it settles.
fn one_job(
    client: &Client,
    index: usize,
    body: &str,
    expected: &str,
    poll: Duration,
    epoch: Instant,
) -> JobSpan {
    let t0 = Instant::now();
    let mut span = JobSpan {
        client: index,
        submit: (t0 - epoch).as_secs_f64(),
        ..JobSpan::default()
    };
    let id = match client.request("POST", "/v1/jobs", Some(body)) {
        Ok(r) if r.status == 202 => json::parse(&r.body).ok().and_then(|d| u64_at(&d, "id")),
        Ok(r) => {
            span.state = format!("refused {}", r.status);
            return span;
        }
        Err(e) => {
            span.state = format!("submit error: {e}");
            return span;
        }
    };
    let Some(id) = id else {
        span.state = "unreadable 202 body".to_owned();
        return span;
    };
    span.id = Some(id);
    span.admit = Some(t0.elapsed().as_secs_f64());
    let path = format!("/v1/jobs/{id}");
    loop {
        std::thread::sleep(poll);
        let sent = t0.elapsed().as_secs_f64();
        let reply = client.request("GET", &path, None);
        let at = t0.elapsed().as_secs_f64();
        span.polls.push((sent, at - sent));
        let doc = match reply {
            Ok(r) if r.status == 200 => json::parse(&r.body).ok(),
            _ => None,
        };
        if let Some(doc) = doc {
            let cells = u64_at(&doc, "cells_done").unwrap_or(0) as usize;
            while span.cells.len() < cells {
                span.cells.push(at);
            }
            match str_at(&doc, "state") {
                Some("done") => {
                    span.done = Some(at);
                    span.correct =
                        get(&doc, "result").map(Json::render).as_deref() == Some(expected);
                    span.state = "done".to_owned();
                    return span;
                }
                Some(state @ ("failed" | "cancelled")) => {
                    span.state = state.to_owned();
                    return span;
                }
                _ => {}
            }
        }
        if t0.elapsed() > JOB_TIMEOUT {
            span.state = "timeout".to_owned();
            return span;
        }
    }
}

/// `load.clients` closed-loop clients: each sends its next job only after
/// the previous one settled, until `window` has passed (one job each when
/// `window` is `None`).
fn closed_loop(
    addr: SocketAddr,
    body: &str,
    expected: &str,
    load: Load,
    window: Option<Duration>,
) -> Vec<JobSpan> {
    let epoch = Instant::now();
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..load.clients)
            .map(|index| {
                s.spawn(move || {
                    let client = Client::new(addr)
                        .connect_timeout(Duration::from_secs(5))
                        .read_timeout(Duration::from_secs(60));
                    let mut spans = Vec::new();
                    loop {
                        spans.push(one_job(&client, index, body, expected, load.poll, epoch));
                        if window.is_none_or(|w| epoch.elapsed() >= w) {
                            return spans;
                        }
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect()
    })
}

/// A coordinator serving on a background thread.
struct RunningFleet {
    addr: SocketAddr,
    serving: Option<JoinHandle<io::Result<()>>>,
}

impl RunningFleet {
    /// Binds a fleet over a fresh journal root and waits until its
    /// `/v1/healthz` answers 200; returns it with the seconds that took.
    fn start(journal_root: &Path) -> Result<(RunningFleet, f64), String> {
        let t = Instant::now();
        let launcher = harness::self_launcher(1, 16).map_err(|e| format!("launcher: {e}"))?;
        let fleet = Fleet::bind(
            FleetConfig {
                port: 0,
                shards: SHARDS,
                workers_per_shard: 1,
                shard_queue_depth: 16,
                queue_cap: 64,
                max_in_flight_per_client: 4,
                journal_root: journal_root.to_path_buf(),
            },
            launcher,
        )
        .map_err(|e| format!("fleet bind: {e}"))?;
        let addr = fleet.local_addr();
        let running = RunningFleet {
            addr,
            serving: Some(std::thread::spawn(move || fleet.run())),
        };
        let probe = Client::new(addr)
            .connect_timeout(Duration::from_secs(1))
            .read_timeout(Duration::from_secs(5));
        while probe.healthz().is_err() {
            if t.elapsed() > Duration::from_secs(60) {
                return Err("fleet never became healthy".to_owned());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok((running, t.elapsed().as_secs_f64()))
    }

    /// Shuts the coordinator and its shards down and waits for them.
    fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(serving) = self.serving.take() else {
            return Ok(());
        };
        Client::new(self.addr)
            .request("POST", "/v1/shutdown", None)
            .map_err(|e| format!("fleet shutdown: {e}"))?;
        serving
            .join()
            .map_err(|_| "fleet thread panicked".to_owned())?
            .map_err(|e| format!("fleet run: {e}"))
    }
}

impl Drop for RunningFleet {
    fn drop(&mut self) {
        if let Err(e) = self.shutdown() {
            eprintln!("perf: {e}");
        }
    }
}

/// The largest `VmHWM` (kB) among this process's children — the shards.
fn shard_peak_rss_kb() -> Option<u64> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("children")).ok())
        .flat_map(|list| {
            list.split_whitespace()
                .map(str::to_owned)
                .collect::<Vec<_>>()
        })
        .filter_map(|pid| vm_hwm_kb(&pid))
        .max()
}

/// A counter of a `/v1/metrics` document (0 when absent).
fn counter(metrics: &Json, name: &str) -> f64 {
    get(metrics, "counters")
        .and_then(|c| field(c, name))
        .and_then(as_num)
        .unwrap_or(0.0)
}

/// Runs one fleet workload for `window`.
///
/// # Errors
///
/// A fleet that cannot be bound, scraped or shut down.
pub fn run(
    workload: Workload,
    seed: u64,
    window: Duration,
    traced: bool,
    work: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::new(workload, window);
    let job = workload.job(seed);
    let cells = workload.cells(seed);
    let body = job.to_json().render();
    let load = load(workload);

    // The reference result, computed once outside the timed window.
    let reference = job.execute()?;
    let expected = reference.render();
    out.digest = fnv1a(expected.as_bytes());
    let cell_refs: Vec<String> = match (&job, jsonpath::get(&reference, "results")) {
        (JobSpec::Grid(_), Some(Json::Arr(results))) => results.iter().map(Json::render).collect(),
        _ => vec![expected.clone()],
    };

    let ck = ckpt::pass(&cells, &cell_refs, &work.join("ckpt"), &mut out)?;
    let insts_per_job: u64 = ck.results.iter().map(|r| r.instructions).sum();

    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut fleet = None;
    for i in 0..SETUP_REPEATS {
        let (running, secs) = RunningFleet::start(&work.join(format!("fleet{i}")))?;
        setup.push(secs);
        if i + 1 < SETUP_REPEATS {
            running.stop()?;
        } else {
            fleet = Some(running);
        }
    }
    let fleet = fleet.expect("at least one fleet");

    let warmup = closed_loop(fleet.addr, &body, &expected, load, None);
    let spans = closed_loop(fleet.addr, &body, &expected, load, Some(window));
    let metrics = Client::new(fleet.addr)
        .request("GET", "/v1/metrics", None)
        .ok()
        .and_then(|r| json::parse(&r.body).ok())
        .ok_or("cannot scrape /v1/metrics")?;
    let rss_kb = shard_peak_rss_kb().ok_or("cannot read the shards' VmHWM")?;
    fleet.stop()?;

    let failed = warmup.iter().chain(&spans).filter(|s| !s.ok()).count() as u64;
    out.attempted += (warmup.len() + spans.len()) as u64;
    out.failed_ops += failed;
    out.check(
        "every job accepted, done and equal to in-process execute",
        failed == 0,
        format!(
            "{} jobs, {failed} failed; first failure: {}",
            warmup.len() + spans.len(),
            spans
                .iter()
                .find(|s| !s.ok())
                .map_or("none", |s| s.state.as_str())
        ),
    );

    let done: Vec<&JobSpan> = spans.iter().filter(|s| s.ok()).collect();
    let latency: Vec<f64> = done.iter().filter_map(|s| s.done).collect();
    let n = latency.len();
    let finished = done
        .iter()
        .filter_map(|s| s.done.map(|d| s.submit + d))
        .fold(0.0, f64::max);
    let jobs_per_s = n as f64 / finished.max(f64::MIN_POSITIVE);
    let r = &mut out.report;
    r.set(
        "sim_minst_per_s",
        median(
            &latency
                .iter()
                .map(|l| insts_per_job as f64 / l / 1e6)
                .collect::<Vec<_>>(),
        ),
        n,
    );
    r.set("setup_s", median(&setup), setup.len());
    r.set("peak_rss_mb", rss_kb as f64 / 1024.0, SHARDS);
    ck.record(r);
    // A sweep's clients see partial results land cell by cell; a single's
    // only see the job settle.
    let waits: Vec<f64> = match workload {
        Workload::FleetSweep => done.iter().flat_map(|s| s.cells.clone()).collect(),
        _ => latency.clone(),
    };
    r.set("lat_p50_ms", median(&waits) * 1e3, waits.len());
    r.set_tail("lat_p95_ms", tail(&waits, 95.0), 1e3, waits.len());
    r.set("jobs_per_s", jobs_per_s, n);
    r.set("cells_per_s", jobs_per_s * cells.len() as f64, n);
    r.set("sweep_p50_s", median(&latency), n);

    let admit: Vec<f64> = spans.iter().filter_map(|s| s.admit).collect();
    let status: Vec<f64> = spans
        .iter()
        .flat_map(|s| s.polls.iter().map(|p| p.1))
        .collect();
    r.set("fleet.admit_ms", median(&admit) * 1e3, admit.len());
    r.set("fleet.status_ms", median(&status) * 1e3, status.len());
    let (mut weighted, mut count) = (0.0, 0.0);
    for i in 0..SHARDS {
        let c = counter(&metrics, &format!("shard{i}.serve.job_latency.count"));
        weighted += c * counter(&metrics, &format!("shard{i}.serve.job_latency.p50_us"));
        count += c;
    }
    r.set(
        "serve.job_ms",
        weighted / count.max(1.0) / 1e3,
        count as usize,
    );
    r.set(
        "fleet.requeued",
        counter(&metrics, "fleet.dispatch.requeued"),
        1,
    );
    r.set(
        "fleet.reply_errors",
        counter(&metrics, "fleet.shard.reply_errors"),
        1,
    );
    r.set(
        "fleet.shard_restarts",
        counter(&metrics, "fleet.shards.restarts"),
        1,
    );
    out.spans = spans.iter().map(|s| s.to_json(workload)).collect();

    if traced {
        let job_ms = median(&latency) * 1e3;
        let direct = direct_server(&body, &expected, load, window / 3, &work.join("direct"))?;
        let direct_ms = median(&direct) * 1e3;
        let mut execute_s = Vec::new();
        let start = Instant::now();
        while execute_s.len() < 3 || start.elapsed() < Duration::from_secs(1) {
            let t = Instant::now();
            std::hint::black_box(job.execute()?);
            execute_s.push(t.elapsed().as_secs_f64());
        }
        let execute_ms = median(&execute_s) * 1e3;
        let r = &mut out.report;
        r.set("serve.direct.lat_ms", direct_ms, direct.len());
        r.set("bench.execute_ms", execute_ms, execute_s.len());
        r.set("fleet.overhead_ms", job_ms - direct_ms, n);
        r.set("serve.overhead_ms", direct_ms - execute_ms, direct.len());
        r.set(
            "fleet.sweep.parallel_eff",
            execute_ms / (SHARDS as f64 * job_ms),
            n,
        );
        trace::record(&cells, &ck.results, window / 4, &mut out)?;
    }
    Ok(out)
}

/// The same closed loop against one in-process `baryon_serve::Server`
/// with a journal and one worker; returns the settled jobs' latencies.
fn direct_server(
    body: &str,
    expected: &str,
    load: Load,
    window: Duration,
    journal: &Path,
) -> Result<Vec<f64>, String> {
    let server = Server::bind(ServeConfig {
        port: 0,
        workers: 1,
        journal_dir: Some(journal.to_path_buf()),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("serve bind: {e}"))?;
    let addr = server.local_addr();
    let serving = std::thread::spawn(move || server.run());
    let warmup = closed_loop(addr, body, expected, load, None);
    let spans = closed_loop(addr, body, expected, load, Some(window));
    Client::new(addr)
        .request("POST", "/v1/shutdown", None)
        .map_err(|e| format!("serve shutdown: {e}"))?;
    serving
        .join()
        .map_err(|_| "serve thread panicked".to_owned())?
        .map_err(|e| format!("serve run: {e}"))?;
    if let Some(bad) = warmup.iter().chain(&spans).find(|s| !s.ok()) {
        return Err(format!("direct serve job ended {}", bad.state));
    }
    Ok(spans.iter().filter_map(|s| s.done).collect())
}
