//! QoS and quota edge cases against a real fleet (coordinator + forked
//! shards): quota release when a disconnected client's job settles,
//! `Retry-After` under simultaneous class-cap and quota exhaustion (the
//! 429 wins), interactive starvation-freedom under a saturating batch
//! backlog, a paused shard's work running on the other shard, whole-job
//! admission, admission under the active policy, a cancelled job's stream
//! ending at once, and the retention cap on settled jobs.

use baryon_bench::spec::{GridSpec, JobSpec, RunSpec};
use baryon_fleet::harness::GateFleet;
use baryon_fleet::{FleetConfig, ShardLauncher};
use baryon_sim::json::{self, Json};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Boots a fleet of one-worker shards, each the `fleet_gate` binary in
/// `--shard` mode.
fn boot(tag: &str, shards: usize, queue_cap: usize, max_in_flight_per_client: usize) -> GateFleet {
    let launcher = ShardLauncher {
        program: PathBuf::from(env!("CARGO_BIN_EXE_fleet_gate")),
        prefix_args: vec!["--shard".to_owned()],
        workers: 1,
        queue_depth: 64,
        policy_path: None,
        extra_env: Vec::new(),
    };
    let cfg = FleetConfig {
        port: 0,
        shards,
        workers_per_shard: 1,
        shard_queue_depth: 64,
        queue_cap,
        max_in_flight_per_client,
        journal_root: std::env::temp_dir().join(format!(
            "baryon-qos-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        )),
    };
    GateFleet::boot(cfg, launcher).expect("fleet boots")
}

/// A raw HTTP exchange with custom headers (the typed client has no
/// header hook; quota identity rides on `x-baryon-client`). Returns
/// `(status, headers, body)`; dropping the stream afterwards is exactly
/// the "client disconnects" behaviour under test.
fn raw_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> (u16, Vec<(String, String)>, String) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut request = format!("{method} {path} HTTP/1.1\r\nHost: qos\r\nConnection: close\r\n");
    for (name, value) in headers {
        request.push_str(&format!("{name}: {value}\r\n"));
    }
    request.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    writer.write_all(request.as_bytes()).expect("write");
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let mut response_headers = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            response_headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }
    }
    let length: usize = response_headers
        .iter()
        .find(|(name, _)| name == "content-length")
        .and_then(|(_, value)| value.parse().ok())
        .unwrap_or(0);
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("body");
    (
        status,
        response_headers,
        String::from_utf8(body).expect("utf-8 body"),
    )
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn body_id(body: &str) -> u64 {
    json::parse(body)
        .ok()
        .and_then(|doc| doc.get("id")?.as_u64())
        .unwrap_or_else(|| panic!("no id in {body}"))
}

/// Waits for the job to reach `wanted` (which may be `failed`).
fn await_state(h: &GateFleet, id: u64, wanted: &str) {
    h.await_status(id, wanted, |doc| {
        doc.get("state").and_then(Json::as_str) == Some(wanted)
    })
    .unwrap_or_else(|e| panic!("job {id} never reached {wanted:?}: {e}"));
}

const RUN: &str = r#"{"workload":"ycsb-a","controller":"simple","insts":20000,"warmup":2000,"scale":2048,"seed":3}"#;

#[test]
fn quota_releases_when_a_disconnected_clients_job_settles() {
    let h = boot("disconnect", 1, 16, 1);
    // Pause the only shard so the first job deterministically stays in
    // flight (queued, requeueing) while we probe the quota.
    h.controller().pause_shard(0);
    let (status, _, body) = raw_request(
        h.addr(),
        "POST",
        "/v1/jobs",
        &[("x-baryon-client", "ghost")],
        RUN,
    );
    assert_eq!(status, 202, "{body}");
    let id = body_id(&body);
    // The submitting connection is gone (raw_request dropped it) — the
    // fleet must keep the job AND keep the quota slot held.
    let (status, headers, body) = raw_request(
        h.addr(),
        "POST",
        "/v1/jobs",
        &[("x-baryon-client", "ghost")],
        RUN,
    );
    assert_eq!(status, 429, "quota still held mid-job: {body}");
    assert!(body.contains("quota_exceeded"), "{body}");
    assert_eq!(
        header(&headers, "retry-after"),
        Some("1"),
        "interactive retry hint"
    );
    // Another client is unaffected.
    let (status, _, body) = raw_request(
        h.addr(),
        "POST",
        "/v1/jobs",
        &[("x-baryon-client", "other")],
        RUN,
    );
    assert_eq!(status, 202, "quotas are per-client: {body}");
    // Let the fleet run the ghost's job to completion; the ghost never
    // reconnects to claim it.
    h.controller().unpause_shard(0);
    await_state(&h, id, "done");
    // The slot came back without any client-side action.
    let (status, _, body) = raw_request(
        h.addr(),
        "POST",
        "/v1/jobs",
        &[("x-baryon-client", "ghost")],
        RUN,
    );
    assert_eq!(status, 202, "quota released on settle: {body}");
    let released = body_id(&body);
    await_state(&h, released, "done");
}

#[test]
fn quota_beats_queue_full_and_retry_after_matches_class() {
    let h = boot("retry-after", 1, 2, 2);
    h.controller().pause_shard(0);
    // Client "q" fills its own quota (2 in flight).
    let mut ids = Vec::new();
    for _ in 0..2 {
        let (status, _, body) = raw_request(
            h.addr(),
            "POST",
            "/v1/jobs",
            &[("x-baryon-client", "q")],
            RUN,
        );
        assert_eq!(status, 202, "{body}");
        ids.push(body_id(&body));
    }
    // Saturate the interactive queue from other clients: with the shard
    // paused, its one slot holds at most one popped item, so a bounded
    // burst must hit `503 queue_full`.
    let mut saw_queue_full = false;
    for i in 0..20 {
        let client = format!("filler-{i}");
        let (status, headers, body) = raw_request(
            h.addr(),
            "POST",
            "/v1/jobs",
            &[("x-baryon-client", &client)],
            RUN,
        );
        match status {
            202 => ids.push(body_id(&body)),
            503 => {
                assert!(body.contains("queue_full"), "{body}");
                assert_eq!(
                    header(&headers, "retry-after"),
                    Some("1"),
                    "interactive class hint on 503"
                );
                saw_queue_full = true;
                break;
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert!(saw_queue_full, "the interactive queue never filled");
    // Simultaneous exhaustion: client "q" is over quota AND the queue is
    // full — the quota answer (429) wins, with the class's retry hint.
    let (status, headers, body) = raw_request(
        h.addr(),
        "POST",
        "/v1/jobs",
        &[("x-baryon-client", "q")],
        RUN,
    );
    assert_eq!(status, 429, "quota beats queue_full: {body}");
    assert!(body.contains("quota_exceeded"), "{body}");
    assert_eq!(header(&headers, "retry-after"), Some("1"));
    // The same collision on the batch class advertises the batch hint.
    let (status, headers, body) = raw_request(
        h.addr(),
        "POST",
        "/v1/jobs",
        &[("x-baryon-client", "q"), ("x-baryon-class", "batch")],
        RUN,
    );
    assert_eq!(status, 429, "{body}");
    assert_eq!(
        header(&headers, "retry-after"),
        Some("5"),
        "batch class hint on the 429"
    );
    // A batch submit from a fresh client sees its own (empty) class level:
    // the full interactive queue must not reject batch admission outright.
    let grid = r#"{"grid":{"workloads":["ycsb-a"],"controllers":["simple"],"insts":20000,"warmup":2000,"scale":2048,"seed":3}}"#;
    let (status, _, body) = raw_request(
        h.addr(),
        "POST",
        "/v1/jobs",
        &[("x-baryon-client", "bulk")],
        grid,
    );
    assert_eq!(status, 202, "batch level admits independently: {body}");
    ids.push(body_id(&body));
    // Drain everything so shutdown is clean.
    h.controller().unpause_shard(0);
    for id in ids {
        await_state(&h, id, "done");
    }
}

#[test]
fn interactive_stays_live_under_saturating_batch_load() {
    let h = boot("starvation", 1, 256, 64);
    // A standing batch backlog: several grids, all cells on the single
    // one-worker shard.
    let grid = r#"{"grid":{"workloads":["ycsb-a","pr.twi"],"controllers":["simple","baryon"],"insts":100000,"warmup":10000,"scale":1024,"seed":7}}"#;
    let mut batch_ids = Vec::new();
    for _ in 0..2 {
        let (status, _, body) = raw_request(
            h.addr(),
            "POST",
            "/v1/jobs",
            &[("x-baryon-client", "bulk")],
            grid,
        );
        assert_eq!(status, 202, "{body}");
        batch_ids.push(body_id(&body));
    }
    // A latecomer interactive job must overtake the backlog.
    let (status, _, body) = raw_request(
        h.addr(),
        "POST",
        "/v1/jobs",
        &[("x-baryon-client", "human")],
        RUN,
    );
    assert_eq!(status, 202, "{body}");
    let interactive = body_id(&body);
    await_state(&h, interactive, "done");
    let unfinished_batches = batch_ids
        .iter()
        .filter(|&&id| {
            let doc = h
                .request("GET", &format!("/v1/jobs/{id}"), None, 200)
                .expect("status fetch");
            doc.get("state").and_then(Json::as_str) != Some("done")
        })
        .count();
    assert!(
        unfinished_batches > 0,
        "the batch backlog drained before the interactive job — grow the grid"
    );
    for id in batch_ids {
        await_state(&h, id, "done");
    }
}

#[test]
fn a_paused_shards_work_runs_on_the_other_shard() {
    let h = boot("paused", 2, 16, 4);
    h.controller().pause_shard(0);
    let grid = JobSpec::Grid(GridSpec {
        workloads: vec!["ycsb-a".into(), "pr.twi".into()],
        controllers: vec!["simple".into()],
        base: RunSpec {
            insts: 20_000,
            warmup: 2_000,
            scale: 2048,
            seed: 3,
            ..RunSpec::default()
        },
    });
    let golden = grid.execute().expect("grid runs").render();
    let id = h
        .submit(&grid.to_json().render(), "grid")
        .expect("grid admitted");
    // Both cells gather while shard 0 stays paused: shard 1's slot pulls
    // them one after the other.
    h.await_identical(id, &golden, "grid beside a paused shard")
        .expect("the grid gathers on shard 1");
    h.controller().unpause_shard(0);
}

/// The fleet's `(interactive, batch)` queue depths.
fn queue_depths(h: &GateFleet) -> (u64, u64) {
    let depth = |class: &str| {
        h.counter(&format!("fleet.queue.{class}_depth"))
            .expect("metrics scrape")
    };
    (depth("interactive"), depth("batch"))
}

/// A 2-workload × `controllers`-controller grid of quick cells.
fn grid_body(controllers: &[&str]) -> String {
    JobSpec::Grid(GridSpec {
        workloads: vec!["ycsb-a".into(), "pr.twi".into()],
        controllers: controllers.iter().map(|c| (*c).to_owned()).collect(),
        base: RunSpec {
            insts: 20_000,
            warmup: 2_000,
            scale: 2048,
            seed: 3,
            ..RunSpec::default()
        },
    })
    .to_json()
    .render()
}

#[test]
fn a_job_is_admitted_whole_or_refused_without_touching_the_queue() {
    let h = boot("whole", 2, 6, 8);
    for shard in 0..2 {
        h.controller().pause_shard(shard);
    }
    let four = grid_body(&["simple", "baryon"]);
    let id = h.submit(&four, "4-cell grid").expect("4 of 6 places");
    assert_eq!(queue_depths(&h), (0, 4));
    // Two places left: another 4-cell grid is refused whole and leaves no
    // orphan cells behind.
    let (status, headers, body) = raw_request(h.addr(), "POST", "/v1/jobs", &[], &four);
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("queue_full"), "{body}");
    assert_eq!(header(&headers, "retry-after"), Some("5"), "batch hint");
    assert_eq!(queue_depths(&h), (0, 4), "the refusal queued nothing");
    // A grid with more cells than the class queue holds can never be
    // admitted: a 400 naming the cap, not a 503 to retry forever.
    let eight = grid_body(&["simple", "baryon", "dice", "unison"]);
    let (status, headers, body) = raw_request(h.addr(), "POST", "/v1/jobs", &[], &eight);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("invalid_spec"), "{body}");
    assert!(body.contains("capacity of 6"), "{body}");
    assert_eq!(header(&headers, "retry-after"), None);
    assert_eq!(queue_depths(&h), (0, 4));
    for shard in 0..2 {
        h.controller().unpause_shard(shard);
    }
    await_state(&h, id, "done");
    assert_eq!(queue_depths(&h), (0, 0));
}

/// Admission resolves every cell under the active policy: `stage_ways:
/// 64` passes the policy's own validation (divisors 1..=4096) but leaves
/// a scale-8192 machine a stage area smaller than one set.
#[test]
fn admission_checks_every_cell_against_the_active_policy() {
    let h = boot("policy", 1, 16, 8);
    let small_stage = r#"{"stage_ways":64}"#;
    h.request("POST", "/v1/admin/config/stage", Some(small_stage), 200)
        .expect("stage");
    h.request("POST", "/v1/admin/config/commit", None, 200)
        .expect("commit");
    let grid = r#"{"grid":{"workloads":["ycsb-a"],"controllers":["simple","baryon"],"insts":2000,"warmup":500,"scale":8192}}"#;
    for (body, reason) in [
        (grid, "at scale 8192"),
        (r#"{"workload":"ycsb-a","threads":8}"#, "single-threaded"),
    ] {
        let (status, headers, reply) = raw_request(h.addr(), "POST", "/v1/jobs", &[], body);
        assert_eq!(status, 400, "{reply}");
        assert!(reply.contains("invalid_spec"), "{reply}");
        assert!(reply.contains(reason), "{reply}");
        assert_eq!(header(&headers, "retry-after"), None);
    }
    assert_eq!(queue_depths(&h), (0, 0), "a refusal queues nothing");
    // The same grid at a scale the policy fits is admitted and runs.
    let fits = grid.replace("8192", "2048");
    let id = h.submit(&fits, "grid the policy fits").expect("admitted");
    await_state(&h, id, "done");
}

/// Opens the job's event stream and returns once the response head has
/// arrived; the thread then reads until the `end` event and returns that
/// line and when it came.
fn watch_for_end(addr: SocketAddr, id: u64) -> std::thread::JoinHandle<(String, Instant)> {
    let (opened, wait_open) = std::sync::mpsc::channel();
    let watcher = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let mut writer = stream.try_clone().expect("clone");
        write!(
            writer,
            "GET /v1/jobs/{id}/events HTTP/1.1\r\nHost: qos\r\nConnection: close\r\n\r\n"
        )
        .expect("write");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("status line");
        assert!(line.contains(" 200 "), "{line}");
        while line.trim_end() != "" {
            line.clear();
            reader.read_line(&mut line).expect("header line");
        }
        opened.send(()).expect("test thread waits");
        loop {
            line.clear();
            assert!(
                reader.read_line(&mut line).expect("event line") > 0,
                "stream closed"
            );
            if line.contains("\"event\":\"end\"") {
                return (line.trim_end().to_owned(), Instant::now());
            }
        }
    });
    wait_open.recv().expect("the stream opened");
    watcher
}

#[test]
fn a_cancelled_jobs_stream_ends_at_once() {
    let h = boot("cancel-stream", 1, 16, 4);
    h.controller().pause_shard(0);
    let id = h.submit(RUN, "single").expect("admitted");
    let watcher = watch_for_end(h.addr(), id);
    // Let the stream park in its wait for the job to move.
    std::thread::sleep(Duration::from_millis(100));
    let cancelled = Instant::now();
    let doc = h
        .request("POST", &format!("/v1/jobs/{id}/cancel"), None, 200)
        .expect("cancel");
    assert_eq!(doc.get("state").and_then(Json::as_str), Some("cancelled"));
    let (end, at) = watcher.join().expect("watcher");
    assert!(end.contains("\"state\":\"cancelled\""), "{end}");
    let late = at.duration_since(cancelled);
    assert!(
        late < Duration::from_millis(200),
        "the end came {late:?} after the cancel"
    );
    h.controller().unpause_shard(0);
}

#[test]
fn the_oldest_settled_job_is_evicted_past_256() {
    let h = boot("retention", 1, 16, 4);
    let first = h.submit(RUN, "first").expect("admitted");
    await_state(&h, first, "done");
    // 256 more settle as cancellations: the shard is paused, so each
    // cancel reaches a queued job.
    h.controller().pause_shard(0);
    let mut ids = Vec::new();
    for _ in 0..256 {
        let id = h.submit(RUN, "filler").expect("admitted");
        h.request("POST", &format!("/v1/jobs/{id}/cancel"), None, 200)
            .expect("cancel");
        ids.push(id);
    }
    let (status, _, body) = raw_request(h.addr(), "GET", &format!("/v1/jobs/{first}"), &[], "");
    assert_eq!(status, 404, "the oldest settled job is evicted: {body}");
    let (status, _, body) = raw_request(
        h.addr(),
        "GET",
        &format!("/v1/jobs/{first}/events"),
        &[],
        "",
    );
    assert_eq!(status, 404, "{body}");
    await_state(&h, ids[0], "cancelled");
    h.controller().unpause_shard(0);
}
