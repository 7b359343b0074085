//! QoS and quota edge cases against a real fleet (coordinator + forked
//! shards): quota release when a disconnected client's job settles,
//! `Retry-After` under simultaneous class-cap and quota exhaustion (the
//! 429 wins), interactive starvation-freedom under a saturating batch
//! backlog, and a paused shard's work running on the other shard.

use baryon_bench::spec::{GridSpec, JobSpec, RunSpec};
use baryon_fleet::harness::GateFleet;
use baryon_fleet::{FleetConfig, ShardLauncher};
use baryon_sim::json::{self, Json};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

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
