//! End-to-end smoke tests: a real server on an ephemeral loopback port,
//! driven through the smoke-test client.
//!
//! The headline checks mirror the serving contract:
//! * a completed job's result document is byte-identical to the same run
//!   executed directly through the in-process spec path (determinism),
//! * a burst larger than the queue depth gets `503` backpressure without
//!   dropping any accepted job,
//! * lifecycle: status polling, cancellation of queued jobs, metrics.

use baryon_bench::spec::RunSpec;
use baryon_serve::client::{self, ClientResponse};
use baryon_serve::{ServeConfig, Server};
use baryon_sim::json::{parse, Json};
use std::net::SocketAddr;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

/// Boots a server and returns its address plus the join handle.
fn boot(workers: usize, queue_depth: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
    boot_with_deadline(workers, queue_depth, None)
}

/// Boots a server with a per-job wall-clock deadline.
fn boot_with_deadline(
    workers: usize,
    queue_depth: usize,
    job_deadline: Option<Duration>,
) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind(ServeConfig {
        port: 0,
        workers,
        queue_depth,
        job_deadline,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral loopback port");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || {
        server.run().expect("accept loop exits cleanly");
    });
    (addr, handle)
}

fn shutdown(addr: SocketAddr, handle: std::thread::JoinHandle<()>) {
    let r = client::request(addr, "POST", "/v1/shutdown", None).expect("shutdown reachable");
    assert_eq!(r.status, 200, "{}", r.body);
    handle.join().expect("server thread exits");
}

fn submit(addr: SocketAddr, body: &str) -> ClientResponse {
    client::request(addr, "POST", "/v1/jobs", Some(body)).expect("submit reachable")
}

fn job_id(response: &ClientResponse) -> u64 {
    let doc = parse(&response.body).expect("submit response is JSON");
    doc.get("id")
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("id should be an integer: {}", response.body))
}

/// Polls a job until it leaves the queue/running states.
fn await_job(addr: SocketAddr, id: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let r = client::request(addr, "GET", &format!("/v1/jobs/{id}"), None)
            .expect("status reachable");
        assert_eq!(r.status, 200, "{}", r.body);
        let doc = parse(&r.body).expect("status is JSON");
        let Some(Json::Str(state)) = doc.get("state") else {
            panic!("state should be a string: {}", r.body);
        };
        match state.as_str() {
            "queued" | "running" => {
                assert!(Instant::now() < deadline, "job {id} stuck: {}", r.body);
                std::thread::sleep(Duration::from_millis(10));
            }
            _ => return doc,
        }
    }
}

/// A quick spec: small scaled-down run that still exercises the full
/// simulator (same path as `baryon-cli run`).
const QUICK_SPEC: &str = r#"{"workload":"ycsb-a","controller":"simple",
    "insts":3000,"warmup":500,"scale":1024,"seed":7}"#;

#[test]
fn served_result_is_byte_identical_to_direct_run() {
    let (addr, handle) = boot(2, 8);

    let accepted = submit(addr, QUICK_SPEC);
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let id = job_id(&accepted);

    let status = await_job(addr, id);
    assert_eq!(status.get("state"), Some(&Json::from("done")));
    let served = status.get("result").map(Json::render);

    // The same spec executed in-process must produce the same bytes.
    let spec = RunSpec {
        workload: "ycsb-a".into(),
        controller: "simple".into(),
        insts: 3000,
        warmup: 500,
        scale: 1024,
        seed: 7,
        mlp: 1,
        telemetry: false,
        threads: 1,
        ..RunSpec::default()
    };
    let direct = spec.execute().expect("spec runs").to_json().render();
    assert_eq!(
        served,
        Some(direct),
        "served result diverged from direct run"
    );

    // Wall time is reported once finished.
    assert!(
        matches!(status.get("wall_us"), Some(Json::U64(_))),
        "wall_us should be an integer: {}",
        status.render()
    );

    shutdown(addr, handle);
}

#[test]
fn burst_beyond_queue_depth_gets_backpressure_without_losing_jobs() {
    let queue_depth = 2;
    let (addr, handle) = boot(1, queue_depth);

    // Occupy the single worker with a longer job, then burst.
    let slow = submit(
        addr,
        r#"{"workload":"ycsb-a","controller":"simple","insts":120000,"warmup":1000,"scale":1024}"#,
    );
    assert_eq!(slow.status, 202, "{}", slow.body);
    let mut accepted = vec![job_id(&slow)];
    let mut rejected = 0usize;
    for _ in 0..(queue_depth + 6) {
        let r = submit(addr, QUICK_SPEC);
        match r.status {
            202 => accepted.push(job_id(&r)),
            503 => {
                assert_eq!(r.header("retry-after"), Some("1"), "{}", r.body);
                rejected += 1;
            }
            other => panic!("unexpected status {other}: {}", r.body),
        }
    }
    assert!(
        rejected > 0,
        "burst of {} should overflow a queue of {queue_depth}",
        queue_depth + 6
    );

    // Every accepted job completes; none are dropped by the backpressure.
    for id in &accepted {
        let status = await_job(addr, *id);
        assert_eq!(
            status.get("state"),
            Some(&Json::from("done")),
            "job {id}: {}",
            status.render()
        );
    }

    // Rejected submissions left no half-registered records behind.
    let submitted = accepted.len() + rejected;
    let r = client::request(addr, "GET", &format!("/v1/jobs/{submitted}"), None)
        .expect("status reachable");
    assert_eq!(r.status, 404, "rejected job should not exist: {}", r.body);

    let metrics = client::request(addr, "GET", "/v1/metrics", None).expect("metrics reachable");
    let doc = parse(&metrics.body).expect("metrics are JSON");
    let counters = doc.get("counters").expect("metrics carry counters");
    assert_eq!(
        counters.get("serve.jobs.rejected"),
        Some(&Json::from(rejected as u64))
    );
    assert_eq!(
        counters.get("serve.jobs.done"),
        Some(&Json::from(accepted.len() as u64))
    );

    shutdown(addr, handle);
}

#[test]
fn queued_jobs_can_be_cancelled_and_never_run() {
    let (addr, handle) = boot(1, 4);

    // Worker busy on a long job, next job waits in the queue.
    let slow = submit(
        addr,
        r#"{"workload":"ycsb-a","controller":"simple","insts":120000,"warmup":1000,"scale":1024}"#,
    );
    assert_eq!(slow.status, 202);
    let queued = submit(addr, QUICK_SPEC);
    assert_eq!(queued.status, 202);
    let id = job_id(&queued);

    let r = client::request(addr, "POST", &format!("/v1/jobs/{id}/cancel"), None)
        .expect("cancel reachable");
    assert_eq!(r.status, 200, "{}", r.body);

    // The record stays cancelled even after the worker drains the queue.
    let slow_id = job_id(&slow);
    await_job(addr, slow_id);
    let status = await_job(addr, id);
    assert_eq!(status.get("state"), Some(&Json::from("cancelled")));

    // Cancelling a finished job is a conflict; unknown jobs are 404.
    let r = client::request(addr, "POST", &format!("/v1/jobs/{slow_id}/cancel"), None)
        .expect("cancel reachable");
    assert_eq!(r.status, 409, "{}", r.body);
    let r = client::request(addr, "POST", "/v1/jobs/999/cancel", None).expect("reachable");
    assert_eq!(r.status, 404);

    shutdown(addr, handle);
}

#[test]
fn grid_jobs_return_row_major_results() {
    let (addr, handle) = boot(2, 4);

    let r = submit(
        addr,
        r#"{"grid":{"workloads":["ycsb-a"],"controllers":["simple","dice"],
             "insts":3000,"warmup":500,"scale":1024,"seed":7}}"#,
    );
    assert_eq!(r.status, 202, "{}", r.body);
    let status = await_job(addr, job_id(&r));
    assert_eq!(status.get("state"), Some(&Json::from("done")));
    let Some(Json::Arr(results)) = status.get("result").and_then(|r| r.get("results")) else {
        panic!("grid result should hold an array: {}", status.render());
    };
    assert_eq!(results.len(), 2);
    assert_eq!(results[0].get("controller"), Some(&Json::from("simple")));
    assert_eq!(results[1].get("controller"), Some(&Json::from("dice")));
    for cell in results {
        assert_eq!(cell.get("workload"), Some(&Json::from("ycsb-a")));
    }

    shutdown(addr, handle);
}

#[test]
fn protocol_errors_are_typed() {
    let (addr, handle) = boot(1, 2);

    // Malformed JSON body → 400 with a parse position.
    let r = submit(addr, "{nope");
    assert_eq!(r.status, 400, "{}", r.body);
    assert!(r.body.contains("invalid JSON"), "{}", r.body);

    // Well-formed JSON, bad spec → 400 naming the field.
    let r = submit(addr, r#"{"workload":"not-a-workload"}"#);
    assert_eq!(r.status, 400);
    assert!(r.body.contains("unknown workload"), "{}", r.body);

    // Knobs invalid at the spec's own scale → 400, not a worker panic.
    let r = submit(addr, r#"{"scale":4096,"knobs":{"stage_ways":1024}}"#);
    assert_eq!(r.status, 400, "{}", r.body);
    assert!(
        r.body.contains("stage area smaller than one set"),
        "{}",
        r.body
    );

    // Sizes that would abort the shard on allocation → 400 before any run.
    for (body, reason) in [
        (
            r#"{"workload":"ycsb-a","knobs":{"stage_bytes":0,"stage_ways":1099511627776}}"#,
            "stage_ways exceeds the fast memory's blocks",
        ),
        (
            r#"{"workload":"ycsb-a","knobs":{"stage_bytes":18446744073709551615}}"#,
            "leave no fast memory for data",
        ),
    ] {
        let r = submit(addr, body);
        assert_eq!(r.status, 400, "{}", r.body);
        assert!(r.body.contains(reason), "{}", r.body);
    }

    // Unknown endpoint → 404; wrong method → 405.
    let r = client::request(addr, "GET", "/v1/nope", None).expect("reachable");
    assert_eq!(r.status, 404);
    let r = client::request(addr, "DELETE", "/v1/jobs", None).expect("reachable");
    assert_eq!(r.status, 405);
    let r = client::request(addr, "GET", "/v1/jobs/not-a-number", None).expect("reachable");
    assert_eq!(r.status, 404);

    // Health and metrics respond even on a fresh server.
    let r = client::request(addr, "GET", "/v1/healthz", None).expect("reachable");
    assert_eq!(r.status, 200);
    assert_eq!(r.body, r#"{"ok":true}"#);
    let r = client::request(addr, "GET", "/v1/metrics", None).expect("reachable");
    assert_eq!(r.status, 200);
    let doc = parse(&r.body).expect("metrics are JSON");
    assert_eq!(
        doc.get("counters")
            .and_then(|c| c.get("serve.workers.total")),
        Some(&Json::from(1u64))
    );

    shutdown(addr, handle);
}

#[test]
fn deadline_exceeded_jobs_fail_and_the_worker_moves_on() {
    // One worker, 1 s budget per job: plenty for QUICK_SPEC even on a
    // host loaded with the rest of the test suite, hopeless for a
    // multi-million-instruction run in a debug build.
    let (addr, handle) = boot_with_deadline(1, 4, Some(Duration::from_millis(1000)));

    let stuck = submit(
        addr,
        r#"{"workload":"ycsb-a","controller":"simple","insts":5000000,"warmup":1000,"scale":1024}"#,
    );
    assert_eq!(stuck.status, 202, "{}", stuck.body);
    let quick = submit(addr, QUICK_SPEC);
    assert_eq!(quick.status, 202, "{}", quick.body);

    // The oversized job is failed by the watchdog, with a timeout reason.
    let status = await_job(addr, job_id(&stuck));
    assert_eq!(
        status.get("state"),
        Some(&Json::from("failed")),
        "{}",
        status.render()
    );
    let Some(Json::Str(error)) = status.get("error") else {
        panic!("failed job should carry an error: {}", status.render());
    };
    assert!(error.contains("deadline exceeded"), "{error}");

    // The worker survived the timeout and completed the queued job.
    let status = await_job(addr, job_id(&quick));
    assert_eq!(
        status.get("state"),
        Some(&Json::from("done")),
        "{}",
        status.render()
    );

    let metrics = client::request(addr, "GET", "/v1/metrics", None).expect("metrics reachable");
    let doc = parse(&metrics.body).expect("metrics are JSON");
    let counters = doc.get("counters").expect("metrics carry counters");
    assert_eq!(
        counters.get("serve.jobs.timed_out"),
        Some(&Json::from(1u64))
    );
    assert_eq!(counters.get("serve.jobs.failed"), Some(&Json::from(1u64)));
    assert_eq!(counters.get("serve.jobs.done"), Some(&Json::from(1u64)));
    assert_eq!(counters.get("serve.jobs.panicked"), Some(&Json::from(0u64)));

    shutdown(addr, handle);
}

#[test]
fn typed_client_distinguishes_connect_from_timeout_against_a_live_server() {
    let (addr, handle) = boot(1, 2);

    // A tight read timeout against a healthy endpoint still succeeds.
    let client = baryon_serve::client::Client::new(addr)
        .connect_timeout(Duration::from_secs(5))
        .read_timeout(Duration::from_secs(5))
        .retries(3)
        .backoff_base(Duration::from_millis(5));
    let r = client
        .request_with_retry("GET", "/v1/healthz", None)
        .expect("healthy server answers");
    assert_eq!(r.status, 200);

    shutdown(addr, handle);

    // With the listener gone, the failure is typed as a connect error.
    let err = client
        .request("GET", "/v1/healthz", None)
        .expect_err("server is gone");
    assert!(
        matches!(err, baryon_serve::client::ClientError::Connect(_)),
        "{err}"
    );
}

#[test]
fn submissions_after_shutdown_are_refused() {
    let (addr, handle) = boot(1, 2);
    let accepted = submit(addr, QUICK_SPEC);
    assert_eq!(accepted.status, 202);
    let id = job_id(&accepted);

    let r = client::request(addr, "POST", "/v1/shutdown", None).expect("reachable");
    assert_eq!(r.status, 200);
    handle.join().expect("drained");

    // The accepted job was drained to completion before exit, visible in
    // the in-process table had we kept the server; over the wire the
    // listener is gone, so any further submission fails to connect.
    assert!(client::request(addr, "POST", "/v1/jobs", Some(QUICK_SPEC)).is_err());
    let _ = id;
}

#[test]
fn events_stream_delivers_monotonic_progress_then_end() {
    let (addr, handle) = boot(1, 4);
    // Long enough to cross several observation intervals (the default
    // cadence is 20k trace operations between progress publishes).
    let spec = r#"{"workload":"ycsb-a","controller":"simple",
        "insts":150000,"warmup":10000,"scale":1024,"seed":7}"#;
    let accepted = submit(addr, spec);
    assert_eq!(accepted.status, 202);
    let id = job_id(&accepted);

    let mut lines = Vec::new();
    baryon_serve::client::Client::new(addr)
        .stream(&format!("/v1/jobs/{id}/events"), &mut |line| {
            lines.push(line.to_owned());
            ControlFlow::Continue(())
        })
        .expect("stream runs to completion");
    assert!(!lines.is_empty(), "stream delivered nothing");

    let mut last_ops = 0u64;
    let mut progress_events = 0usize;
    for (i, line) in lines.iter().enumerate() {
        let doc = parse(line).expect("event line is JSON");
        let Some(Json::Str(event)) = doc.get("event") else {
            panic!("event should be a string: {line}");
        };
        match event.as_str() {
            "progress" => {
                progress_events += 1;
                let Some(Json::U64(ops)) = doc.get("ops") else {
                    panic!("ops should be an integer: {line}");
                };
                assert!(
                    *ops > last_ops,
                    "progress must be strictly monotonic: {ops} after {last_ops}"
                );
                last_ops = *ops;
            }
            "end" => {
                assert_eq!(i, lines.len() - 1, "end must be the final event");
                let Some(Json::Str(state)) = doc.get("state") else {
                    panic!("state should be a string: {line}");
                };
                assert_eq!(state, "done", "{line}");
            }
            "alive" => {}
            other => panic!("unknown event {other}: {line}"),
        }
    }
    assert!(progress_events >= 1, "no progress events in {lines:?}");
    assert!(
        lines
            .last()
            .expect("nonempty")
            .contains("\"event\":\"end\""),
        "stream must settle with an end event: {lines:?}"
    );

    // Streaming observed the run without perturbing it: the result still
    // matches the direct in-process execution byte for byte.
    let status = await_job(addr, id);
    let direct = {
        let doc = parse(spec).expect("spec is JSON");
        let run = RunSpec::from_json(&doc).expect("valid spec");
        run.execute().expect("runs").to_json().render()
    };
    assert_eq!(status.get("result").map(Json::render), Some(direct));
    shutdown(addr, handle);
}

#[test]
fn events_stream_for_unknown_job_is_a_typed_404() {
    let (addr, handle) = boot(1, 2);
    let err = baryon_serve::client::Client::new(addr)
        .stream("/v1/jobs/424242/events", &mut |_| ControlFlow::Continue(()))
        .expect_err("no such job");
    assert_eq!(err.code(), Some(baryon_serve::ErrorCode::NotFound), "{err}");
    shutdown(addr, handle);
}

#[test]
fn wire_metrics_reconstruct_the_registry_exactly() {
    let (addr, handle) = boot(1, 2);
    let accepted = submit(addr, QUICK_SPEC);
    assert_eq!(accepted.status, 202);
    await_job(addr, job_id(&accepted));

    let wire_doc = client::request(addr, "GET", "/v1/metrics?format=wire", None)
        .expect("wire metrics reachable");
    assert_eq!(wire_doc.status, 200, "{}", wire_doc.body);
    let doc = parse(&wire_doc.body).expect("wire envelope is JSON");
    let Some(Json::Str(hex)) = doc.get("wire") else {
        panic!("wire should be a hex string: {}", wire_doc.body);
    };
    let bytes = baryon_sim::wire::from_hex(hex).expect("valid hex");
    let mut reader = baryon_sim::wire::Reader::new(&bytes);
    let reg = baryon_sim::telemetry::Registry::load_state(&mut reader).expect("registry decodes");
    assert_eq!(reg.counter("serve.jobs.done"), 1);
    assert_eq!(reg.counter("serve.jobs.submitted"), 1);
    assert!(
        reg.summary("serve.job_latency_us").is_some(),
        "histograms survive the wire form"
    );
    shutdown(addr, handle);
}
