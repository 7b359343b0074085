//! Crash-recovery end-to-end: a server bound to a journal directory must
//! reconstruct its job table from the write-ahead journal — settled jobs
//! keep their results, never-started jobs run on boot, and an interrupted
//! single run resumes from its checkpoint to the bit-identical result an
//! uninterrupted run would have produced.

use baryon_bench::spec::{RunSpec, CHECKPOINT_PREFIX};
use baryon_serve::client::{self, ClientResponse};
use baryon_serve::journal::{Journal, JournalEvent};
use baryon_serve::{ServeConfig, Server};
use baryon_sim::json::{parse, Json};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("baryon-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn boot(journal_dir: &Path) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind(ServeConfig {
        port: 0,
        workers: 1,
        queue_depth: 8,
        journal_dir: Some(journal_dir.to_path_buf()),
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

fn quick_spec() -> RunSpec {
    RunSpec {
        workload: "ycsb-a".into(),
        controller: "simple".into(),
        insts: 3_000,
        warmup: 500,
        scale: 2048,
        seed: 5,
        mlp: 1,
        telemetry: false,
        threads: 1,
        ..RunSpec::default()
    }
}

fn submit(addr: SocketAddr, body: &str) -> ClientResponse {
    client::request(addr, "POST", "/v1/jobs", Some(body)).expect("submit reachable")
}

/// Settled jobs and their results survive a clean restart, and the ID
/// counter continues above the recovered jobs.
#[test]
fn finished_jobs_survive_restart() {
    let dir = temp_dir("finished");
    let spec_body = quick_spec().to_json().render();

    let (addr, handle) = boot(&dir);
    let accepted = submit(addr, &spec_body);
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let status = await_job(addr, 1);
    assert_eq!(status.get("state"), Some(&Json::from("done")));
    let result = status.get("result").map(Json::render);
    assert!(result.is_some(), "done job has a result");
    shutdown(addr, handle);

    // Second incarnation, same journal directory.
    let (addr, handle) = boot(&dir);
    let r = client::request(addr, "GET", "/v1/jobs/1", None).expect("status reachable");
    assert_eq!(r.status, 200, "{}", r.body);
    let doc = parse(&r.body).expect("status is JSON");
    assert_eq!(doc.get("state"), Some(&Json::from("done")));
    assert_eq!(
        doc.get("result").map(Json::render),
        result,
        "journaled result changed across restart"
    );
    // New submissions never collide with recovered IDs.
    let accepted = submit(addr, &spec_body);
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    assert!(accepted.body.contains("\"id\":2"), "{}", accepted.body);
    await_job(addr, 2);
    shutdown(addr, handle);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A job that was accepted but never started (the process died first)
/// runs to completion on the next boot, and an interrupted run resumes
/// from its checkpoint to the bit-identical uninterrupted result.
#[test]
fn unstarted_and_interrupted_jobs_recover() {
    let dir = temp_dir("interrupted");
    let spec = quick_spec();
    let golden = spec.execute().expect("golden run").to_json().render();

    // Fake the crashed incarnation's journal: job 1 was accepted and
    // never started; job 2 was mid-run with a checkpoint on disk.
    {
        let mut system = spec.build_system().expect("system");
        system.begin(spec.insts);
        assert!(!system.advance(800), "run too short to interrupt");
        spec.checkpoint_of(&system)
            .save_rotating(&dir.join("ckpt-2"), CHECKPOINT_PREFIX, 2)
            .expect("write checkpoint");
        let journal = Journal::open(&dir).expect("open journal");
        for event in [
            JournalEvent::Submit {
                id: 1,
                spec_json: spec.to_json().render(),
            },
            JournalEvent::Submit {
                id: 2,
                spec_json: spec.to_json().render(),
            },
            JournalEvent::Start { id: 2 },
        ] {
            journal.append(&event).expect("append");
        }
    }

    let (addr, handle) = boot(&dir);
    for id in [1, 2] {
        let status = await_job(addr, id);
        assert_eq!(
            status.get("state"),
            Some(&Json::from("done")),
            "job {id}: {}",
            status.render()
        );
        assert_eq!(
            status.get("result").map(Json::render),
            Some(golden.clone()),
            "job {id} diverged from the uninterrupted golden"
        );
    }
    // The metrics document reports the recovery.
    let r = client::request(addr, "GET", "/v1/metrics", None).expect("metrics reachable");
    assert!(r.body.contains("\"serve.jobs.recovered\":2"), "{}", r.body);
    // The resumed job's checkpoints were cleaned up on completion.
    assert!(!dir.join("ckpt-2").exists(), "checkpoints linger");
    shutdown(addr, handle);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
