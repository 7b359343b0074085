//! Live per-job progress shared between workers and event streams.
//!
//! Workers publish [`JobProgress`] snapshots into the [`ProgressBoard`] as
//! their run advances (fed by the simulator's incremental `RunCursor`
//! execution); each `GET /v1/jobs/<id>/events` stream blocks on the board
//! and emits a chunk whenever the snapshot's sequence number moves. The
//! board is observational only — publishing never perturbs a run, and a
//! job with no subscribers pays one mutex lock per observation interval.
//!
//! The stream framing lives here too, shared by a serving process and a
//! fleet coordinator: one JSON event object per line over chunked
//! transfer encoding ([`send_event`]), driven by an [`EventCursor`]
//! (`progress` events, `alive` heartbeats) and closed by [`end_stream`].

use crate::http::{ChunkedWriter, Request};
use baryon_sim::json::Json;
use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// One job's latest progress snapshot. For single runs the simulator
/// fields (`phase`, `ops`, `insts_done`, `insts_target`, `cycles`) carry
/// the signal and `cells_total` is 1; for grids the cell counters carry it
/// and the simulator fields describe the cell currently executing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JobProgress {
    /// Bumps on every publish; streams emit when it moves past what they
    /// last sent, so `seq` is strictly monotonic within one stream.
    pub seq: u64,
    /// Run phase: `warmup`, `measure`, or `done`.
    pub phase: &'static str,
    /// Trace operations executed since the (current cell's) run began.
    /// Strictly monotonic over a single run — the ordering guarantee
    /// streamed consumers assert on.
    pub ops: u64,
    /// Instructions retired so far (cumulative across warmup + measure).
    pub insts_done: u64,
    /// Instruction target (steps up once at the warmup/measure boundary).
    pub insts_target: u64,
    /// Measure-phase cycles so far (0 during warmup).
    pub cycles: u64,
    /// Grid cells completed.
    pub cells_done: u64,
    /// Total grid cells (1 for a single run).
    pub cells_total: u64,
}

impl JobProgress {
    /// The event-stream JSON for this snapshot (without the `event` tag —
    /// the stream layer wraps it).
    pub fn to_json(&self, id: u64) -> Json {
        Json::obj([
            ("event", Json::from("progress")),
            ("id", Json::from(id)),
            ("seq", Json::from(self.seq)),
            ("phase", Json::from(self.phase)),
            ("ops", Json::from(self.ops)),
            ("insts_done", Json::from(self.insts_done)),
            ("insts_target", Json::from(self.insts_target)),
            ("cycles", Json::from(self.cycles)),
            ("cells_done", Json::from(self.cells_done)),
            ("cells_total", Json::from(self.cells_total)),
        ])
    }
}

/// The shared progress table: job ID → latest snapshot, with a condvar so
/// event streams can sleep until something moves.
#[derive(Default)]
pub struct ProgressBoard {
    inner: Mutex<HashMap<u64, JobProgress>>,
    moved: Condvar,
}

impl ProgressBoard {
    /// Creates an empty board.
    pub fn new() -> ProgressBoard {
        ProgressBoard::default()
    }

    /// Publishes an update for `id`: `apply` mutates the job's snapshot
    /// (created zeroed on first publish), the sequence number bumps, and
    /// every waiting stream wakes.
    pub fn publish(&self, id: u64, apply: impl FnOnce(&mut JobProgress)) {
        let mut inner = self.inner.lock().expect("progress lock poisoned");
        let entry = inner.entry(id).or_default();
        apply(entry);
        entry.seq += 1;
        drop(inner);
        self.moved.notify_all();
    }

    /// The latest snapshot for `id`, if the job has published anything.
    pub fn get(&self, id: u64) -> Option<JobProgress> {
        self.inner
            .lock()
            .expect("progress lock poisoned")
            .get(&id)
            .cloned()
    }

    /// Blocks until `id` has a snapshot with `seq > after`, `ended()`
    /// holds, or `timeout` elapses. Returns the newer snapshot, or `None`
    /// on timeout or end (callers re-check job state and come back —
    /// settled jobs stop publishing).
    ///
    /// `ended` is asked under the board lock, and a job's end must be
    /// visible to it before the job's last [`ProgressBoard::publish`] or
    /// [`ProgressBoard::remove`]: then an end that lands between a
    /// caller's own state check and this wait still wakes it at once.
    pub fn wait_past(
        &self,
        id: u64,
        after: u64,
        timeout: Duration,
        ended: impl Fn() -> bool,
    ) -> Option<JobProgress> {
        let inner = self.inner.lock().expect("progress lock poisoned");
        let (inner, timed_out) = self
            .moved
            .wait_timeout_while(inner, timeout, |map| {
                map.get(&id).is_none_or(|p| p.seq <= after) && !ended()
            })
            .map(|(guard, result)| (guard, result.timed_out()))
            .expect("progress lock poisoned");
        if timed_out {
            return None;
        }
        inner.get(&id).filter(|p| p.seq > after).cloned()
    }

    /// Drops a settled job's snapshot (its final state now lives in the
    /// job table; keeping board entries for evicted jobs would leak).
    pub fn remove(&self, id: u64) {
        self.inner
            .lock()
            .expect("progress lock poisoned")
            .remove(&id);
        self.moved.notify_all();
    }
}

/// `GET /v1/jobs/<id>/events` → the job ID; anything else → `None`.
pub fn events_target(request: &Request) -> Option<u64> {
    if request.method != "GET" {
        return None;
    }
    let path = request
        .path
        .split_once('?')
        .map_or(request.path.as_str(), |(p, _)| p);
    path.strip_prefix("/v1/jobs/")?
        .strip_suffix("/events")?
        .parse()
        .ok()
}

/// Sends one event object as a line of a chunked event stream.
///
/// # Errors
///
/// The write failure (the streaming client hung up).
pub fn send_event<W: Write>(stream: &mut ChunkedWriter<W>, event: &Json) -> io::Result<()> {
    let mut line = event.render();
    line.push('\n');
    stream.chunk(line.as_bytes())
}

/// Sends the final `end` event carrying the job's settled state (or
/// `evicted`) and closes the stream.
///
/// # Errors
///
/// The write failure (the streaming client hung up).
pub fn end_stream<W: Write>(mut stream: ChunkedWriter<W>, id: u64, state: &str) -> io::Result<()> {
    send_event(
        &mut stream,
        &Json::obj([
            ("event", Json::from("end")),
            ("id", Json::from(id)),
            ("state", Json::from(state)),
        ]),
    )?;
    stream.finish()
}

/// How many empty waits (500 ms each) between `alive` heartbeats on an
/// otherwise idle event stream — a dead peer is noticed within ~10 s even
/// when the job publishes nothing (e.g. still queued).
const STREAM_HEARTBEAT_WAITS: u32 = 20;

/// One event stream's position on a [`ProgressBoard`]: the last snapshot
/// it sent and how long it has been idle.
pub struct EventCursor {
    id: u64,
    last_seq: u64,
    idle_waits: u32,
}

impl EventCursor {
    /// A cursor for job `id` that has sent nothing yet.
    pub fn new(id: u64) -> EventCursor {
        EventCursor {
            id,
            last_seq: 0,
            idle_waits: 0,
        }
    }

    /// Sends the job's latest snapshot as a `progress` event if it moved
    /// past the last one sent.
    ///
    /// # Errors
    ///
    /// The write failure (the streaming client hung up).
    pub fn send_progress<W: Write>(
        &mut self,
        board: &ProgressBoard,
        stream: &mut ChunkedWriter<W>,
    ) -> io::Result<()> {
        match board.get(self.id) {
            Some(p) if p.seq > self.last_seq => {
                self.last_seq = p.seq;
                self.idle_waits = 0;
                send_event(stream, &p.to_json(self.id))
            }
            _ => Ok(()),
        }
    }

    /// Waits up to 500 ms for the job's progress to move or for `ended()`
    /// (see [`ProgressBoard::wait_past`]); after `STREAM_HEARTBEAT_WAITS`
    /// empty waits in a row, sends an `alive` heartbeat.
    ///
    /// # Errors
    ///
    /// The write failure (the streaming client hung up).
    pub fn wait<W: Write>(
        &mut self,
        board: &ProgressBoard,
        stream: &mut ChunkedWriter<W>,
        ended: impl Fn() -> bool,
    ) -> io::Result<()> {
        if board
            .wait_past(self.id, self.last_seq, Duration::from_millis(500), ended)
            .is_some()
        {
            return Ok(());
        }
        self.idle_waits += 1;
        if self.idle_waits < STREAM_HEARTBEAT_WAITS {
            return Ok(());
        }
        self.idle_waits = 0;
        send_event(
            stream,
            &Json::obj([("event", Json::from("alive")), ("id", Json::from(self.id))]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn publish_bumps_seq_and_get_sees_it() {
        let board = ProgressBoard::new();
        assert_eq!(board.get(7), None);
        board.publish(7, |p| {
            p.phase = "warmup";
            p.ops = 100;
            p.cells_total = 1;
        });
        let p = board.get(7).expect("published");
        assert_eq!(p.seq, 1);
        assert_eq!(p.ops, 100);
        board.publish(7, |p| p.ops = 200);
        let p = board.get(7).expect("published");
        assert_eq!(p.seq, 2);
        assert_eq!(p.ops, 200);
        board.remove(7);
        assert_eq!(board.get(7), None);
    }

    #[test]
    fn wait_past_times_out_without_updates() {
        let board = ProgressBoard::new();
        board.publish(1, |p| p.ops = 1);
        assert!(board
            .wait_past(1, 1, Duration::from_millis(10), || false)
            .is_none());
        // seq 1 already satisfies `after = 0` — returns immediately.
        let p = board
            .wait_past(1, 0, Duration::from_millis(10), || false)
            .expect("already past");
        assert_eq!(p.seq, 1);
    }

    #[test]
    fn wait_past_wakes_on_publish() {
        let board = Arc::new(ProgressBoard::new());
        let waiter = Arc::clone(&board);
        let handle =
            std::thread::spawn(move || waiter.wait_past(9, 0, Duration::from_secs(5), || false));
        std::thread::sleep(Duration::from_millis(20));
        board.publish(9, |p| p.ops = 42);
        let p = handle.join().expect("no panic").expect("woken");
        assert_eq!(p.ops, 42);
    }

    #[test]
    fn wait_past_ends_with_the_job_even_if_it_never_published() {
        let board = Arc::new(ProgressBoard::new());
        let ended = Arc::new(AtomicBool::new(false));
        let (waiter, flag) = (Arc::clone(&board), Arc::clone(&ended));
        let handle = std::thread::spawn(move || {
            let started = Instant::now();
            let seen =
                waiter.wait_past(5, 0, Duration::from_secs(5), || flag.load(Ordering::SeqCst));
            (seen, started.elapsed())
        });
        std::thread::sleep(Duration::from_millis(20));
        // A settle: the end becomes visible, then the board lets go.
        ended.store(true, Ordering::SeqCst);
        board.remove(5);
        let (seen, waited) = handle.join().expect("no panic");
        assert_eq!(seen, None);
        assert!(waited < Duration::from_secs(1), "woke late: {waited:?}");
        // An end that landed before the wait began returns at once, even
        // if the job published and dropped a snapshot in between: only
        // `ended` can tell the waiter.
        let started = Instant::now();
        assert_eq!(board.wait_past(6, 0, Duration::from_secs(5), || true), None);
        assert!(started.elapsed() < Duration::from_secs(1));
        // A job that has not ended keeps its waiter parked until timeout.
        assert!(board
            .wait_past(7, 0, Duration::from_millis(10), || false)
            .is_none());
    }

    #[test]
    fn progress_json_shape() {
        let mut p = JobProgress {
            seq: 3,
            phase: "measure",
            ops: 500,
            insts_done: 400,
            insts_target: 1000,
            cycles: 2000,
            cells_done: 0,
            cells_total: 1,
        };
        let text = p.to_json(12).render();
        assert!(
            text.starts_with("{\"event\":\"progress\",\"id\":12,\"seq\":3,"),
            "{text}"
        );
        assert!(text.contains("\"phase\":\"measure\""), "{text}");
        assert!(text.contains("\"ops\":500"), "{text}");
        p.phase = "done";
        assert!(p.to_json(12).render().contains("\"phase\":\"done\""));
    }

    #[test]
    fn events_target_takes_only_event_stream_gets() {
        let request = |method: &str, path: &str| Request {
            method: method.into(),
            path: path.into(),
            headers: Vec::new(),
            body: Vec::new(),
        };
        assert_eq!(
            events_target(&request("GET", "/v1/jobs/12/events")),
            Some(12)
        );
        assert_eq!(
            events_target(&request("GET", "/v1/jobs/12/events?x=1")),
            Some(12)
        );
        assert_eq!(events_target(&request("POST", "/v1/jobs/12/events")), None);
        assert_eq!(events_target(&request("GET", "/v1/jobs/12")), None);
        assert_eq!(events_target(&request("GET", "/v1/jobs/x/events")), None);
    }

    #[test]
    fn stream_framing_is_one_json_line_per_chunk() {
        let mut out = Vec::new();
        let mut stream = ChunkedWriter::begin(&mut out, 200, &[]).expect("head");
        send_event(&mut stream, &Json::obj([("event", Json::from("alive"))])).expect("event");
        end_stream(stream, 3, "done").expect("end");
        let text = String::from_utf8(out).expect("utf-8");
        let body = text.split_once("\r\n\r\n").expect("head ends").1;
        assert_eq!(
            body,
            "12\r\n{\"event\":\"alive\"}\n\r\n\
             26\r\n{\"event\":\"end\",\"id\":3,\"state\":\"done\"}\n\r\n0\r\n\r\n"
        );
    }
}
