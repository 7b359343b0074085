//! Live per-job progress and the event-stream framing.
//!
//! Workers publish [`JobProgress`] snapshots into their job's record as
//! the run advances (fed by the simulator's incremental `RunCursor`
//! execution); each `GET /v1/jobs/<id>/events` stream waits on its
//! process's one job-state condvar and emits a chunk whenever the
//! snapshot's sequence number moves. Publishing is observational only — it
//! never perturbs a run.
//!
//! The stream framing lives here too, shared by a serving process and a
//! fleet coordinator: one JSON event object per line over chunked
//! transfer encoding ([`send_event`]), driven by an [`EventCursor`]
//! (`progress` events, `alive` heartbeats) and closed by [`end_stream`].

use crate::http::ChunkedWriter;
use baryon_sim::json::Json;
use std::io::{self, Write};
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
pub fn end_stream<W: Write>(stream: ChunkedWriter<W>, id: u64, state: &str) -> io::Result<()> {
    let end = Json::obj([
        ("event", Json::from("end")),
        ("id", Json::from(id)),
        ("state", Json::from(state)),
    ]);
    let mut line = end.render();
    line.push('\n');
    stream.finish(line.as_bytes())
}

/// How many empty waits (500 ms each) between `alive` heartbeats on an
/// otherwise idle event stream — a dead peer is noticed within ~10 s even
/// when the job publishes nothing (e.g. still queued).
const STREAM_HEARTBEAT_WAITS: u32 = 20;

/// How long one [`EventCursor::wait`] waits for news.
const STREAM_WAIT: Duration = Duration::from_millis(500);

/// One event stream's position: the last snapshot it sent and how long it
/// has been idle.
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
        progress: Option<&JobProgress>,
        stream: &mut ChunkedWriter<W>,
    ) -> io::Result<()> {
        match progress {
            Some(p) if p.seq > self.last_seq => {
                self.last_seq = p.seq;
                self.idle_waits = 0;
                send_event(stream, &p.to_json(self.id))
            }
            _ => Ok(()),
        }
    }

    /// Waits for news through `wait_past(seq, timeout)`, which blocks up
    /// to `timeout` (500 ms) until the job's snapshot moves past `seq` (the
    /// last one sent) or the job settles, and says whether it did. After
    /// `STREAM_HEARTBEAT_WAITS` empty waits in a row, sends an `alive`
    /// heartbeat.
    ///
    /// # Errors
    ///
    /// The write failure (the streaming client hung up).
    pub fn wait<W: Write>(
        &mut self,
        stream: &mut ChunkedWriter<W>,
        wait_past: impl FnOnce(u64, Duration) -> bool,
    ) -> io::Result<()> {
        if wait_past(self.last_seq, STREAM_WAIT) {
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

    #[test]
    fn a_cursor_sends_moved_snapshots_and_heartbeats_when_idle() {
        let mut out = Vec::new();
        let mut stream = ChunkedWriter::begin(&mut out, 200, &[]).expect("head");
        let mut cursor = EventCursor::new(4);
        let p = JobProgress {
            seq: 2,
            ..JobProgress::default()
        };
        cursor.send_progress(Some(&p), &mut stream).expect("sent");
        cursor
            .send_progress(Some(&p), &mut stream)
            .expect("unmoved");
        cursor
            .send_progress(None, &mut stream)
            .expect("nothing yet");
        let mut asked = Vec::new();
        for _ in 0..STREAM_HEARTBEAT_WAITS {
            cursor
                .wait(&mut stream, |seq, timeout| {
                    asked.push((seq, timeout));
                    false
                })
                .expect("idle wait");
        }
        // A wait that sees news sends nothing.
        cursor.wait(&mut stream, |_, _| true).expect("news");
        assert!(asked.iter().all(|&a| a == (2, STREAM_WAIT)), "{asked:?}");
        let text = String::from_utf8(out).expect("utf-8");
        assert_eq!(text.matches("\"event\":\"progress\"").count(), 1, "{text}");
        assert_eq!(text.matches("\"event\":\"alive\"").count(), 1, "{text}");
        assert!(
            text.ends_with("{\"event\":\"alive\",\"id\":4}\n\r\n"),
            "{text}"
        );
    }
}
