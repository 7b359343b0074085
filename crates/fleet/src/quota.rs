//! Fairness under overload: per-client quotas and a two-level priority
//! queue at the coordinator.
//!
//! Two mechanisms keep a heavy client from starving everyone else:
//!
//! * **Per-client in-flight quotas** — each client (the `x-baryon-client`
//!   header, `anon` by default) may have at most K unsettled jobs at the
//!   coordinator; job K+1 gets `429 quota_exceeded` with `Retry-After`.
//! * **Two service classes** — `interactive` (single runs by default) and
//!   `batch` (grid sweeps by default), overridable via `x-baryon-class`.
//!   Dispatchers always drain interactive work first, and each class has
//!   its own bounded queue with its own `Retry-After` on overflow, so a
//!   full batch backlog never delays (or rejects) interactive jobs.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};

/// The two service classes of the coordinator's dispatch queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Latency-sensitive: dispatched before any batch work.
    Interactive,
    /// Throughput work (grid sweeps); yields to interactive.
    Batch,
}

impl Class {
    /// The wire name (`interactive` / `batch`).
    pub fn as_str(self) -> &'static str {
        match self {
            Class::Interactive => "interactive",
            Class::Batch => "batch",
        }
    }

    /// Parses the `x-baryon-class` header value.
    pub fn parse(s: &str) -> Option<Class> {
        match s {
            "interactive" => Some(Class::Interactive),
            "batch" => Some(Class::Batch),
            _ => None,
        }
    }

    /// The `Retry-After` seconds a rejected submission of this class is
    /// told to wait: interactive queues drain fast, batch backlogs are
    /// long-lived by design.
    pub fn retry_after_secs(self) -> u64 {
        match self {
            Class::Interactive => 1,
            Class::Batch => 5,
        }
    }
}

/// Per-client in-flight job caps.
pub struct ClientQuotas {
    max_in_flight: usize,
    in_flight: Mutex<HashMap<String, usize>>,
}

impl ClientQuotas {
    /// A quota table allowing each client `max_in_flight` unsettled jobs.
    ///
    /// # Panics
    ///
    /// Panics if `max_in_flight` is zero (no job could ever be accepted).
    pub fn new(max_in_flight: usize) -> ClientQuotas {
        assert!(max_in_flight > 0, "quota must admit at least one job");
        ClientQuotas {
            max_in_flight,
            in_flight: Mutex::new(HashMap::new()),
        }
    }

    /// The configured cap.
    pub fn max_in_flight(&self) -> usize {
        self.max_in_flight
    }

    /// Takes one slot for `client`; false when the client is at its cap.
    pub fn try_acquire(&self, client: &str) -> bool {
        let mut table = self.in_flight.lock().expect("quota lock poisoned");
        let count = table.entry(client.to_owned()).or_insert(0);
        if *count >= self.max_in_flight {
            return false;
        }
        *count += 1;
        true
    }

    /// Releases one slot for `client` (called when its job settles).
    pub fn release(&self, client: &str) {
        let mut table = self.in_flight.lock().expect("quota lock poisoned");
        if let Some(count) = table.get_mut(client) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                table.remove(client);
            }
        }
    }

    /// Current in-flight count for `client`.
    pub fn in_flight(&self, client: &str) -> usize {
        *self
            .in_flight
            .lock()
            .expect("quota lock poisoned")
            .get(client)
            .unwrap_or(&0)
    }
}

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueError {
    /// The class's queue is at capacity; retry after the class's
    /// `Retry-After`.
    Full,
    /// The coordinator is shutting down.
    Closed,
}

struct Levels<T> {
    interactive: VecDeque<T>,
    batch: VecDeque<T>,
    closed: bool,
}

/// A two-level blocking queue: strict interactive-over-batch priority,
/// independent per-class capacity.
pub struct QosQueue<T> {
    levels: Mutex<Levels<T>>,
    available: Condvar,
    cap_per_class: usize,
}

impl<T> QosQueue<T> {
    /// A queue admitting up to `cap_per_class` items in each class.
    ///
    /// # Panics
    ///
    /// Panics if `cap_per_class` is zero.
    pub fn new(cap_per_class: usize) -> QosQueue<T> {
        assert!(cap_per_class > 0, "queue must admit at least one item");
        QosQueue {
            levels: Mutex::new(Levels {
                interactive: VecDeque::new(),
                batch: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            cap_per_class,
        }
    }

    /// Enqueues into the class's level.
    ///
    /// # Errors
    ///
    /// [`QueueError::Full`] at the class cap, [`QueueError::Closed`] after
    /// [`QosQueue::close`].
    pub fn push(&self, class: Class, item: T) -> Result<(), QueueError> {
        let mut levels = self.levels.lock().expect("queue lock poisoned");
        if levels.closed {
            return Err(QueueError::Closed);
        }
        let level = match class {
            Class::Interactive => &mut levels.interactive,
            Class::Batch => &mut levels.batch,
        };
        if level.len() >= self.cap_per_class {
            return Err(QueueError::Full);
        }
        level.push_back(item);
        drop(levels);
        self.available.notify_one();
        Ok(())
    }

    /// Re-enqueues an item that was already admitted once (a dispatch
    /// retry), bypassing the class cap: the cap gates *new* admissions,
    /// and refusing a requeue would either lose the job or deadlock the
    /// dispatch slot holding it against a full queue.
    ///
    /// # Errors
    ///
    /// Only [`QueueError::Closed`] after [`QosQueue::close`].
    pub fn requeue(&self, class: Class, item: T) -> Result<(), QueueError> {
        let mut levels = self.levels.lock().expect("queue lock poisoned");
        if levels.closed {
            return Err(QueueError::Closed);
        }
        let level = match class {
            Class::Interactive => &mut levels.interactive,
            Class::Batch => &mut levels.batch,
        };
        level.push_back(item);
        drop(levels);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks for the next item — interactive first, batch only when the
    /// interactive level is empty. `None` once closed and fully drained.
    pub fn pop(&self) -> Option<T> {
        let mut levels = self.levels.lock().expect("queue lock poisoned");
        loop {
            if let Some(item) = levels.interactive.pop_front() {
                return Some(item);
            }
            if let Some(item) = levels.batch.pop_front() {
                return Some(item);
            }
            if levels.closed {
                return None;
            }
            levels = self.available.wait(levels).expect("queue lock poisoned");
        }
    }

    /// Closes the queue: pushes fail, pops drain what is left then return
    /// `None`.
    pub fn close(&self) {
        self.levels.lock().expect("queue lock poisoned").closed = true;
        self.available.notify_all();
    }

    /// Current `(interactive, batch)` depths.
    pub fn depths(&self) -> (usize, usize) {
        let levels = self.levels.lock().expect("queue lock poisoned");
        (levels.interactive.len(), levels.batch.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_wire_round_trip() {
        for class in [Class::Interactive, Class::Batch] {
            assert_eq!(Class::parse(class.as_str()), Some(class));
        }
        assert_eq!(Class::parse("turbo"), None);
        assert!(Class::Interactive.retry_after_secs() < Class::Batch.retry_after_secs());
    }

    #[test]
    fn quotas_cap_and_release() {
        let quotas = ClientQuotas::new(2);
        assert!(quotas.try_acquire("alice"));
        assert!(quotas.try_acquire("alice"));
        assert!(!quotas.try_acquire("alice"), "third job exceeds the cap");
        assert!(quotas.try_acquire("bob"), "caps are per-client");
        quotas.release("alice");
        assert_eq!(quotas.in_flight("alice"), 1);
        assert!(quotas.try_acquire("alice"), "released slot is reusable");
        quotas.release("bob");
        assert_eq!(quotas.in_flight("bob"), 0, "empty entries are dropped");
        quotas.release("nobody"); // releasing an unknown client is a no-op
    }

    #[test]
    fn interactive_preempts_batch() {
        let q: QosQueue<u32> = QosQueue::new(8);
        q.push(Class::Batch, 1).expect("room");
        q.push(Class::Batch, 2).expect("room");
        q.push(Class::Interactive, 10).expect("room");
        q.push(Class::Interactive, 11).expect("room");
        assert_eq!(q.depths(), (2, 2));
        let order: Vec<u32> = (0..4).map(|_| q.pop().expect("item")).collect();
        assert_eq!(order, [10, 11, 1, 2], "interactive drains first");
    }

    #[test]
    fn per_class_caps_are_independent() {
        let q: QosQueue<u32> = QosQueue::new(1);
        q.push(Class::Batch, 1).expect("room");
        assert_eq!(q.push(Class::Batch, 2), Err(QueueError::Full));
        // A full batch level never blocks interactive admission.
        q.push(Class::Interactive, 3).expect("own cap");
        q.close();
        assert_eq!(q.push(Class::Interactive, 4), Err(QueueError::Closed));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None, "closed and drained");
    }

    #[test]
    fn requeue_bypasses_the_cap_but_not_close() {
        let q: QosQueue<u32> = QosQueue::new(1);
        q.push(Class::Interactive, 1).expect("room");
        assert_eq!(q.push(Class::Interactive, 2), Err(QueueError::Full));
        q.requeue(Class::Interactive, 2)
            .expect("requeue ignores the cap");
        assert_eq!(q.depths(), (2, 0));
        q.close();
        assert_eq!(q.requeue(Class::Interactive, 3), Err(QueueError::Closed));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn concurrent_acquire_release_never_leaks_or_underflows() {
        let quotas = std::sync::Arc::new(ClientQuotas::new(4));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let quotas = std::sync::Arc::clone(&quotas);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        if quotas.try_acquire("shared") {
                            assert!(quotas.in_flight("shared") <= 4, "cap never overshoots");
                            quotas.release("shared");
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("no panic");
        }
        assert_eq!(quotas.in_flight("shared"), 0, "every slot returned");
        // A double release after the count hit zero must not underflow into
        // a huge in-flight value that blocks the client forever.
        quotas.release("shared");
        assert_eq!(quotas.in_flight("shared"), 0);
        assert!(quotas.try_acquire("shared"));
    }

    #[test]
    fn interactive_never_starves_behind_continuous_batch() {
        let q: QosQueue<u32> = QosQueue::new(256);
        // A deep standing batch backlog, refilled after every pop — the
        // batch level never goes empty, as under a saturating sweep.
        for i in 0..64 {
            q.push(Class::Batch, i).expect("room");
        }
        for round in 0..32 {
            q.push(Class::Interactive, 1000 + round).expect("room");
            q.push(Class::Batch, 100 + round).expect("room");
            let got = q.pop().expect("item");
            assert_eq!(
                got,
                1000 + round,
                "round {round}: the pending interactive item always pops first"
            );
        }
    }

    #[test]
    fn pop_wakes_on_push() {
        let q = std::sync::Arc::new(QosQueue::<u32>::new(4));
        let waiter = std::sync::Arc::clone(&q);
        let handle = std::thread::spawn(move || waiter.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.push(Class::Batch, 7).expect("room");
        assert_eq!(handle.join().expect("no panic"), Some(7));
    }
}
