//! The A/B configuration slot machine: the pure core of fleet rollout.
//!
//! Two slots hold fleet policies. Exactly one is **active** at any time;
//! the other receives **staged** candidates. A commit begins a rollout
//! toward the staged slot; a rollback begins one toward the previous
//! slot. The machine only records *decisions and outcomes* — the
//! coordinator's rollout engine performs the actual rolling restarts and
//! reports back with [`SlotMachine::boot_succeeded`] /
//! [`SlotMachine::boot_failed`].
//!
//! Legal transitions only (enforced, property-tested in
//! `tests/config_props.rs`):
//!
//! ```text
//!           stage(policy)             begin_commit
//!   Empty ───────────────▶ Staged ─────────────────▶ (in flight)
//!                            ▲                          │ boot_succeeded
//!                            │ re-stage                 ▼
//!   Bad / Previous ──────────┘                        Active ──▶ Previous
//!                                                       ▲           │
//!                                                       └───────────┘
//!                                                      begin_rollback
//! ```
//!
//! * no commit without a staged slot;
//! * rollback only with a previous slot;
//! * at most one rollout in flight;
//! * a failed boot marks the slot **Bad** and leaves the active slot
//!   untouched — the active slot always holds a validated (or baseline)
//!   policy.

use baryon_core::policy::{FleetPolicy, Knobs, PolicyError};
use baryon_sim::json::Json;
use baryon_sim::wire::{Reader, WireError, Writer};

/// One of the two config slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Slot A (the boot-time active slot).
    A,
    /// Slot B.
    B,
}

impl Slot {
    /// The other slot.
    pub fn other(self) -> Slot {
        match self {
            Slot::A => Slot::B,
            Slot::B => Slot::A,
        }
    }

    /// The wire name (`"a"` / `"b"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Slot::A => "a",
            Slot::B => "b",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<Slot> {
        match s {
            "a" => Some(Slot::A),
            "b" => Some(Slot::B),
            _ => None,
        }
    }

    fn index(self) -> usize {
        match self {
            Slot::A => 0,
            Slot::B => 1,
        }
    }
}

/// What a slot currently holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// Nothing yet.
    Empty,
    /// A validated candidate awaiting commit.
    Staged,
    /// The policy the fleet is serving under.
    Active,
    /// The previously active policy (the rollback target).
    Previous,
    /// The last rollout toward this slot failed; the candidate is kept
    /// for inspection but must be re-staged before another attempt.
    Bad,
}

impl SlotState {
    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            SlotState::Empty => "empty",
            SlotState::Staged => "staged",
            SlotState::Active => "active",
            SlotState::Previous => "previous",
            SlotState::Bad => "bad",
        }
    }

    fn tag(self) -> u8 {
        match self {
            SlotState::Empty => 0,
            SlotState::Staged => 1,
            SlotState::Active => 2,
            SlotState::Previous => 3,
            SlotState::Bad => 4,
        }
    }

    fn from_tag(tag: u8) -> Result<SlotState, WireError> {
        Ok(match tag {
            0 => SlotState::Empty,
            1 => SlotState::Staged,
            2 => SlotState::Active,
            3 => SlotState::Previous,
            4 => SlotState::Bad,
            other => return Err(WireError::BadTag(other)),
        })
    }
}

/// Which direction an in-flight rollout is moving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flight {
    /// Toward a freshly staged slot.
    Commit,
    /// Back toward the previous slot.
    Rollback,
}

/// One slot's contents.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotInfo {
    /// What the slot holds.
    pub state: SlotState,
    /// The config generation of the held policy (0 = baseline).
    pub generation: u64,
    /// The held policy; `None` only for [`SlotState::Empty`] or the
    /// boot-time baseline active slot.
    pub policy: Option<FleetPolicy>,
}

impl SlotInfo {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("state".to_owned(), Json::from(self.state.as_str())),
            ("generation".to_owned(), Json::U64(self.generation)),
        ];
        if let Some(policy) = &self.policy {
            pairs.push(("policy".to_owned(), policy.to_json()));
        }
        Json::Obj(pairs)
    }
}

/// Why a stage was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum StageError {
    /// The candidate failed [`FleetPolicy::validate`].
    Invalid(PolicyError),
    /// A commit or rollback is in flight; the slots are frozen.
    RolloutInFlight,
}

impl std::fmt::Display for StageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StageError::Invalid(e) => write!(f, "{e}"),
            StageError::RolloutInFlight => f.write_str("a rollout is in flight"),
        }
    }
}

/// Why a commit was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitError {
    /// No staged candidate to commit.
    NothingStaged,
    /// A rollout is already in flight.
    RolloutInFlight,
}

impl std::fmt::Display for CommitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommitError::NothingStaged => f.write_str("nothing staged; stage a config first"),
            CommitError::RolloutInFlight => f.write_str("a rollout is in flight"),
        }
    }
}

/// Why a rollback was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RollbackError {
    /// No previous slot to roll back to.
    NoPrevious,
    /// A rollout is already in flight.
    RolloutInFlight,
}

impl std::fmt::Display for RollbackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RollbackError::NoPrevious => f.write_str("no previous config to roll back to"),
            RollbackError::RolloutInFlight => f.write_str("a rollout is in flight"),
        }
    }
}

/// The pure A/B slot-state machine. All methods are total and never
/// panic; illegal requests return typed errors and leave the state
/// untouched.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotMachine {
    slots: [SlotInfo; 2],
    in_flight: Option<(Slot, Flight)>,
    next_generation: u64,
    last_failed: Option<(Slot, u64)>,
    rollbacks: u64,
}

impl Default for SlotMachine {
    fn default() -> Self {
        Self::new()
    }
}

impl SlotMachine {
    /// Boot state: slot A active at generation 0 (the built-in baseline),
    /// slot B empty.
    pub fn new() -> SlotMachine {
        SlotMachine {
            slots: [
                SlotInfo {
                    state: SlotState::Active,
                    generation: 0,
                    policy: None,
                },
                SlotInfo {
                    state: SlotState::Empty,
                    generation: 0,
                    policy: None,
                },
            ],
            in_flight: None,
            next_generation: 1,
            last_failed: None,
            rollbacks: 0,
        }
    }

    /// The active slot and its contents.
    pub fn active(&self) -> (Slot, &SlotInfo) {
        // Invariant: exactly one slot is Active.
        if self.slots[0].state == SlotState::Active {
            (Slot::A, &self.slots[0])
        } else {
            (Slot::B, &self.slots[1])
        }
    }

    /// A slot's contents.
    pub fn slot(&self, slot: Slot) -> &SlotInfo {
        &self.slots[slot.index()]
    }

    /// The in-flight rollout, if any.
    pub fn in_flight(&self) -> Option<(Slot, Flight)> {
        self.in_flight
    }

    /// Completed auto- and manual rollback count.
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks
    }

    /// The last slot whose rollout failed, with its generation.
    pub fn last_failed(&self) -> Option<(Slot, u64)> {
        self.last_failed
    }

    /// Validates `policy` and stages it into the non-active slot
    /// (overwriting any Staged / Previous / Bad / Empty contents there),
    /// assigning it the next config generation. Returns the slot and the
    /// assigned generation; the policy's `generation` field is stamped.
    ///
    /// # Errors
    ///
    /// [`StageError::Invalid`] for a policy that fails validation,
    /// [`StageError::RolloutInFlight`] while a rollout is running.
    pub fn stage(&mut self, mut policy: FleetPolicy) -> Result<(Slot, u64), StageError> {
        if self.in_flight.is_some() {
            return Err(StageError::RolloutInFlight);
        }
        policy.validate().map_err(StageError::Invalid)?;
        let (active, _) = self.active();
        let target = active.other();
        let generation = self.next_generation;
        self.next_generation += 1;
        policy.generation = generation;
        self.slots[target.index()] = SlotInfo {
            state: SlotState::Staged,
            generation,
            policy: Some(policy),
        };
        Ok((target, generation))
    }

    /// Begins a rollout toward the staged slot. Returns the slot and its
    /// generation; the caller performs the rolling restart and reports
    /// back via [`SlotMachine::boot_succeeded`] /
    /// [`SlotMachine::boot_failed`].
    ///
    /// # Errors
    ///
    /// [`CommitError::NothingStaged`] without a staged candidate,
    /// [`CommitError::RolloutInFlight`] while one is running.
    pub fn begin_commit(&mut self) -> Result<(Slot, u64), CommitError> {
        if self.in_flight.is_some() {
            return Err(CommitError::RolloutInFlight);
        }
        let (active, _) = self.active();
        let target = active.other();
        if self.slots[target.index()].state != SlotState::Staged {
            return Err(CommitError::NothingStaged);
        }
        self.in_flight = Some((target, Flight::Commit));
        Ok((target, self.slots[target.index()].generation))
    }

    /// Begins a rollout back toward the previous slot.
    ///
    /// # Errors
    ///
    /// [`RollbackError::NoPrevious`] without a previous slot,
    /// [`RollbackError::RolloutInFlight`] while a rollout is running.
    pub fn begin_rollback(&mut self) -> Result<(Slot, u64), RollbackError> {
        if self.in_flight.is_some() {
            return Err(RollbackError::RolloutInFlight);
        }
        let (active, _) = self.active();
        let target = active.other();
        if self.slots[target.index()].state != SlotState::Previous {
            return Err(RollbackError::NoPrevious);
        }
        self.in_flight = Some((target, Flight::Rollback));
        Ok((target, self.slots[target.index()].generation))
    }

    /// The fleet finished its rolling restart onto the in-flight slot:
    /// it becomes Active, the old active slot becomes Previous. A no-op
    /// if no rollout is in flight.
    pub fn boot_succeeded(&mut self) {
        let Some((target, flight)) = self.in_flight.take() else {
            return;
        };
        let old_active = target.other();
        self.slots[old_active.index()].state = SlotState::Previous;
        self.slots[target.index()].state = SlotState::Active;
        if flight == Flight::Rollback {
            self.rollbacks += 1;
        }
    }

    /// The rolling restart failed (health probe or canary): the in-flight
    /// slot is marked Bad, the active slot stays untouched, and — for a
    /// commit — the auto-rollback that restored the fleet is counted. A
    /// no-op if no rollout is in flight.
    pub fn boot_failed(&mut self) {
        let Some((target, flight)) = self.in_flight.take() else {
            return;
        };
        let generation = self.slots[target.index()].generation;
        self.slots[target.index()].state = SlotState::Bad;
        self.last_failed = Some((target, generation));
        if flight == Flight::Commit {
            // The engine rolled already-restarted shards back onto the
            // active policy; that is one completed (auto) rollback.
            self.rollbacks += 1;
        }
    }

    /// The machine state as a JSON document (the `GET /v1/admin/config`
    /// body).
    pub fn to_json(&self) -> Json {
        let (active, info) = self.active();
        let mut pairs = vec![
            ("active_slot".to_owned(), Json::from(active.as_str())),
            ("active_generation".to_owned(), Json::U64(info.generation)),
            ("slot_a".to_owned(), self.slots[0].to_json()),
            ("slot_b".to_owned(), self.slots[1].to_json()),
            ("rollbacks".to_owned(), Json::U64(self.rollbacks)),
        ];
        // A staged candidate gets a per-knob diff against the active
        // policy, so `fleet admin status` shows exactly what a commit
        // would change before anyone pulls the trigger.
        let staged = &self.slots[active.other().index()];
        if staged.state == SlotState::Staged {
            if let Some(policy) = &staged.policy {
                let base = info.policy.clone().unwrap_or_default();
                let changes = policy
                    .diff_from(&base)
                    .into_iter()
                    .map(|(knob, from, to)| {
                        (
                            knob.to_owned(),
                            Json::obj([("from", Json::from(from)), ("to", Json::from(to))]),
                        )
                    })
                    .collect();
                pairs.push((
                    "staged_diff".to_owned(),
                    Json::obj([
                        ("from_generation", Json::U64(info.generation)),
                        ("to_generation", Json::U64(staged.generation)),
                        ("changes", Json::Obj(changes)),
                    ]),
                ));
            }
        }
        if let Some((slot, flight)) = self.in_flight {
            pairs.push((
                "in_flight".to_owned(),
                Json::obj([
                    ("slot", Json::from(slot.as_str())),
                    (
                        "direction",
                        Json::from(match flight {
                            Flight::Commit => "commit",
                            Flight::Rollback => "rollback",
                        }),
                    ),
                ]),
            ));
        }
        if let Some((slot, generation)) = self.last_failed {
            pairs.push((
                "last_failed".to_owned(),
                Json::obj([
                    ("slot", Json::from(slot.as_str())),
                    ("generation", Json::from(generation)),
                ]),
            ));
        }
        Json::Obj(pairs)
    }

    /// Serializes the machine over the wire codec (what the coordinator
    /// persists with `atomic_write`, so slots survive a restart). An
    /// in-flight rollout is deliberately NOT persisted: a coordinator
    /// that died mid-rollout reboots with the rollout abandoned and the
    /// slots as last durably recorded.
    pub fn save_state(&self, w: &mut Writer) {
        for slot in &self.slots {
            w.u8(slot.state.tag());
            w.u64(slot.generation);
            w.opt(slot.policy.is_some());
            if let Some(policy) = &slot.policy {
                policy.save_state(w);
            }
        }
        w.u64(self.next_generation);
        w.opt(self.last_failed.is_some());
        if let Some((slot, generation)) = self.last_failed {
            w.u8(slot.index() as u8);
            w.u64(generation);
        }
        w.u64(self.rollbacks);
    }

    /// Deserializes a machine written by [`SlotMachine::save_state`]. A
    /// policy persisted as fixed fields, before policies were stored as
    /// their JSON documents, is migrated (see [`load_policy`]).
    ///
    /// # Errors
    ///
    /// [`WireError`] on a truncated or malformed buffer, or one that does
    /// not hold exactly one active slot.
    pub fn load_state(r: &mut Reader<'_>) -> Result<SlotMachine, WireError> {
        let mut slots = Vec::with_capacity(2);
        for _ in 0..2 {
            let state = SlotState::from_tag(r.u8()?)?;
            let generation = r.u64()?;
            let policy = if r.opt()? {
                Some(load_policy(r)?)
            } else {
                None
            };
            slots.push(SlotInfo {
                state,
                generation,
                policy,
            });
        }
        let next_generation = r.u64()?;
        let last_failed = if r.opt()? {
            let slot = match r.u8()? {
                0 => Slot::A,
                1 => Slot::B,
                other => return Err(WireError::BadTag(other)),
            };
            Some((slot, r.u64()?))
        } else {
            None
        };
        let rollbacks = r.u64()?;
        let machine = SlotMachine {
            slots: [slots.remove(0), slots.remove(0)],
            in_flight: None,
            next_generation,
            last_failed,
            rollbacks,
        };
        let actives = machine
            .slots
            .iter()
            .filter(|s| s.state == SlotState::Active)
            .count();
        if actives != 1 {
            return Err(WireError::BadTag(actives as u8));
        }
        Ok(machine)
    }
}

/// A slot's policy: its JSON document or, in a slots file written before
/// that layout, 11 fixed fields (the generation, the 9 knobs of the time
/// and the two serving limits). Decoding both keeps an upgraded
/// coordinator's committed config and generation counter.
fn load_policy(r: &mut Reader<'_>) -> Result<FleetPolicy, WireError> {
    fn opt<'a, T>(
        r: &mut Reader<'a>,
        read: fn(&mut Reader<'a>) -> Result<T, WireError>,
    ) -> Result<Option<T>, WireError> {
        Ok(if r.opt()? { Some(read(r)?) } else { None })
    }
    let start = r.clone();
    if let Ok(policy) = FleetPolicy::load_state(r) {
        return Ok(policy);
    }
    *r = start;
    let generation = r.u64()?;
    let knobs = Knobs {
        commit_k: opt(r, Reader::f64)?,
        commit_all: opt(r, Reader::bool)?,
        cacheline_aligned: opt(r, Reader::bool)?,
        zero_opt: opt(r, Reader::bool)?,
        use_cpack: opt(r, Reader::bool)?,
        compressed_writeback: opt(r, Reader::bool)?,
        two_level_replacement: opt(r, Reader::bool)?,
        scrub_interval: opt(r, Reader::u64)?,
        stage_ways: opt(r, Reader::u64)?.map(|v| v as usize),
        ..Knobs::default()
    };
    Ok(FleetPolicy {
        generation,
        knobs,
        job_deadline_ms: opt(r, Reader::u64)?,
        checkpoint_every: opt(r, Reader::u64)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benign() -> FleetPolicy {
        FleetPolicy {
            knobs: Knobs {
                scrub_interval: Some(100_000),
                ..Knobs::default()
            },
            ..FleetPolicy::default()
        }
    }

    #[test]
    fn boot_state_is_baseline_active() {
        let m = SlotMachine::new();
        let (slot, info) = m.active();
        assert_eq!(slot, Slot::A);
        assert_eq!(info.generation, 0);
        assert!(info.policy.is_none());
        assert_eq!(m.slot(Slot::B).state, SlotState::Empty);
        assert_eq!(m.in_flight(), None);
    }

    #[test]
    fn stage_commit_rollback_happy_path() {
        let mut m = SlotMachine::new();
        let (slot, generation) = m.stage(benign()).expect("stages");
        assert_eq!(slot, Slot::B);
        assert_eq!(generation, 1);
        assert_eq!(
            m.slot(Slot::B).policy.as_ref().expect("held").generation,
            1,
            "the staged policy is stamped"
        );
        let (target, generation) = m.begin_commit().expect("commits");
        assert_eq!((target, generation), (Slot::B, 1));
        m.boot_succeeded();
        assert_eq!(m.active().0, Slot::B);
        assert_eq!(m.slot(Slot::A).state, SlotState::Previous);
        let (back, generation) = m.begin_rollback().expect("rolls back");
        assert_eq!((back, generation), (Slot::A, 0));
        m.boot_succeeded();
        assert_eq!(m.active().0, Slot::A);
        assert_eq!(m.active().1.generation, 0);
        assert_eq!(m.rollbacks(), 1);
    }

    #[test]
    fn illegal_transitions_are_typed_errors() {
        let mut m = SlotMachine::new();
        assert_eq!(m.begin_commit(), Err(CommitError::NothingStaged));
        assert_eq!(m.begin_rollback(), Err(RollbackError::NoPrevious));
        let bad = FleetPolicy {
            knobs: Knobs {
                commit_k: Some(-1.0),
                ..Knobs::default()
            },
            ..FleetPolicy::default()
        };
        assert!(matches!(m.stage(bad), Err(StageError::Invalid(_))));
        m.stage(benign()).expect("stages");
        m.begin_commit().expect("commits");
        assert_eq!(
            m.stage(benign()).expect_err("frozen"),
            StageError::RolloutInFlight
        );
        assert_eq!(m.begin_commit(), Err(CommitError::RolloutInFlight));
        assert_eq!(m.begin_rollback(), Err(RollbackError::RolloutInFlight));
    }

    #[test]
    fn failed_commit_marks_bad_and_counts_the_auto_rollback() {
        let mut m = SlotMachine::new();
        m.stage(benign()).expect("stages");
        m.begin_commit().expect("commits");
        m.boot_failed();
        assert_eq!(m.active().0, Slot::A, "active slot untouched");
        assert_eq!(m.slot(Slot::B).state, SlotState::Bad);
        assert_eq!(m.last_failed(), Some((Slot::B, 1)));
        assert_eq!(m.rollbacks(), 1);
        // A bad slot must be re-staged before another commit.
        assert_eq!(m.begin_commit(), Err(CommitError::NothingStaged));
        let (slot, generation) = m.stage(benign()).expect("re-stages");
        assert_eq!((slot, generation), (Slot::B, 2));
    }

    #[test]
    fn json_names_slots_and_history() {
        let mut m = SlotMachine::new();
        m.stage(benign()).expect("stages");
        m.begin_commit().expect("commits");
        m.boot_failed();
        let text = m.to_json().render();
        for needle in [
            "\"active_slot\":\"a\"",
            "\"active_generation\":0",
            "\"slot_b\":{\"state\":\"bad\"",
            "\"last_failed\":{\"slot\":\"b\",\"generation\":1}",
            "\"rollbacks\":1",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn staged_slot_gets_a_policy_diff_against_active() {
        let mut m = SlotMachine::new();
        m.stage(FleetPolicy {
            knobs: Knobs {
                scrub_interval: Some(100_000),
                commit_k: Some(2.5),
                ..Knobs::default()
            },
            ..FleetPolicy::default()
        })
        .expect("stages");
        let text = m.to_json().render();
        for needle in [
            "\"staged_diff\":{\"from_generation\":0,\"to_generation\":1",
            "\"commit_k\":{\"from\":\"default\",\"to\":\"2.5\"}",
            "\"scrub_interval\":{\"from\":\"default\",\"to\":\"100000\"}",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        // Once committed and booted the diff disappears (nothing staged).
        m.begin_commit().expect("commits");
        m.boot_succeeded();
        assert!(!m.to_json().render().contains("staged_diff"));
    }

    #[test]
    fn wire_round_trip_drops_in_flight() {
        let mut m = SlotMachine::new();
        m.stage(benign()).expect("stages");
        m.begin_commit().expect("commits");
        m.boot_succeeded();
        m.stage(benign()).expect("stages again");
        m.begin_commit().expect("commits");
        let mut w = Writer::new();
        m.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = SlotMachine::load_state(&mut r).expect("decodes");
        r.finish().expect("fully consumed");
        assert_eq!(back.in_flight(), None, "in-flight rollouts are abandoned");
        let mut expect = m.clone();
        expect.in_flight = None;
        assert_eq!(back, expect);
    }

    /// A slots file written while policies were fixed fields: an active
    /// generation-2 policy (`commit_k` 2.5, `stage_ways` 8, a deadline)
    /// over a previous baseline, next generation 3, one rollback.
    #[test]
    fn fixed_field_slots_file_migrates() {
        let mut w = Writer::new();
        w.u8(SlotState::Active.tag());
        w.u64(2);
        w.opt(true);
        w.u64(2);
        w.opt(true);
        w.f64(2.5);
        for _ in 0..6 {
            w.opt(false); // the six boolean knobs
        }
        w.opt(false); // scrub_interval
        w.opt(true);
        w.u64(8); // stage_ways
        w.opt(true);
        w.u64(5000); // job_deadline_ms
        w.opt(false); // checkpoint_every
        w.u8(SlotState::Previous.tag());
        w.u64(0);
        w.opt(false);
        w.u64(3);
        w.opt(false);
        w.u64(1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let m = SlotMachine::load_state(&mut r).expect("migrates");
        r.finish().expect("fully consumed");
        let policy = FleetPolicy {
            generation: 2,
            knobs: Knobs {
                commit_k: Some(2.5),
                stage_ways: Some(8),
                ..Knobs::default()
            },
            job_deadline_ms: Some(5000),
            checkpoint_every: None,
        };
        assert_eq!(
            m.active(),
            (
                Slot::A,
                &SlotInfo {
                    state: SlotState::Active,
                    generation: 2,
                    policy: Some(policy),
                }
            )
        );
        assert_eq!(m.slot(Slot::B).state, SlotState::Previous);
        assert_eq!(m.next_generation, 3);
        assert_eq!(m.rollbacks(), 1);
    }
}
