//! Property tests of the A/B config slot machine: arbitrary sequences of
//! stage / commit / rollback / boot-outcome operations never reach an
//! illegal state, and the active slot always holds a validated (or
//! baseline) policy — on the in-repo `baryon_sim::check` harness.

use baryon_core::policy::FleetPolicy;
use baryon_fleet::config::{Flight, Slot, SlotMachine, SlotState};
use baryon_sim::check::{props, Gen};
use baryon_sim::wire::{Reader, Writer};

#[derive(Debug, Clone, Copy)]
enum Op {
    StageValid,
    StageInvalid,
    BeginCommit,
    BeginRollback,
    BootOk,
    BootFail,
}

fn gen_op(g: &mut Gen) -> Op {
    match g.choice(6) {
        0 => Op::StageValid,
        1 => Op::StageInvalid,
        2 => Op::BeginCommit,
        3 => Op::BeginRollback,
        4 => Op::BootOk,
        _ => Op::BootFail,
    }
}

/// A valid policy, varied so staged generations carry different payloads.
fn valid_policy(g: &mut Gen) -> FleetPolicy {
    let mut policy = FleetPolicy::default();
    match g.choice(4) {
        0 => policy.knobs.scrub_interval = Some(g.range(1_000, 1_000_000)),
        1 => policy.knobs.commit_all = Some(g.bool()),
        2 => policy.knobs.zero_opt = Some(g.bool()),
        _ => policy.checkpoint_every = Some(g.range(1_000, 100_000)),
    }
    policy
}

/// A policy that must fail validation.
fn invalid_policy(g: &mut Gen) -> FleetPolicy {
    let mut policy = FleetPolicy::default();
    if g.bool() {
        policy.knobs.commit_k = Some(-1.0);
    } else {
        policy.knobs.stage_ways = Some(0);
    }
    policy
}

/// The machine's structural invariants, checked after every operation.
fn check_invariants(m: &SlotMachine, highest_staged: u64) {
    let actives = [Slot::A, Slot::B]
        .iter()
        .filter(|&&s| m.slot(s).state == SlotState::Active)
        .count();
    assert_eq!(actives, 1, "exactly one active slot: {m:?}");

    for slot in [Slot::A, Slot::B] {
        let info = m.slot(slot);
        match info.state {
            SlotState::Empty => {
                assert!(info.policy.is_none(), "empty slot holds a policy: {m:?}");
            }
            SlotState::Active => {
                // The active slot always holds a validated config: either
                // the built-in baseline (generation 0, no overlay) or a
                // policy that passed `validate` when staged — re-validate
                // to prove it never mutated into something illegal.
                match &info.policy {
                    None => assert_eq!(info.generation, 0, "baseline is generation 0: {m:?}"),
                    Some(p) => {
                        assert_eq!(p.generation, info.generation, "stamp matches slot: {m:?}");
                        p.validate().expect("active policy always validates");
                    }
                }
            }
            SlotState::Staged | SlotState::Previous | SlotState::Bad => {
                if let Some(p) = &info.policy {
                    assert_eq!(p.generation, info.generation, "stamp matches slot: {m:?}");
                    p.validate()
                        .expect("held policies were validated at stage time");
                }
            }
        }
        assert!(
            info.generation <= highest_staged,
            "generation {} from the future (max staged {highest_staged}): {m:?}",
            info.generation
        );
    }

    if let Some((slot, _)) = m.in_flight() {
        assert_ne!(
            m.slot(slot).state,
            SlotState::Active,
            "a rollout never targets the active slot: {m:?}"
        );
    }
}

#[test]
fn arbitrary_op_sequences_never_reach_an_illegal_state() {
    props("slot_machine_invariants").cases(200).run(|g| {
        let mut m = SlotMachine::new();
        let mut highest_staged = 0u64;
        let mut last_active_generation = 0u64;
        let ops = g.range(1, 40);
        for _ in 0..ops {
            let op = gen_op(g);
            g.note(format!("{op:?}"));
            match op {
                Op::StageValid => {
                    let in_flight = m.in_flight().is_some();
                    match m.stage(valid_policy(g)) {
                        Ok((slot, generation)) => {
                            assert!(!in_flight, "stage must fail while in flight");
                            assert!(generation > highest_staged, "generations strictly increase");
                            highest_staged = generation;
                            assert_eq!(m.slot(slot).state, SlotState::Staged);
                        }
                        Err(_) => assert!(in_flight, "a valid stage only fails mid-rollout"),
                    }
                }
                Op::StageInvalid => {
                    let before = m.clone();
                    assert!(
                        m.stage(invalid_policy(g)).is_err(),
                        "invalid policies never stage"
                    );
                    assert_eq!(m, before, "failed stage leaves the machine untouched");
                }
                Op::BeginCommit => {
                    let staged_ready = m.in_flight().is_none()
                        && m.slot(m.active().0.other()).state == SlotState::Staged;
                    match m.begin_commit() {
                        Ok((slot, _)) => {
                            assert!(staged_ready, "commit requires a staged slot");
                            assert_eq!(m.in_flight(), Some((slot, Flight::Commit)));
                        }
                        Err(_) => assert!(!staged_ready, "a ready commit must start"),
                    }
                }
                Op::BeginRollback => {
                    let previous_ready = m.in_flight().is_none()
                        && m.slot(m.active().0.other()).state == SlotState::Previous;
                    match m.begin_rollback() {
                        Ok((slot, _)) => {
                            assert!(previous_ready, "rollback requires a previous slot");
                            assert_eq!(m.in_flight(), Some((slot, Flight::Rollback)));
                        }
                        Err(_) => assert!(!previous_ready, "a ready rollback must start"),
                    }
                }
                Op::BootOk => {
                    let target = m.in_flight().map(|(s, _)| s);
                    m.boot_succeeded();
                    if let Some(target) = target {
                        assert_eq!(m.active().0, target, "boot success activates the target");
                        last_active_generation = m.active().1.generation;
                    }
                    assert_eq!(m.in_flight(), None);
                }
                Op::BootFail => {
                    let target = m.in_flight().map(|(s, _)| s);
                    let active_before = m.active().0;
                    let rollbacks_before = m.rollbacks();
                    m.boot_failed();
                    if let Some(target) = target {
                        assert_eq!(
                            m.active().0,
                            active_before,
                            "a failed boot never moves the active slot"
                        );
                        assert_eq!(m.slot(target).state, SlotState::Bad);
                        assert_eq!(m.last_failed().map(|(s, _)| s), Some(target));
                        assert!(m.rollbacks() >= rollbacks_before);
                    }
                    assert_eq!(m.in_flight(), None);
                }
            }
            check_invariants(&m, highest_staged.max(1));
            assert_eq!(
                m.active().1.generation,
                last_active_generation,
                "active generation only moves on successful boots"
            );
        }

        // Whatever state the sequence reached must survive persistence
        // (modulo the in-flight marker, which is deliberately dropped).
        let mut w = Writer::new();
        m.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = SlotMachine::load_state(&mut r).expect("persisted state decodes");
        r.finish().expect("fully consumed");
        assert_eq!(back.in_flight(), None);
        assert_eq!(back.active().0, m.active().0);
        assert_eq!(back.active().1, m.active().1);
        assert_eq!(back.rollbacks(), m.rollbacks());
        assert_eq!(back.last_failed(), m.last_failed());
        check_invariants(&back, highest_staged.max(1));
    });
}
