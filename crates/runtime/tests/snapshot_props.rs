//! Property suite for crash safety: snapshot/restore round-trips on
//! every execution tier, the hierarchical timer wheel against a naive
//! reference scheduler, and timeouts-as-transitions equivalence.
//!
//! The acceptance gate: `Runtime::restore(engine, &rt.snapshot_all())`
//! must reproduce the pool *bit-identically* — states, full register
//! files, generations, free list and finished flags — which is checked
//! both directly (re-snapshot equality) and behaviourally (the restored
//! pool replays an arbitrary message suffix identically, through the
//! original generational handles).

use proptest::prelude::*;

use stategen_commit::{commit_efsm, commit_efsm_params, CommitConfig, CommitModel, MESSAGE_NAMES};
use stategen_core::generate;
use stategen_runtime::{Engine, Runtime, SessionId, Spec, TimerWheel};

/// One engine per tier, all serving the r = 4 commit protocol (the EFSM
/// tier carries two live counter registers per session, so its
/// snapshots must capture a real register file, not just a state id).
fn engines() -> Vec<Engine> {
    let config = CommitConfig::new(4).unwrap();
    let machine = generate(&CommitModel::new(config)).unwrap().machine;
    vec![
        Engine::interpret(Spec::machine(machine.clone())).unwrap(),
        Engine::compile(Spec::machine(machine)).unwrap(),
        Engine::compile(Spec::efsm(commit_efsm(), commit_efsm_params(&config))).unwrap(),
    ]
}

/// A pool-mutation script: interleaved spawns, deliveries and releases.
#[derive(Debug, Clone)]
enum PoolOp {
    Spawn,
    Deliver { session: usize, message: usize },
    Release { session: usize },
}

fn pool_ops() -> impl Strategy<Value = Vec<PoolOp>> {
    prop::collection::vec(
        prop_oneof![
            Just(PoolOp::Spawn),
            (any::<u64>(), any::<u64>()).prop_map(|(s, m)| PoolOp::Deliver {
                session: s as usize,
                message: m as usize % MESSAGE_NAMES.len(),
            }),
            any::<u64>().prop_map(|s| PoolOp::Release {
                session: s as usize
            }),
        ],
        0..60,
    )
}

/// Runs the script, returning the handles that are still live.
fn apply_ops(rt: &mut Runtime, ops: &[PoolOp]) -> Vec<SessionId> {
    let mut live: Vec<SessionId> = Vec::new();
    for op in ops {
        match op {
            PoolOp::Spawn => live.push(rt.spawn()),
            PoolOp::Deliver { session, message } => {
                if !live.is_empty() {
                    let s = live[session % live.len()];
                    let id = rt.message_id(MESSAGE_NAMES[*message]).unwrap();
                    rt.deliver(s, id);
                }
            }
            PoolOp::Release { session } => {
                if !live.is_empty() {
                    let s = live.remove(session % live.len());
                    rt.release(s);
                }
            }
        }
        rt.check_invariants();
    }
    live
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The acceptance gate, on all three runtime-served tiers.
    #[test]
    fn snapshot_restore_round_trips_bit_identically(
        ops in pool_ops(),
        suffix in prop::collection::vec(any::<u64>(), 0..30),
    ) {
        for engine in engines() {
            let mut rt = engine.runtime();
            let live = apply_ops(&mut rt, &ops);
            let snap = rt.snapshot_all();

            let mut restored = Runtime::restore(&engine, &snap).unwrap();
            restored.check_invariants();
            // Bit-identical: re-snapshotting the restored pool yields the
            // exact same snapshot (states, vars, generations, free list).
            prop_assert_eq!(&restored.snapshot_all(), &snap);

            // Old handles address the restored sessions with identical
            // observable state.
            for &s in &live {
                prop_assert_eq!(restored.state(s), rt.state(s));
                prop_assert_eq!(restored.is_finished(s), rt.is_finished(s));
                prop_assert_eq!(restored.snapshot(s), rt.snapshot(s));
            }

            // Behavioural equivalence: an arbitrary suffix replays
            // identically on the original and the restored pool.
            for &step in &suffix {
                if live.is_empty() {
                    break;
                }
                let s = live[(step as usize) % live.len()];
                let id = rt
                    .message_id(MESSAGE_NAMES[(step >> 32) as usize % MESSAGE_NAMES.len()])
                    .unwrap();
                let a: Vec<String> =
                    rt.deliver(s, id).iter().map(|x| x.message().to_string()).collect();
                let b: Vec<String> =
                    restored.deliver(s, id).iter().map(|x| x.message().to_string()).collect();
                prop_assert_eq!(a, b);
                prop_assert_eq!(rt.state(s), restored.state(s));
                prop_assert_eq!(rt.is_finished(s), restored.is_finished(s));
                rt.check_invariants();
                restored.check_invariants();
            }
            prop_assert_eq!(&restored.snapshot_all(), &rt.snapshot_all());
        }
    }

    /// A snapshot from one engine restores into any engine with the same
    /// behavioural fingerprint (interpreted vs compiled of the same
    /// machine) and is rejected by a behaviourally different one.
    #[test]
    fn restore_respects_fingerprints(ops in pool_ops()) {
        let all = engines();
        let (interp, compiled, efsm) = (&all[0], &all[1], &all[2]);
        let mut rt = interp.runtime();
        apply_ops(&mut rt, &ops);
        let snap = rt.snapshot_all();
        // Same flat behaviour, different tier: accepted.
        prop_assert!(Runtime::restore(compiled, &snap).is_ok());
        // The EFSM artifact is a different machine shape (register
        // file differs): rejected, not silently mis-restored.
        prop_assert!(Runtime::restore(efsm, &snap).is_err());
    }

    /// The timer wheel against a naive reference scheduler: identical
    /// expiry sets and deterministic (deadline, arm-order) sequencing
    /// under arbitrary arm/re-arm/cancel/advance interleavings.
    #[test]
    fn timer_wheel_matches_reference_scheduler(
        script in prop::collection::vec((any::<u64>(), any::<u64>()), 0..200)
    ) {
        let mut wheel: TimerWheel<u32> = TimerWheel::new();
        // key -> (deadline, arm sequence) for everything still armed.
        let mut reference: std::collections::BTreeMap<u32, (u64, u64)> =
            std::collections::BTreeMap::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        for (op, payload) in script {
            match op % 4 {
                0 | 1 => {
                    let key = (payload % 16) as u32;
                    let deadline = now + (payload >> 8) % 5_000;
                    wheel.arm(key, deadline);
                    reference.insert(key, (deadline, seq));
                    seq += 1;
                }
                2 => {
                    let key = (payload % 16) as u32;
                    let cancelled = wheel.cancel(&key);
                    prop_assert_eq!(cancelled, reference.remove(&key).is_some());
                }
                _ => {
                    now += payload % 700;
                    let expired: Vec<u32> = wheel.advance(now).to_vec();
                    let mut expected: Vec<(u64, u64, u32)> = reference
                        .iter()
                        .filter(|(_, &(deadline, _))| deadline <= now)
                        .map(|(&k, &(deadline, s))| (deadline, s, k))
                        .collect();
                    expected.sort_unstable();
                    for &(_, _, k) in &expected {
                        reference.remove(&k);
                    }
                    let expected: Vec<u32> = expected.into_iter().map(|(_, _, k)| k).collect();
                    prop_assert_eq!(expired, expected, "at t = {}", now);
                }
            }
        }
        prop_assert_eq!(wheel.len(), reference.len());
    }

    /// Timeouts are ordinary transitions: `advance_time` delivering the
    /// timeout message to expired sessions leaves the pool in exactly
    /// the state of delivering it by hand in expiry order.
    #[test]
    fn timeouts_are_just_transitions(
        deadlines in prop::collection::vec(1u64..2_000, 1..12),
        advance_to in 1u64..2_500,
    ) {
        let engine = &engines()[1];
        let timeout = engine.message_id(MESSAGE_NAMES[0]).unwrap();

        let mut timed = engine.runtime();
        let mut manual = engine.runtime();
        let mut sessions = Vec::new();
        for &d in &deadlines {
            let s = timed.spawn();
            let m = manual.spawn();
            assert_eq!(s, m);
            timed.arm_timeout(s, d);
            sessions.push((s, d));
        }
        let fired = timed.advance_time(advance_to, timeout);

        // Reference: deliver by hand in (deadline, arm order).
        let mut due: Vec<(u64, usize)> = sessions
            .iter()
            .enumerate()
            .filter(|(_, &(_, d))| d <= advance_to)
            .map(|(i, &(_, d))| (d, i))
            .collect();
        due.sort_unstable();
        for &(_, i) in &due {
            manual.deliver(sessions[i].0, timeout);
        }
        prop_assert_eq!(fired, due.len());
        prop_assert_eq!(timed.snapshot_all(), manual.snapshot_all());
        prop_assert_eq!(timed.pending_timeouts(), deadlines.len() - due.len());
    }
}
