//! Facade-level kernel-equivalence properties: `Runtime::deliver_all`
//! (routed through the bucketed batch kernels on the compiled tiers) is
//! bit-identical to per-session scalar delivery and to the
//! telemetry-observed path — states, actions, finished flags, metrics
//! and snapshots — under spawn/release/reset churn between batches
//! (released slots exercise the kernels' retired-slot skip bucket), on
//! the compiled, compiled-EFSM and reconstructed build-time-generated
//! tiers. Sharding and work-stealing workers are pinned the same way to
//! a flat runtime, on random generated machines and on a threshold EFSM
//! with and without spilled cells. Every property runs the runtime's
//! checked mode (`Runtime::check_invariants`) after each operation.

use proptest::prelude::*;
use stategen_commit::{commit_efsm, commit_efsm_params, CommitConfig, CommitModel, MESSAGE_NAMES};
use stategen_core::efsm::{CmpOp, EfsmBuilder, Guard, LinExpr, Update};
use stategen_core::{
    generate, AbstractModel, Action, CompiledEfsm, Efsm, EfsmSessionPool, Outcome, StateComponent,
    StateSpace, StateVector,
};
use stategen_generated::GeneratedCommitR4;
use stategen_runtime::{Engine, MessageId, Runtime, SessionId, Spec};

/// Keep scripts from growing the pool without bound.
const MAX_LIVE: usize = 24;

/// One scripted runtime operation; free-range selectors are reduced
/// modulo the live set / alphabet at apply time.
#[derive(Debug, Clone, Copy)]
enum Op {
    Spawn,
    DeliverAll(usize),
    Reset(usize),
    Release(usize),
}

fn script(messages: usize) -> impl Strategy<Value = Vec<Op>> {
    let batch = || (0..messages).prop_map(Op::DeliverAll);
    prop::collection::vec(
        prop_oneof![
            Just(Op::Spawn),
            Just(Op::Spawn),
            batch(),
            batch(),
            batch(),
            (0..256usize).prop_map(Op::Reset),
            (0..256usize).prop_map(Op::Release),
        ],
        0..56,
    )
}

/// Runs one script against a set of runtimes of the same engine family:
/// `batched` runtimes use `Runtime::deliver_all` (the kernel path —
/// observed or sharded variants included), while the `scalar` runtime
/// delivers each batch message session-by-session through the
/// single-session path. Asserts transition totals per batch, and
/// per-session state/finished/snapshot equality throughout.
fn drive(
    batched: &mut [Runtime],
    scalar: &mut Runtime,
    ids: &[MessageId],
    ops: &[Op],
) -> Result<(), TestCaseError> {
    let mut live: Vec<Vec<SessionId>> = batched.iter().map(|_| Vec::new()).collect();
    let mut scalar_live: Vec<SessionId> = Vec::new();
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Spawn => {
                if scalar_live.len() >= MAX_LIVE {
                    continue;
                }
                for (rt, handles) in batched.iter_mut().zip(&mut live) {
                    handles.push(rt.spawn());
                }
                scalar_live.push(scalar.spawn());
            }
            Op::DeliverAll(m) => {
                let message = ids[m % ids.len()];
                // The scalar reference: one per-session delivery each;
                // `steps()` is the exact transition tally on both
                // sides (self-loop-proof, unlike state diffing).
                for &s in &scalar_live {
                    scalar.deliver(s, message);
                }
                for rt in batched.iter_mut() {
                    rt.deliver_all(message);
                    prop_assert_eq!(
                        rt.steps(),
                        scalar.steps(),
                        "step {}: transition totals",
                        step
                    );
                }
            }
            Op::Reset(s) => {
                if scalar_live.is_empty() {
                    continue;
                }
                let idx = s % scalar_live.len();
                for (rt, handles) in batched.iter_mut().zip(&live) {
                    rt.reset(handles[idx]);
                }
                scalar.reset(scalar_live[idx]);
            }
            Op::Release(s) => {
                if scalar_live.is_empty() {
                    continue;
                }
                let idx = s % scalar_live.len();
                for (rt, handles) in batched.iter_mut().zip(&mut live) {
                    rt.release(handles.swap_remove(idx));
                }
                scalar.release(scalar_live.swap_remove(idx));
            }
        }
        scalar.check_invariants();
        for (rt, handles) in batched.iter().zip(&live) {
            rt.check_invariants();
            for (idx, (&h, &sh)) in handles.iter().zip(&scalar_live).enumerate() {
                // Sharded layouts recycle slots per shard, so compare
                // the execution content (state + full register file),
                // not slot generations.
                let (a, b) = (rt.snapshot(h), scalar.snapshot(sh));
                prop_assert_eq!(
                    (a.state, a.vars),
                    (b.state, b.vars),
                    "step {} session {}: kernel-batched snapshot diverged from scalar",
                    step,
                    idx
                );
                prop_assert_eq!(rt.is_finished(h), scalar.is_finished(sh));
            }
        }
    }
    Ok(())
}

fn commit_ids(rt: &Runtime) -> Vec<MessageId> {
    MESSAGE_NAMES
        .iter()
        .map(|m| rt.message_id(m).expect("commit alphabet"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Compiled tier: flat, 4-way sharded, and recorder-observed
    /// runtimes (the latter two also route batches through the kernel /
    /// the replayed-observation path) all stay bit-identical to
    /// per-session scalar delivery through churny scripts.
    #[test]
    fn compiled_batches_match_scalar_delivery(ops in script(5)) {
        let machine = generate(&CommitModel::new(CommitConfig::new(4).unwrap()))
            .unwrap()
            .machine;
        let engine = || Engine::compile(Spec::machine(machine.clone())).unwrap();
        let mut observed = engine().runtime();
        observed.attach_recorder(16);
        let mut batched = [
            engine().runtime(),
            Runtime::new(engine()).sharded(4),
            observed,
        ];
        let mut scalar = engine().runtime();
        let ids = commit_ids(&scalar);
        drive(&mut batched, &mut scalar, &ids, &ops)?;
        prop_assert_eq!(batched[0].snapshot_all(), scalar.snapshot_all());
        prop_assert_eq!(batched[2].snapshot_all(), scalar.snapshot_all());
        // The kernel path counts exactly what the scalar path counts.
        let (k, s) = (batched[0].metrics(), scalar.metrics());
        prop_assert_eq!(k.deliveries, s.deliveries);
        prop_assert_eq!(k.transitions, s.transitions);
        prop_assert_eq!(k.guard_fall_throughs, s.guard_fall_throughs);
    }

    /// Compiled-EFSM tier: the masked-compare column sweep (and its
    /// spill fallback) behind the facade matches scalar delivery on
    /// states *and registers* (snapshots carry the full register file).
    #[test]
    fn efsm_batches_match_scalar_delivery(ops in script(5)) {
        let config = CommitConfig::new(4).unwrap();
        let engine =
            || Engine::compile(Spec::efsm(commit_efsm(), commit_efsm_params(&config))).unwrap();
        let mut observed = engine().runtime();
        observed.attach_recorder(16);
        let mut batched = [engine().runtime(), Runtime::new(engine()).sharded(3), observed];
        let mut scalar = engine().runtime();
        let ids = commit_ids(&scalar);
        drive(&mut batched, &mut scalar, &ids, &ops)?;
        prop_assert_eq!(batched[0].snapshot_all(), scalar.snapshot_all());
        prop_assert_eq!(batched[2].snapshot_all(), scalar.snapshot_all());
    }

    /// The reconstructed build-time-generated machine participates in
    /// the same kernel-equivalence guarantee through the facade.
    #[test]
    fn generated_tier_batches_match_scalar_delivery(ops in script(5)) {
        let machine = GeneratedCommitR4::to_machine();
        let engine = || Engine::compile(Spec::machine(machine.clone())).unwrap();
        let mut batched = [engine().runtime()];
        let mut scalar = engine().runtime();
        let ids = commit_ids(&scalar);
        drive(&mut batched, &mut scalar, &ids, &ops)?;
        prop_assert_eq!(batched[0].snapshot_all(), scalar.snapshot_all());
    }

    /// Work-stealing workers over a sharded runtime produce the same
    /// per-batch transition counts and final snapshots as a flat
    /// runtime delivering the same sequence.
    #[test]
    fn stealing_workers_match_flat_runtime(
        shards in 2usize..9,
        workers in 1usize..5,
        messages in prop::collection::vec(0usize..5, 0..40),
        sessions in 1usize..200,
    ) {
        let machine = generate(&CommitModel::new(CommitConfig::new(4).unwrap()))
            .unwrap()
            .machine;
        let engine = || Engine::compile(Spec::machine(machine.clone())).unwrap();
        let mut flat = engine().runtime();
        let mut sharded = Runtime::new(engine()).sharded(shards);
        let flat_handles: Vec<_> = (0..sessions).map(|_| flat.spawn()).collect();
        let sharded_handles: Vec<_> = (0..sessions).map(|_| sharded.spawn()).collect();
        let ids = commit_ids(&flat);
        let checks: Result<(), TestCaseError> = sharded.with_workers(workers, |w| {
            for (step, &m) in messages.iter().enumerate() {
                let t_flat = flat.deliver_all(ids[m]);
                prop_assert_eq!(w.deliver_all(ids[m]), t_flat, "step {}", step);
                prop_assert_eq!(w.finished_count(), flat.finished_count(), "step {}", step);
                prop_assert_eq!(w.steps(), flat.steps(), "step {}", step);
            }
            Ok(())
        });
        checks?;
        prop_assert_eq!(sharded.steps(), flat.steps());
        prop_assert_eq!(sharded.finished_count(), flat.finished_count());
        // Same multiset of session states (shard layout permutes order).
        let mut flat_states: Vec<u32> =
            flat_handles.iter().map(|&h| flat.state(h)).collect();
        let mut sharded_states: Vec<u32> =
            sharded_handles.iter().map(|&h| sharded.state(h)).collect();
        flat_states.sort_unstable();
        sharded_states.sort_unstable();
        prop_assert_eq!(flat_states, sharded_states);
    }
}

// ---------------------------------------------------------------------
// Sharding and workers on random machines: layout and scheduling never
// change the answers.
// ---------------------------------------------------------------------

/// A randomised threshold model: two counters and a flag; `a` bumps
/// counter 0, `b` bumps counter 1; crossing `threshold` on the sum
/// fires an action; completion when counter 1 reaches its max.
#[derive(Debug, Clone)]
struct TwoCounter {
    max0: u32,
    max1: u32,
    threshold: u32,
}

impl AbstractModel for TwoCounter {
    fn machine_name(&self) -> String {
        format!("two-counter@{}x{}t{}", self.max0, self.max1, self.threshold)
    }

    fn state_space(&self) -> Result<StateSpace, stategen_core::SchemaError> {
        StateSpace::new(vec![
            StateComponent::int("c0", self.max0),
            StateComponent::int("c1", self.max1),
            StateComponent::boolean("fired"),
        ])
    }

    fn messages(&self) -> Vec<String> {
        vec!["a".into(), "b".into()]
    }

    fn start_state(&self) -> StateVector {
        self.state_space().expect("schema").zero_vector()
    }

    fn transition(&self, state: &StateVector, message: &str) -> Outcome {
        let idx = if message == "a" { 0 } else { 1 };
        let max = if idx == 0 { self.max0 } else { self.max1 };
        if state.get(idx) == max {
            return Outcome::Ignored;
        }
        let mut t = state.clone();
        t.set(idx, state.get(idx) + 1);
        let mut actions = Vec::new();
        if t.get(0) + t.get(1) >= self.threshold && !t.flag(2) {
            t.set_flag(2, true);
            actions.push(Action::send("fire"));
        }
        Outcome::to(t, actions)
    }

    fn is_final_state(&self, state: &StateVector) -> bool {
        state.get(1) == self.max1
    }
}

fn two_counter() -> impl Strategy<Value = TwoCounter> {
    (1u32..6, 1u32..6, 1u32..8).prop_map(|(max0, max1, threshold)| TwoCounter {
        max0,
        max1,
        threshold,
    })
}

/// A two-phase threshold EFSM: `a` counts `x` up to the parameter in
/// `wait`, then `b` counts `y` in `mid` until `done`. With `spill` the
/// `mid` transitions carry a `Set` update, which is not inline-fusable
/// and forces the kernel's scalar bytecode fallback for those cells.
fn threshold_efsm(spill: bool) -> Efsm {
    let mut b = EfsmBuilder::new("kernel-prop", ["a", "b"]);
    let t = b.add_param("t");
    let x = b.add_var("x");
    let y = b.add_var("y");
    let wait = b.add_state("wait");
    let mid = b.add_state("mid");
    let done = b.add_state("done");
    b.add_transition(
        wait,
        "a",
        Guard::when(LinExpr::var(x).plus_const(1), CmpOp::Lt, LinExpr::param(t)),
        vec![Update::Inc(x)],
        vec![],
        wait,
    );
    b.add_transition(
        wait,
        "a",
        Guard::when(LinExpr::var(x).plus_const(1), CmpOp::Ge, LinExpr::param(t)),
        vec![Update::Inc(x)],
        vec![Action::send("adv")],
        mid,
    );
    let bump = |spill: bool| {
        if spill {
            vec![Update::Set(y, LinExpr::var(y).plus_const(1))]
        } else {
            vec![Update::Inc(y)]
        }
    };
    b.add_transition(
        mid,
        "b",
        Guard::when(LinExpr::var(y).plus_const(1), CmpOp::Lt, LinExpr::param(t)),
        bump(spill),
        vec![],
        mid,
    );
    b.add_transition(
        mid,
        "b",
        Guard::when(LinExpr::var(y).plus_const(1), CmpOp::Ge, LinExpr::param(t)),
        bump(spill),
        vec![Action::send("done")],
        done,
    );
    b.build(wait, Some(done))
}

/// A flat runtime and a `shards`-way sharded one over `engine`, each
/// with `sessions` sessions spawned in the same order (handle `i` of
/// one addresses the same execution as handle `i` of the other).
fn flat_and_sharded(
    engine: &Engine,
    sessions: usize,
    shards: usize,
) -> (Runtime, Vec<SessionId>, Runtime, Vec<SessionId>) {
    let mut flat = engine.runtime();
    let mut sharded = engine.runtime().sharded(shards);
    let flat_handles = (0..sessions).map(|_| flat.spawn()).collect();
    let sharded_handles = (0..sessions).map(|_| sharded.spawn()).collect();
    (flat, flat_handles, sharded, sharded_handles)
}

/// Every session's complete execution state (state id and full
/// register file) and finished flag agree between the two runtimes,
/// and both pass their checked mode.
fn assert_same_sessions(
    flat: &Runtime,
    flat_handles: &[SessionId],
    sharded: &Runtime,
    sharded_handles: &[SessionId],
) -> Result<(), TestCaseError> {
    flat.check_invariants();
    sharded.check_invariants();
    prop_assert_eq!(flat.steps(), sharded.steps());
    prop_assert_eq!(flat.finished_count(), sharded.finished_count());
    for (s, (&f, &h)) in flat_handles.iter().zip(sharded_handles).enumerate() {
        let (a, b) = (flat.snapshot(f), sharded.snapshot(h));
        prop_assert_eq!((a.state, a.vars), (b.state, b.vars), "session {}", s);
        prop_assert_eq!(flat.is_finished(f), sharded.is_finished(h), "session {}", s);
    }
    Ok(())
}

/// Drives `messages` (indices into `ids`) through `sharded` on
/// `workers` work-stealing threads and through `flat` inline, checking
/// per-batch transition counts and the workers' aggregate totals.
fn drive_with_workers(
    flat: &mut Runtime,
    sharded: &mut Runtime,
    workers: usize,
    ids: &[MessageId],
    messages: &[usize],
) -> Result<(), TestCaseError> {
    let shards = sharded.shard_count();
    sharded.with_workers(workers, |w| {
        prop_assert_eq!(w.worker_count(), workers.min(shards));
        for (step, &m) in messages.iter().enumerate() {
            let t_flat = flat.deliver_all(ids[m]);
            prop_assert_eq!(w.deliver_all(ids[m]), t_flat, "step {}", step);
            prop_assert_eq!(w.finished_count(), flat.finished_count(), "step {}", step);
            prop_assert_eq!(w.steps(), flat.steps(), "step {}", step);
        }
        Ok(())
    })
}

fn ab_ids(rt: &Runtime) -> [MessageId; 2] {
    ["a", "b"].map(|m| rt.message_id(m).expect("declared message"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Sharding is a pure layout decision: for any machine, session
    /// count, shard count and message sequence, inline delivery over
    /// the shards leaves every session, finished flag and total
    /// identical to one flat runtime.
    #[test]
    fn sharded_runtime_is_deterministic(
        model in two_counter(),
        sessions in 1usize..150,
        shards in 1usize..6,
        messages in prop::collection::vec(0usize..2, 0..48),
    ) {
        let machine = generate(&model).expect("generates").machine;
        let engine = Engine::compile(Spec::machine(machine)).unwrap();
        let (mut flat, flat_handles, mut sharded, sharded_handles) =
            flat_and_sharded(&engine, sessions, shards);
        prop_assert_eq!(sharded.len(), sessions);
        prop_assert_eq!(sharded.shard_count(), shards);
        let ids = ab_ids(&flat);
        for (step, &m) in messages.iter().enumerate() {
            let t_flat = flat.deliver_all(ids[m]);
            prop_assert_eq!(sharded.deliver_all(ids[m]), t_flat, "step {}", step);
            assert_same_sessions(&flat, &flat_handles, &sharded, &sharded_handles)?;
        }
    }

    /// One worker per shard (every worker starts with its own shard and
    /// steals only when it finishes first) yields the flat runtime's
    /// transition counts and totals per batch, and its final sessions.
    #[test]
    fn worker_per_shard_is_deterministic(
        model in two_counter(),
        sessions in 1usize..150,
        shards in 1usize..6,
        messages in prop::collection::vec(0usize..2, 0..48),
    ) {
        let machine = generate(&model).expect("generates").machine;
        let engine = Engine::compile(Spec::machine(machine)).unwrap();
        let (mut flat, flat_handles, mut sharded, sharded_handles) =
            flat_and_sharded(&engine, sessions, shards);
        let ids = ab_ids(&flat);
        drive_with_workers(&mut flat, &mut sharded, shards, &ids, &messages)?;
        assert_same_sessions(&flat, &flat_handles, &sharded, &sharded_handles)?;
    }

    /// Work stealing is a pure scheduling change: for any machine and
    /// any shard × worker split (1..8 shards, 1..5 workers), the
    /// stealing drive yields the flat runtime's per-batch transition
    /// counts and totals, and its final sessions — whichever worker
    /// steals which shard.
    #[test]
    fn stealing_workers_are_deterministic(
        model in two_counter(),
        sessions in 1usize..150,
        shards in 1usize..8,
        workers in 1usize..5,
        messages in prop::collection::vec(0usize..2, 0..48),
    ) {
        let machine = generate(&model).expect("generates").machine;
        let engine = Engine::compile(Spec::machine(machine)).unwrap();
        let (mut flat, flat_handles, mut sharded, sharded_handles) =
            flat_and_sharded(&engine, sessions, shards);
        let ids = ab_ids(&flat);
        drive_with_workers(&mut flat, &mut sharded, workers, &ids, &messages)?;
        assert_same_sessions(&flat, &flat_handles, &sharded, &sharded_handles)?;
    }

    /// The same on the compiled-EFSM tier, where shards also carry
    /// registers, with and without spilled cells: every session's
    /// registers end identical to the flat runtime's, and to core's
    /// single-threaded `EfsmSessionPool` fed the same batches.
    #[test]
    fn stealing_workers_match_flat_efsm_pool(
        t in 1i64..6,
        spill in any::<bool>(),
        sessions in 1usize..150,
        shards in 1usize..8,
        workers in 1usize..5,
        messages in prop::collection::vec(0usize..2, 0..48),
    ) {
        let efsm = threshold_efsm(spill);
        let engine = Engine::compile(Spec::efsm(efsm.clone(), vec![t])).unwrap();
        let (mut flat, flat_handles, mut sharded, sharded_handles) =
            flat_and_sharded(&engine, sessions, shards);
        let ids = ab_ids(&flat);
        drive_with_workers(&mut flat, &mut sharded, workers, &ids, &messages)?;
        assert_same_sessions(&flat, &flat_handles, &sharded, &sharded_handles)?;
        let compiled = CompiledEfsm::compile(&efsm).expect("compiles");
        let mut pool = EfsmSessionPool::new(&compiled, vec![t], sessions);
        for &m in &messages {
            pool.deliver_all(compiled.message_id(["a", "b"][m]).expect("declared message"));
        }
        prop_assert_eq!(pool.steps(), sharded.steps());
        prop_assert_eq!(pool.finished_count(), sharded.finished_count());
        for (s, &h) in sharded_handles.iter().enumerate() {
            prop_assert_eq!(pool.state_name(s), sharded.state_name(h), "session {}", s);
            prop_assert_eq!(pool.vars(s), sharded.vars(h), "session {}", s);
        }
    }
}
