//! Kernel-equivalence properties: the bucketed batch kernels behind
//! `deliver_all` (see `stategen_core::kernel`) are bit-identical to the
//! scalar per-session walk (`deliver_all_scalar`) on both pool tiers —
//! states, finished bits, transition totals, and the action streams a
//! subsequent `deliver_all_with` observes — including under
//! mid-sequence spawn/reset churn. (Sharding and worker threads live in
//! `stategen-runtime`; its kernel properties pin them to flat results.)

use proptest::prelude::*;

use stategen_core::efsm::{CmpOp, EfsmBuilder, Guard, LinExpr, Update};
use stategen_core::{
    generate, AbstractModel, Action, CompiledEfsm, CompiledMachine, Efsm, EfsmSessionPool, Outcome,
    SessionPool, StateComponent, StateSpace, StateVector,
};

// ---------------------------------------------------------------------
// Machine families.
// ---------------------------------------------------------------------

/// A randomised threshold model (same family as the core props): two
/// counters and a flag; `a` bumps counter 0, `b` bumps counter 1;
/// crossing `threshold` on the sum fires an action; completion when
/// counter 1 reaches its max. Generates machines with many states, so
/// the counting-sort sees populated *and* empty buckets.
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
/// `wait` (two fused candidates on one cell — the masked-sweep shape),
/// then `b` counts `y` in `mid` until `done`. With `spill` the `mid`
/// transitions carry a `Set` update, which is not inline-fusable and
/// forces the kernel's scalar bytecode fallback for those buckets — so
/// one family covers the per-column masked path, the spill path and
/// no-candidate cells (`b` in `wait`, `a` in `mid`).
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

/// One step of pool churn, decoded from a proptest-drawn op stream:
/// deliver to everyone (the property under test), reset one session
/// back to start, or spawn a fresh session (growing the SoA arrays and
/// the kernel scratch mid-sequence).
#[derive(Debug, Clone, Copy)]
enum Op {
    Deliver(usize),
    Reset(usize),
    Spawn,
}

fn op_stream() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..8, any::<usize>()), 0..48).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, pick)| match kind {
                0..=4 => Op::Deliver(pick % 2),
                5..=6 => Op::Reset(pick),
                _ => Op::Spawn,
            })
            .collect()
    })
}

// ---------------------------------------------------------------------
// Dense tier: kernel vs scalar.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The bucketed dense kernel behind `SessionPool::deliver_all` is
    /// bit-identical to the scalar walk: same states, finished bits,
    /// transition totals, and the same `deliver_all_with` action stream
    /// afterwards — through reset/spawn churn between batches.
    #[test]
    fn dense_kernel_matches_scalar(
        model in two_counter(),
        sessions in 0usize..96,
        ops in op_stream(),
    ) {
        let g = generate(&model).expect("generates");
        let compiled = CompiledMachine::compile(&g.machine);
        let mut kernel = SessionPool::new(&compiled, sessions);
        let mut scalar = SessionPool::new(&compiled, sessions);
        for (step, &op) in ops.iter().enumerate() {
            match op {
                Op::Deliver(mi) => {
                    let name = if mi == 0 { "a" } else { "b" };
                    let mid = compiled.message_id(name).expect("declared message");
                    prop_assert_eq!(
                        kernel.deliver_all(mid),
                        scalar.deliver_all_scalar(mid),
                        "step {}", step
                    );
                }
                Op::Reset(pick) => {
                    if !kernel.is_empty() {
                        let s = pick % kernel.len();
                        kernel.reset_session(s);
                        scalar.reset_session(s);
                    }
                }
                Op::Spawn => {
                    prop_assert_eq!(kernel.spawn(), scalar.spawn(), "step {}", step);
                }
            }
            prop_assert_eq!(kernel.states(), scalar.states(), "step {}", step);
            prop_assert_eq!(kernel.finished_count(), scalar.finished_count(), "step {}", step);
            prop_assert_eq!(kernel.steps(), scalar.steps(), "step {}", step);
            for s in 0..kernel.len() {
                prop_assert_eq!(
                    kernel.is_finished(s), scalar.is_finished(s),
                    "step {} session {}", step, s
                );
            }
        }
        // The observing walk sees identical (session, actions) streams
        // after any kernel-batched prefix.
        let mid = compiled.message_id("a").expect("declared message");
        let mut seen_kernel: Vec<(usize, &[Action])> = Vec::new();
        let mut seen_scalar: Vec<(usize, &[Action])> = Vec::new();
        let t_k = kernel.deliver_all_with(mid, |s, acts| seen_kernel.push((s, acts)));
        let t_s = scalar.deliver_all_with(mid, |s, acts| seen_scalar.push((s, acts)));
        prop_assert_eq!(t_k, t_s);
        prop_assert_eq!(seen_kernel, seen_scalar);
        prop_assert_eq!(kernel.states(), scalar.states());
    }
}

// ---------------------------------------------------------------------
// EFSM tier: masked sweep (and spill fallback) vs scalar.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The per-column masked-compare kernel behind
    /// `EfsmSessionPool::deliver_all` — including its scalar bytecode
    /// fallback for non-fusable cells — matches the scalar walk on
    /// states, *registers*, finished bits, totals and the subsequent
    /// `deliver_all_with` stream, through reset/spawn churn.
    #[test]
    fn efsm_kernel_matches_scalar(
        t in 1i64..6,
        spill in any::<bool>(),
        sessions in 0usize..96,
        ops in op_stream(),
    ) {
        let efsm = threshold_efsm(spill);
        let compiled = CompiledEfsm::compile(&efsm).expect("compiles");
        prop_assert_eq!(compiled.bind(&[t]).spill_cell_count() > 0, spill);
        let mut kernel = EfsmSessionPool::new(&compiled, vec![t], sessions);
        let mut scalar = EfsmSessionPool::new(&compiled, vec![t], sessions);
        for (step, &op) in ops.iter().enumerate() {
            match op {
                Op::Deliver(mi) => {
                    let name = if mi == 0 { "a" } else { "b" };
                    let mid = compiled.message_id(name).expect("declared message");
                    prop_assert_eq!(
                        kernel.deliver_all(mid),
                        scalar.deliver_all_scalar(mid),
                        "step {}", step
                    );
                }
                Op::Reset(pick) => {
                    if !kernel.is_empty() {
                        let s = pick % kernel.len();
                        kernel.reset_session(s);
                        scalar.reset_session(s);
                    }
                }
                Op::Spawn => {
                    prop_assert_eq!(kernel.spawn(), scalar.spawn(), "step {}", step);
                }
            }
            prop_assert_eq!(kernel.states(), scalar.states(), "step {}", step);
            prop_assert_eq!(kernel.registers(), scalar.registers(), "step {}", step);
            prop_assert_eq!(kernel.finished_count(), scalar.finished_count(), "step {}", step);
            prop_assert_eq!(kernel.steps(), scalar.steps(), "step {}", step);
        }
        for s in 0..kernel.len() {
            prop_assert_eq!(kernel.is_finished(s), scalar.is_finished(s), "session {}", s);
        }
        let mid = compiled.message_id("b").expect("declared message");
        let mut seen_kernel: Vec<(usize, &[Action])> = Vec::new();
        let mut seen_scalar: Vec<(usize, &[Action])> = Vec::new();
        let t_k = kernel.deliver_all_with(mid, |s, acts| seen_kernel.push((s, acts)));
        let t_s = scalar.deliver_all_with(mid, |s, acts| seen_scalar.push((s, acts)));
        prop_assert_eq!(t_k, t_s);
        prop_assert_eq!(seen_kernel, seen_scalar);
        prop_assert_eq!(kernel.states(), scalar.states());
        prop_assert_eq!(kernel.registers(), scalar.registers());
    }
}
