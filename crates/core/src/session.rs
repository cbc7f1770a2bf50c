//! Batched execution of many protocol instances over one compiled
//! machine.
//!
//! A deployed protocol node does not run *one* state machine — it runs
//! one instance per in-flight protocol execution (the paper's ASA peers
//! hold an FSM instance per commit attempt, §2.2). Scaling that to
//! "millions of users" means the per-instance representation must be
//! tiny and stepping must not allocate. [`SessionPool`] stores sessions
//! as a struct-of-arrays over a shared [`CompiledMachine`]:
//!
//! * `current` — one dense `u32` state id per session;
//! * a finished bitset (one bit per session), maintained incrementally;
//!
//! so a pool of a million sessions is ~4 MB of state, stepping a session
//! is two indexed loads and a store, and delivering a message to every
//! live session walks a contiguous array. No session operation allocates.
//!
//! [`EfsmSessionPool`] is the same shape for compiled EFSMs
//! ([`CompiledEfsm`]): the per-session variable registers are stored
//! struct-of-arrays next to the state ids, and one parameter binding is
//! shared by the whole pool.
//!
//! Both pools are single-threaded: they are the scalar oracles the
//! kernel-equivalence suites compare against. Serving many sessions on
//! many cores is the job of `stategen-runtime`, whose `Runtime` owns its
//! shards and drives them inline or on one work-stealing worker pool.
//!
//! # Examples
//!
//! ```
//! use stategen_core::{Action, CompiledMachine, SessionPool, StateMachineBuilder};
//!
//! let mut b = StateMachineBuilder::new("ping", ["ping"]);
//! let idle = b.add_state("idle");
//! let done = b.add_state_full("done", None, stategen_core::StateRole::Finish, vec![]);
//! b.add_transition(idle, "ping", done, vec![Action::send("pong")]);
//! let machine = b.build(idle);
//! let compiled = CompiledMachine::compile(&machine);
//!
//! let mut pool = SessionPool::new(&compiled, 3);
//! let ping = compiled.message_id("ping").unwrap();
//! assert_eq!(pool.deliver(1, ping), [Action::send("pong")]);
//! assert_eq!(pool.finished_count(), 1);
//! pool.deliver_all(ping); // steps the remaining live sessions
//! assert!(pool.all_finished());
//! ```

use crate::compiled::CompiledMachine;
use crate::efsm_compiled::{CompiledEfsm, EfsmBinding};
use crate::kernel::{dense_batch, efsm_batch, KernelScratch};
use crate::machine::{Action, MessageId};

/// Finished-session bitset: one bit per session slot plus a running
/// count. Shared by [`SessionPool`], [`EfsmSessionPool`], the batch
/// kernels and the `stategen-runtime` shards, so the word/bit
/// arithmetic and the count bookkeeping live in exactly one place.
#[derive(Debug, Clone, Default)]
pub struct FinishedSet {
    words: Vec<u64>,
    count: usize,
}

impl FinishedSet {
    /// An empty set with words preallocated for `sessions` sessions.
    pub(crate) fn with_capacity(sessions: usize) -> Self {
        FinishedSet {
            words: vec![0; sessions.div_ceil(64)],
            count: 0,
        }
    }

    /// Ensures capacity for `sessions` sessions (amortised O(1)).
    pub fn grow_for(&mut self, sessions: usize) {
        let needed = sessions.div_ceil(64);
        if self.words.len() < needed {
            self.words.resize(needed, 0);
        }
    }

    /// `true` if `session`'s bit is set.
    ///
    /// # Panics
    ///
    /// Panics if `session` is beyond the set's capacity.
    pub fn get(&self, session: usize) -> bool {
        self.words[session / 64] & (1 << (session % 64)) != 0
    }

    /// Branchless OR of a 0/1 `fin` mask into one session's bit, used
    /// by the batch kernels: the count bookkeeping is mask arithmetic
    /// (`setcc`/`cmov`), not a data-dependent branch.
    #[inline]
    pub(crate) fn or_bit(&mut self, session: usize, fin: u64) {
        debug_assert!(fin <= 1);
        let word = &mut self.words[session / 64];
        let shift = session % 64;
        let was = (*word >> shift) & 1;
        self.count += (fin & (was ^ 1)) as usize;
        *word |= fin << shift;
    }

    /// ORs a whole 64-session word of finished bits at once — the batch
    /// kernels' bulk path. Neighbouring sessions share a word, so
    /// per-session read-modify-writes serialize on it; sweeps that
    /// visit sessions in ascending order accumulate the mask locally
    /// and flush once per word to stay pipelined.
    #[inline]
    pub(crate) fn or_word(&mut self, word: usize, mask: u64) {
        let w = &mut self.words[word];
        self.count += (mask & !*w).count_ones() as usize;
        *w |= mask;
    }

    /// Sets `session`'s bit.
    ///
    /// # Panics
    ///
    /// Panics if `session` is beyond the set's capacity.
    #[inline]
    pub fn set(&mut self, session: usize) {
        let word = session / 64;
        let bit = 1u64 << (session % 64);
        if self.words[word] & bit == 0 {
            self.words[word] |= bit;
            self.count += 1;
        }
    }

    /// Clears `session`'s bit.
    ///
    /// # Panics
    ///
    /// Panics if `session` is beyond the set's capacity.
    pub fn clear(&mut self, session: usize) {
        let word = session / 64;
        let bit = 1u64 << (session % 64);
        if self.words[word] & bit != 0 {
            self.words[word] &= !bit;
            self.count -= 1;
        }
    }

    /// Clears every bit, keeping the capacity.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
        self.count = 0;
    }

    /// Recomputes every bit (and the count) from a state array: slot
    /// `i` is set iff `states[i]` is a valid state id (below
    /// `state_count`) and `is_finish` holds for it. Out-of-range ids —
    /// such as a runtime's retired-slot sentinel — stay unset, and
    /// `is_finish` is never called on them.
    pub fn rebuild(&mut self, states: &[u32], state_count: usize, is_finish: impl Fn(u32) -> bool) {
        self.clear_all();
        self.grow_for(states.len());
        for (session, &state) in states.iter().enumerate() {
            if (state as usize) < state_count && is_finish(state) {
                self.set(session);
            }
        }
    }

    /// Number of set bits (maintained incrementally; O(1)).
    pub fn count(&self) -> usize {
        self.count
    }
}

/// A pool of concurrent protocol sessions executing one
/// [`CompiledMachine`], stored struct-of-arrays and stepped without
/// per-event allocation.
#[derive(Debug, Clone)]
pub struct SessionPool<'m> {
    machine: &'m CompiledMachine,
    current: Vec<u32>,
    finished: FinishedSet,
    steps: u64,
    /// Bucketing scratch for the batch kernel; pool-resident so batch
    /// delivery stays allocation-free after the first call.
    kernel: KernelScratch,
}

impl<'m> SessionPool<'m> {
    /// Creates a pool of `count` sessions, all at the start state.
    pub fn new(machine: &'m CompiledMachine, count: usize) -> Self {
        let mut pool = SessionPool {
            machine,
            current: Vec::with_capacity(count),
            finished: FinishedSet::with_capacity(count),
            steps: 0,
            kernel: KernelScratch::new(),
        };
        for _ in 0..count {
            pool.spawn();
        }
        pool
    }

    /// The machine all sessions execute.
    pub fn machine(&self) -> &'m CompiledMachine {
        self.machine
    }

    /// Number of sessions in the pool.
    pub fn len(&self) -> usize {
        self.current.len()
    }

    /// `true` if the pool holds no sessions.
    pub fn is_empty(&self) -> bool {
        self.current.is_empty()
    }

    /// Adds a session at the start state; returns its index.
    ///
    /// Amortised O(1); this is the only pool operation that may allocate
    /// (growing the session arrays, never per-event).
    pub fn spawn(&mut self) -> usize {
        let session = self.current.len();
        let start = self.machine.start();
        self.current.push(start);
        self.finished.grow_for(self.current.len());
        if self.machine.is_finish_state(start) {
            self.finished.set(session);
        }
        session
    }

    /// The dense state id of a session.
    ///
    /// # Panics
    ///
    /// Panics if `session` is out of range.
    pub fn state(&self, session: usize) -> u32 {
        self.current[session]
    }

    /// Display name of a session's state, borrowed from the machine.
    ///
    /// # Panics
    ///
    /// Panics if `session` is out of range.
    pub fn state_name(&self, session: usize) -> &'m str {
        self.machine.state_name(self.current[session])
    }

    /// `true` once a session has reached a finish state.
    ///
    /// # Panics
    ///
    /// Panics if `session` is out of range.
    pub fn is_finished(&self, session: usize) -> bool {
        assert!(session < self.current.len(), "session out of range");
        self.finished.get(session)
    }

    /// Number of finished sessions (maintained incrementally; O(1)).
    pub fn finished_count(&self) -> usize {
        self.finished.count()
    }

    /// `true` once every session has finished.
    pub fn all_finished(&self) -> bool {
        self.finished.count() == self.current.len()
    }

    /// Total transitions taken across all sessions.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Delivers a message to one session; returns the triggered actions,
    /// borrowed from the machine's interned arena. Finished sessions
    /// absorb every message. No allocation occurs on this path.
    ///
    /// `message` must come from this pool's machine (see
    /// [`CompiledMachine::step`] for the exact contract).
    ///
    /// # Panics
    ///
    /// Panics if `session` is out of range.
    #[inline]
    pub fn deliver(&mut self, session: usize, message: MessageId) -> &'m [Action] {
        let machine = self.machine;
        match machine.step(self.current[session], message) {
            Some((target, actions)) => {
                self.current[session] = target;
                self.steps += 1;
                if machine.is_finish_state(target) {
                    self.finished.set(session);
                }
                actions
            }
            None => &[],
        }
    }

    /// Delivers a message to every session, discarding actions; returns
    /// the number of transitions taken. This is the batch hot loop: the
    /// `(state, message)`-bucketed kernel (see the
    /// [`kernel`](crate::kernel) module) counting-sorts sessions by
    /// current state into pool-resident scratch and steps each bucket
    /// with one branchless loop — no allocation, results bit-identical
    /// to [`SessionPool::deliver_all_scalar`].
    pub fn deliver_all(&mut self, message: MessageId) -> u64 {
        let transitions = dense_batch(
            self.machine,
            message,
            &mut self.current,
            Some(&mut self.finished),
            &mut self.kernel,
        );
        self.steps += transitions;
        transitions
    }

    /// The scalar reference form of [`SessionPool::deliver_all`]: a
    /// per-session [`CompiledMachine::step`] walk in session order.
    /// Kept public as the oracle the kernel-equivalence property suites
    /// and the paired `batched_kernel` benchmark row compare against.
    pub fn deliver_all_scalar(&mut self, message: MessageId) -> u64 {
        self.deliver_all_with(message, |_, _| {})
    }

    /// Delivers a message to every session, invoking `visit(session,
    /// actions)` for each delivery that triggered a non-empty action
    /// list; returns the number of transitions taken.
    ///
    /// Visit order is ascending session order — this path deliberately
    /// keeps the scalar walk rather than the bucketed kernel, so the
    /// order observers see is independent of how sessions are
    /// distributed across states (see `docs/KERNELS.md`).
    pub fn deliver_all_with<F>(&mut self, message: MessageId, mut visit: F) -> u64
    where
        F: FnMut(usize, &'m [Action]),
    {
        let machine = self.machine;
        let mut transitions = 0;
        for session in 0..self.current.len() {
            if let Some((target, actions)) = machine.step(self.current[session], message) {
                self.current[session] = target;
                transitions += 1;
                if machine.is_finish_state(target) {
                    self.finished.set(session);
                }
                if !actions.is_empty() {
                    visit(session, actions);
                }
            }
        }
        self.steps += transitions;
        transitions
    }

    /// Returns one session to the start state (recycling its slot for a
    /// fresh protocol execution). O(1), no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `session` is out of range.
    pub fn reset_session(&mut self, session: usize) {
        assert!(session < self.current.len(), "session out of range");
        self.finished.clear(session);
        let start = self.machine.start();
        self.current[session] = start;
        if self.machine.is_finish_state(start) {
            self.finished.set(session);
        }
    }

    /// Returns every session to the start state.
    pub fn reset_all(&mut self) {
        let start = self.machine.start();
        self.current.fill(start);
        self.finished.clear_all();
        self.steps = 0;
        if self.machine.is_finish_state(start) {
            for session in 0..self.current.len() {
                self.finished.set(session);
            }
        }
    }

    /// Snapshot accessor: the dense state id of every session, in slot
    /// order. Together with the machine this is the pool's complete
    /// execution state (finished-ness is derivable — finish states are
    /// absorbing).
    pub fn states(&self) -> &[u32] {
        &self.current
    }

    /// Restores every session's state from a snapshot taken via
    /// [`SessionPool::states`] against the *same* machine, rebuilding
    /// the finished set.
    ///
    /// # Panics
    ///
    /// Panics if `states` has a different length than the pool or names
    /// a state id outside the machine.
    pub fn restore_states(&mut self, states: &[u32]) {
        assert_eq!(
            states.len(),
            self.current.len(),
            "snapshot session count mismatch"
        );
        let n = self.machine.state_count() as u32;
        self.finished.clear_all();
        for (session, &state) in states.iter().enumerate() {
            assert!(state < n, "snapshot state id {state} out of range");
            self.current[session] = state;
            if self.machine.is_finish_state(state) {
                self.finished.set(session);
            }
        }
    }
}

/// A pool of concurrent protocol sessions executing one
/// [`CompiledEfsm`] under a shared parameter binding.
///
/// Per-session state is stored struct-of-arrays: a dense `u32` state id
/// per session, plus the variable registers laid out contiguously
/// (`vars[session * var_count ..][.. var_count]`), so stepping a session
/// touches two cache lines and delivering a message to every session
/// walks two contiguous arrays. A single scratch buffer (sized at
/// compile time) serves all staged updates — no session operation
/// allocates.
///
/// # Examples
///
/// ```
/// use stategen_core::efsm::{CmpOp, EfsmBuilder, Guard, LinExpr, Update};
/// use stategen_core::{Action, CompiledEfsm, EfsmSessionPool};
///
/// let mut b = EfsmBuilder::new("counter", ["tick"]);
/// let limit = b.add_param("limit");
/// let n = b.add_var("n");
/// let counting = b.add_state("counting");
/// let done = b.add_state("done");
/// b.add_transition(
///     counting, "tick",
///     Guard::when(LinExpr::var(n).plus_const(1), CmpOp::Lt, LinExpr::param(limit)),
///     vec![Update::Inc(n)], vec![], counting,
/// );
/// b.add_transition(
///     counting, "tick",
///     Guard::when(LinExpr::var(n).plus_const(1), CmpOp::Ge, LinExpr::param(limit)),
///     vec![Update::Inc(n)], vec![Action::send("done")], done,
/// );
/// let efsm = b.build(counting, Some(done));
/// let compiled = CompiledEfsm::compile(&efsm)?;
///
/// let mut pool = EfsmSessionPool::new(&compiled, vec![2], 100);
/// let tick = compiled.message_id("tick").unwrap();
/// pool.deliver_all(tick);
/// assert_eq!(pool.finished_count(), 0);
/// pool.deliver_all(tick);
/// assert!(pool.all_finished());
/// assert_eq!(pool.vars(42), &[2]);
/// # Ok::<(), stategen_core::CompileError>(())
/// ```
#[derive(Debug, Clone)]
pub struct EfsmSessionPool<'e> {
    machine: &'e CompiledEfsm,
    /// One parameter-specialised dispatch table shared by every session
    /// in the pool (see [`CompiledEfsm::bind`]).
    binding: EfsmBinding,
    current: Vec<u32>,
    /// Session-major variable registers: session `s`'s registers live at
    /// `vars[s * n_regs .. (s + 1) * n_regs]` (see
    /// [`CompiledEfsm::reg_count`]).
    vars: Vec<i64>,
    scratch: Vec<i64>,
    n_regs: usize,
    finished: FinishedSet,
    steps: u64,
    /// Bucketing scratch for the batch kernel; pool-resident so batch
    /// delivery stays allocation-free after the first call.
    kernel: KernelScratch,
}

impl<'e> EfsmSessionPool<'e> {
    /// Creates a pool of `count` sessions, all at the start state with
    /// zeroed variables, sharing the given parameter binding.
    ///
    /// # Panics
    ///
    /// Panics if the number of parameters differs from the EFSM's
    /// declaration.
    pub fn new(machine: &'e CompiledEfsm, params: Vec<i64>, count: usize) -> Self {
        let binding = machine.bind(&params);
        let n_regs = machine.reg_count();
        let mut pool = EfsmSessionPool {
            machine,
            binding,
            current: Vec::with_capacity(count),
            vars: Vec::with_capacity(count * n_regs),
            scratch: vec![0; machine.scratch_len()],
            n_regs,
            finished: FinishedSet::with_capacity(count),
            steps: 0,
            kernel: KernelScratch::new(),
        };
        for _ in 0..count {
            pool.spawn();
        }
        pool
    }

    /// The machine all sessions execute.
    pub fn machine(&self) -> &'e CompiledEfsm {
        self.machine
    }

    /// The shared parameter binding.
    pub fn params(&self) -> &[i64] {
        self.binding.params()
    }

    /// Number of sessions in the pool.
    pub fn len(&self) -> usize {
        self.current.len()
    }

    /// `true` if the pool holds no sessions.
    pub fn is_empty(&self) -> bool {
        self.current.is_empty()
    }

    /// Adds a session at the start state with zeroed variables; returns
    /// its index. Amortised O(1); the only pool operation that may
    /// allocate (growing the arrays, never per-event).
    pub fn spawn(&mut self) -> usize {
        let session = self.current.len();
        let start = self.machine.start();
        self.current.push(start);
        self.vars.extend(std::iter::repeat_n(0, self.n_regs));
        self.finished.grow_for(self.current.len());
        if self.machine.is_finish_state(start) {
            self.finished.set(session);
        }
        session
    }

    /// The dense state id of a session.
    ///
    /// # Panics
    ///
    /// Panics if `session` is out of range.
    pub fn state(&self, session: usize) -> u32 {
        self.current[session]
    }

    /// Display name of a session's state, borrowed from the machine.
    ///
    /// # Panics
    ///
    /// Panics if `session` is out of range.
    pub fn state_name(&self, session: usize) -> &'e str {
        self.machine.state_name(self.current[session])
    }

    /// A session's variable registers, in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if `session` is out of range.
    pub fn vars(&self, session: usize) -> &[i64] {
        assert!(session < self.current.len(), "session out of range");
        &self.vars[session * self.n_regs..][..self.machine.var_count()]
    }

    /// `true` once a session has reached the finish state.
    ///
    /// # Panics
    ///
    /// Panics if `session` is out of range.
    pub fn is_finished(&self, session: usize) -> bool {
        assert!(session < self.current.len(), "session out of range");
        self.finished.get(session)
    }

    /// Number of finished sessions (maintained incrementally; O(1)).
    pub fn finished_count(&self) -> usize {
        self.finished.count()
    }

    /// `true` once every session has finished.
    pub fn all_finished(&self) -> bool {
        self.finished.count() == self.current.len()
    }

    /// Total transitions taken across all sessions.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Delivers a message to one session; returns the triggered actions,
    /// borrowed from the machine's interned arena. The finish state
    /// absorbs every message. No allocation occurs on this path.
    ///
    /// `message` must come from this pool's machine (via
    /// [`CompiledEfsm::message_id`]).
    ///
    /// # Panics
    ///
    /// Panics if `session` is out of range.
    #[inline]
    pub fn deliver(&mut self, session: usize, message: MessageId) -> &'e [Action] {
        let machine = self.machine;
        let vars = &mut self.vars[session * self.n_regs..][..self.n_regs];
        match machine.step(
            self.current[session],
            message,
            &self.binding,
            vars,
            &mut self.scratch,
        ) {
            Some((target, actions)) => {
                self.current[session] = target;
                self.steps += 1;
                if machine.is_finish_state(target) {
                    self.finished.set(session);
                }
                actions
            }
            None => &[],
        }
    }

    /// Delivers a message to every session, discarding actions; returns
    /// the number of transitions taken. The batch hot loop: the
    /// bucketed masked-sweep kernel (see the [`kernel`](crate::kernel)
    /// module) evaluates each bucket's fused threshold checks as masked
    /// compares over the register columns, falling back to the scalar
    /// bytecode path only for buckets whose cell spilled — no
    /// allocation, results bit-identical to
    /// [`EfsmSessionPool::deliver_all_scalar`].
    pub fn deliver_all(&mut self, message: MessageId) -> u64 {
        let transitions = efsm_batch(
            self.machine,
            &self.binding,
            message,
            &mut self.current,
            &mut self.vars,
            &mut self.scratch,
            Some(&mut self.finished),
            &mut self.kernel,
        );
        self.steps += transitions;
        transitions
    }

    /// The scalar reference form of [`EfsmSessionPool::deliver_all`]: a
    /// per-session [`CompiledEfsm::step`] walk in session order. Kept
    /// public as the oracle the kernel-equivalence property suites and
    /// the paired `efsm_kernel` benchmark row compare against.
    pub fn deliver_all_scalar(&mut self, message: MessageId) -> u64 {
        self.deliver_all_with(message, |_, _| {})
    }

    /// Delivers a message to every session, invoking `visit(session,
    /// actions)` for each delivery that triggered a non-empty action
    /// list; returns the number of transitions taken.
    ///
    /// Visit order is ascending session order — this path deliberately
    /// keeps the scalar walk rather than the bucketed kernel, so the
    /// order observers see is independent of how sessions are
    /// distributed across states (see `docs/KERNELS.md`).
    pub fn deliver_all_with<F>(&mut self, message: MessageId, mut visit: F) -> u64
    where
        F: FnMut(usize, &'e [Action]),
    {
        let machine = self.machine;
        let mut transitions = 0;
        for session in 0..self.current.len() {
            let vars = &mut self.vars[session * self.n_regs..][..self.n_regs];
            if let Some((target, actions)) = machine.step(
                self.current[session],
                message,
                &self.binding,
                vars,
                &mut self.scratch,
            ) {
                self.current[session] = target;
                transitions += 1;
                if machine.is_finish_state(target) {
                    self.finished.set(session);
                }
                if !actions.is_empty() {
                    visit(session, actions);
                }
            }
        }
        self.steps += transitions;
        transitions
    }

    /// Returns one session to the start state with zeroed variables
    /// (recycling its slot for a fresh protocol execution).
    ///
    /// # Panics
    ///
    /// Panics if `session` is out of range.
    pub fn reset_session(&mut self, session: usize) {
        assert!(session < self.current.len(), "session out of range");
        self.finished.clear(session);
        let start = self.machine.start();
        self.current[session] = start;
        self.vars[session * self.n_regs..][..self.n_regs].fill(0);
        if self.machine.is_finish_state(start) {
            self.finished.set(session);
        }
    }

    /// Returns every session to the start state with zeroed variables.
    pub fn reset_all(&mut self) {
        let start = self.machine.start();
        self.current.fill(start);
        self.vars.fill(0);
        self.finished.clear_all();
        self.steps = 0;
        if self.machine.is_finish_state(start) {
            for session in 0..self.current.len() {
                self.finished.set(session);
            }
        }
    }

    /// Snapshot accessor: the dense state id of every session, in slot
    /// order.
    pub fn states(&self) -> &[u32] {
        &self.current
    }

    /// Snapshot accessor: the session-major register file — session
    /// `s`'s registers (declared variables first, then compiler
    /// temporaries) are `registers()[s * reg_count .. (s+1) *
    /// reg_count]`. Together with [`EfsmSessionPool::states`] and the
    /// machine+binding, this is the pool's complete execution state.
    pub fn registers(&self) -> &[i64] {
        &self.vars
    }

    /// Restores every session's state and registers from a snapshot
    /// taken via [`EfsmSessionPool::states`] /
    /// [`EfsmSessionPool::registers`] against the *same* machine and
    /// binding, rebuilding the finished set.
    ///
    /// # Panics
    ///
    /// Panics if the slices do not match the pool's session count and
    /// register width, or a state id is outside the machine.
    pub fn restore(&mut self, states: &[u32], registers: &[i64]) {
        assert_eq!(
            states.len(),
            self.current.len(),
            "snapshot session count mismatch"
        );
        assert_eq!(
            registers.len(),
            self.vars.len(),
            "snapshot register file size mismatch"
        );
        let n = self.machine.state_count() as u32;
        self.finished.clear_all();
        for (session, &state) in states.iter().enumerate() {
            assert!(state < n, "snapshot state id {state} out of range");
            self.current[session] = state;
            if self.machine.is_finish_state(state) {
                self.finished.set(session);
            }
        }
        self.vars.copy_from_slice(registers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{StateMachine, StateMachineBuilder, StateRole};

    fn finishing_machine() -> StateMachine {
        let mut b = StateMachineBuilder::new("m", ["a", "b"]);
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let fin = b.add_state_full("FINISHED", None, StateRole::Finish, vec![]);
        b.add_transition(s0, "a", s1, vec![Action::send("x")]);
        b.add_transition(s1, "a", fin, vec![]);
        b.build(s0)
    }

    #[test]
    fn pool_steps_sessions_independently() {
        let m = finishing_machine();
        let compiled = CompiledMachine::compile(&m);
        let a = compiled.message_id("a").unwrap();
        let mut pool = SessionPool::new(&compiled, 3);
        assert_eq!(pool.len(), 3);
        assert_eq!(pool.deliver(0, a), [Action::send("x")]);
        assert_eq!(pool.state_name(0), "s1");
        assert_eq!(pool.state_name(1), "s0");
        pool.deliver(0, a);
        assert!(pool.is_finished(0));
        assert!(!pool.is_finished(1));
        assert_eq!(pool.finished_count(), 1);
        assert_eq!(pool.steps(), 2);
    }

    #[test]
    fn deliver_all_walks_every_live_session() {
        let m = finishing_machine();
        let compiled = CompiledMachine::compile(&m);
        let a = compiled.message_id("a").unwrap();
        let b = compiled.message_id("b").unwrap();
        let mut pool = SessionPool::new(&compiled, 100);
        assert_eq!(pool.deliver_all(b), 0); // `b` applicable nowhere
        assert_eq!(pool.deliver_all(a), 100);
        assert_eq!(pool.finished_count(), 0);
        assert_eq!(pool.deliver_all(a), 100);
        assert!(pool.all_finished());
        // Finished sessions absorb further messages.
        assert_eq!(pool.deliver_all(a), 0);
        assert_eq!(pool.steps(), 200);
    }

    #[test]
    fn deliver_all_with_visits_phase_transitions() {
        let m = finishing_machine();
        let compiled = CompiledMachine::compile(&m);
        let a = compiled.message_id("a").unwrap();
        let mut pool = SessionPool::new(&compiled, 5);
        let mut seen = Vec::new();
        pool.deliver_all_with(a, |session, actions| {
            seen.push((session, actions.len()));
        });
        assert_eq!(seen, (0..5).map(|s| (s, 1)).collect::<Vec<_>>());
        // Second hop is a simple transition: no visits.
        let mut visits = 0;
        pool.deliver_all_with(a, |_, _| visits += 1);
        assert_eq!(visits, 0);
    }

    #[test]
    fn spawn_grows_pool_and_reset_restores() {
        let m = finishing_machine();
        let compiled = CompiledMachine::compile(&m);
        let a = compiled.message_id("a").unwrap();
        let mut pool = SessionPool::new(&compiled, 0);
        assert!(pool.is_empty());
        for _ in 0..70 {
            pool.spawn(); // crosses a bitset word boundary
        }
        assert_eq!(pool.len(), 70);
        pool.deliver_all(a);
        pool.deliver_all(a);
        assert!(pool.all_finished());
        pool.reset_all();
        assert_eq!(pool.finished_count(), 0);
        assert_eq!(pool.state_name(69), "s0");
        assert_eq!(pool.steps(), 0);
    }

    #[test]
    fn matches_single_instance_semantics() {
        let m = finishing_machine();
        let compiled = CompiledMachine::compile(&m);
        let mut pool = SessionPool::new(&compiled, 1);
        let mut single = compiled.instance();
        for name in ["b", "a", "b", "a", "a"] {
            let id = compiled.message_id(name).unwrap();
            let from_pool = pool.deliver(0, id);
            let from_single = single.deliver_id(id);
            assert_eq!(from_pool, from_single);
            assert_eq!(pool.state(0), single.current_state());
        }
        assert!(pool.is_finished(0));
    }

    #[test]
    fn reset_session_recycles_slot() {
        let m = finishing_machine();
        let compiled = CompiledMachine::compile(&m);
        let a = compiled.message_id("a").unwrap();
        let mut pool = SessionPool::new(&compiled, 2);
        pool.deliver(0, a);
        pool.deliver(0, a);
        assert!(pool.is_finished(0));
        assert_eq!(pool.finished_count(), 1);
        pool.reset_session(0);
        assert!(!pool.is_finished(0));
        assert_eq!(pool.finished_count(), 0);
        assert_eq!(pool.state_name(0), "s0");
        // The other session is untouched.
        assert_eq!(pool.state_name(1), "s0");
        // The recycled slot runs a fresh execution.
        pool.deliver(0, a);
        assert_eq!(pool.state_name(0), "s1");
    }

    fn counter_efsm() -> crate::efsm::Efsm {
        use crate::efsm::{CmpOp, EfsmBuilder, Guard, LinExpr, Update};
        let mut b = EfsmBuilder::new("counter", ["tick"]);
        let limit = b.add_param("limit");
        let n = b.add_var("n");
        let counting = b.add_state("counting");
        let done = b.add_state("done");
        b.add_transition(
            counting,
            "tick",
            Guard::when(
                LinExpr::var(n).plus_const(1),
                CmpOp::Lt,
                LinExpr::param(limit),
            ),
            vec![Update::Inc(n)],
            vec![],
            counting,
        );
        b.add_transition(
            counting,
            "tick",
            Guard::when(
                LinExpr::var(n).plus_const(1),
                CmpOp::Ge,
                LinExpr::param(limit),
            ),
            vec![Update::Inc(n)],
            vec![Action::send("done")],
            done,
        );
        b.build(counting, Some(done))
    }

    #[test]
    fn efsm_pool_counts_independently() {
        let efsm = counter_efsm();
        let compiled = CompiledEfsm::compile(&efsm).unwrap();
        let tick = compiled.message_id("tick").unwrap();
        let mut pool = EfsmSessionPool::new(&compiled, vec![3], 5);
        assert_eq!(pool.len(), 5);
        assert_eq!(pool.params(), &[3]);
        // Step session 2 ahead of the rest.
        assert!(pool.deliver(2, tick).is_empty());
        assert_eq!(pool.vars(2), &[1]);
        assert_eq!(pool.vars(0), &[0]);
        pool.deliver_all(tick);
        pool.deliver_all(tick);
        assert!(pool.is_finished(2));
        assert_eq!(pool.finished_count(), 1);
        assert_eq!(pool.state_name(2), "done");
        let mut fired = 0;
        pool.deliver_all_with(tick, |_, actions| fired += actions.len());
        assert_eq!(fired, 4);
        assert!(pool.all_finished());
        assert_eq!(pool.steps(), 1 + 5 + 5 + 4);
    }

    #[test]
    fn efsm_pool_reset_and_spawn() {
        let efsm = counter_efsm();
        let compiled = CompiledEfsm::compile(&efsm).unwrap();
        let tick = compiled.message_id("tick").unwrap();
        let mut pool = EfsmSessionPool::new(&compiled, vec![1], 0);
        assert!(pool.is_empty());
        for _ in 0..70 {
            pool.spawn(); // crosses a bitset word boundary
        }
        pool.deliver_all(tick);
        assert!(pool.all_finished());
        pool.reset_session(69);
        assert!(!pool.is_finished(69));
        assert_eq!(pool.vars(69), &[0]);
        pool.reset_all();
        assert_eq!(pool.finished_count(), 0);
        assert_eq!(pool.steps(), 0);
        assert_eq!(pool.state_name(0), "counting");
    }

    #[test]
    fn efsm_pool_matches_single_instance() {
        let efsm = counter_efsm();
        let compiled = CompiledEfsm::compile(&efsm).unwrap();
        let tick = compiled.message_id("tick").unwrap();
        let mut pool = EfsmSessionPool::new(&compiled, vec![4], 1);
        let mut single = compiled.instance(vec![4]);
        for _ in 0..6 {
            assert_eq!(pool.deliver(0, tick), single.deliver_id(tick));
            assert_eq!(pool.state(0), single.current_state());
            assert_eq!(pool.vars(0), single.vars());
        }
    }
}
