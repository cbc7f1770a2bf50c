//! The serving facade: typed session handles over an owned engine.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

use stategen_core::{
    Action, CompiledEfsm, CompiledMachine, EfsmBinding, FinishedSet, InterpError, KernelScratch,
    MessageId, ProtocolEngine, StateRole, StategenError, SwapError,
};
use stategen_telemetry::{
    FlightRecorder, LogHistogram, MetricsSnapshot, NoopObserver, RuntimeCounters, RuntimeObserver,
    ShardCounters, TransitionEvent,
};

use crate::engine::{Engine, EngineKind};
use crate::timer::TimerWheel;
use crate::workers::Workers;

/// Sentinel state id marking a released (recycled, currently unowned)
/// session slot. Slots in this state are skipped by batch delivery and
/// rejected by every handle-addressed operation.
const RETIRED: u32 = u32::MAX;

/// Typed handle to one session in a [`Runtime`].
///
/// A `SessionId` names a *particular protocol execution*, not a storage
/// slot: when a session is [`release`](Runtime::release)d its slot goes
/// onto the runtime's free list and the slot's generation counter is
/// bumped, so every outstanding handle to the old execution becomes
/// *stale* — using it panics loudly instead of silently addressing
/// whatever execution was respawned into the slot. This closes the
/// use-after-recycle bug class that raw `usize` indexing permits.
///
/// The `Debug` form is free-list-aware: `s0:17` is the first execution
/// in shard 0, slot 17; `s0:17#3` is the fourth execution recycled into
/// the same slot (generation 3).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId {
    shard: u32,
    slot: u32,
    generation: u32,
}

impl SessionId {
    /// Which shard owns the session.
    pub fn shard(self) -> usize {
        self.shard as usize
    }

    /// The slot within the owning shard.
    pub fn slot(self) -> usize {
        self.slot as usize
    }

    /// How many earlier executions were recycled out of this slot
    /// before this one (0 = the slot's first execution).
    pub fn generation(self) -> u32 {
        self.generation
    }
}

impl std::fmt::Debug for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}:{}", self.shard, self.slot)?;
        if self.generation > 0 {
            write!(f, "#{}", self.generation)?;
        }
        Ok(())
    }
}

/// One shard of a [`Runtime`]: an owned block of session slots
/// (struct-of-arrays: one dense `u32` state id, a generation counter
/// and a finished bit per slot, plus the EFSM tiers' variable
/// registers) stepping the shared engine. The runtime steps its shards
/// inline, or on the work-stealing threads of [`Runtime::with_workers`].
#[derive(Debug, Clone)]
pub(crate) struct Shard {
    kind: EngineKind,
    /// Dense state id per slot; [`RETIRED`] marks recycled slots.
    current: Vec<u32>,
    /// Per-slot generation, bumped when the slot is released.
    generations: Vec<u32>,
    /// Finished bit per slot, maintained *lazily*: the batch hot loop
    /// never touches it (a per-transition finish check costs ~25-50% of
    /// raw dispatch, measured by the `runtime_facade` gate), it only
    /// sets `finished_dirty`; the single-slot paths keep it current
    /// while clean, and queries rebuild it from the state array on
    /// demand. Finish states are absorbing, so finished-ness is always
    /// derivable from the current state alone. `RefCell` so `&self`
    /// queries can rebuild it (shards are single-writer, so the dynamic
    /// borrow never contends).
    finished: RefCell<FinishedSet>,
    /// Set when `finished` may lag `current` (after a batch delivery or
    /// a restore); cleared by [`Shard::sync_finished`].
    finished_dirty: Cell<bool>,
    /// Released slots awaiting respawn.
    free: Vec<u32>,
    /// Session-major EFSM variable registers (empty on other tiers).
    vars: Vec<i64>,
    /// Staged-update scratch for the EFSM bytecode path.
    scratch: Vec<i64>,
    /// Bucketing scratch for the batch kernels (see
    /// `stategen_core::kernel`); shard-resident so unobserved
    /// `deliver_all` stays allocation-free after the first batch.
    kernel: KernelScratch,
    n_regs: usize,
    steps: u64,
    /// Per-shard telemetry counters (single-writer, merged on read; see
    /// [`stategen_telemetry::ShardCounters`]). Not part of snapshots —
    /// counters describe this process's activity, not durable state.
    counters: ShardCounters,
    /// The shard's flight recorder, when one is attached (see
    /// [`Runtime::attach_recorder`]). Taken out and re-seated around
    /// batch delivery so the observer and the slot arrays borrow
    /// disjointly.
    recorder: Option<FlightRecorder>,
    /// The *lockstep hint*: `Some(s)` guarantees every slot in
    /// `current` holds state `s` (in particular, none are retired) —
    /// the dominant shape for a pool spawned together and fed one
    /// message stream. Maintained incrementally by every slot mutation
    /// (spawn, deliver, reset, release, batch) and dropped to `None`
    /// whenever uniformity can't be proven cheaply; consumers may only
    /// rely on `Some`. [`Shard::capture_batch_tail`] uses it to build
    /// the observed-batch ring tail in O(ring capacity) with no pass
    /// over the slot arrays. Never snapshotted (restore starts `None`).
    lockstep: Option<u32>,
    /// One register row of scratch for the pre-batch tail probe (EFSM
    /// tiers only): [`Shard::capture_batch_tail`] re-steps each probed
    /// slot against this copy so guard evaluation can run without the
    /// step's updates touching the live row. Never snapshotted.
    replay_vars: Vec<i64>,
    /// Reverse-order staging for the probed tail (≤ ring capacity).
    replay_tail: Vec<TransitionEvent>,
}

impl Shard {
    fn new(kind: EngineKind) -> Self {
        let (n_regs, scratch) = match &kind {
            EngineKind::Efsm { machine, .. } => {
                (machine.reg_count(), vec![0; machine.scratch_len()])
            }
            _ => (0, Vec::new()),
        };
        Shard {
            kind,
            current: Vec::new(),
            generations: Vec::new(),
            finished: RefCell::new(FinishedSet::default()),
            finished_dirty: Cell::new(false),
            free: Vec::new(),
            vars: Vec::new(),
            scratch,
            kernel: KernelScratch::new(),
            n_regs,
            steps: 0,
            counters: ShardCounters::new(),
            recorder: None,
            lockstep: None,
            replay_vars: Vec::new(),
            replay_tail: Vec::new(),
        }
    }

    /// The engine's start state id.
    fn start_state(&self) -> u32 {
        match &self.kind {
            EngineKind::Interpreted(m) => m.start().index() as u32,
            EngineKind::Compiled(m) => m.start(),
            EngineKind::Efsm { machine, .. } => machine.start(),
        }
    }

    fn is_finish(&self, state: u32) -> bool {
        match &self.kind {
            EngineKind::Interpreted(m) => m.states()[state as usize].role() == StateRole::Finish,
            EngineKind::Compiled(m) => m.is_finish_state(state),
            EngineKind::Efsm { machine, .. } => machine.is_finish_state(state),
        }
    }

    /// Sessions currently live (spawned and not released).
    fn live(&self) -> usize {
        self.current.len() - self.free.len()
    }

    /// Claims a slot (recycling the free list or growing the arrays)
    /// and starts a fresh execution in it.
    fn spawn_slot(&mut self) -> (u32, u32) {
        let start = self.start_state();
        let slot = match self.free.pop() {
            Some(slot) => {
                self.current[slot as usize] = start;
                self.vars[slot as usize * self.n_regs..][..self.n_regs].fill(0);
                slot
            }
            None => {
                let slot = self.current.len() as u32;
                self.current.push(start);
                self.generations.push(0);
                self.vars.extend(std::iter::repeat_n(0, self.n_regs));
                self.finished.get_mut().grow_for(self.current.len());
                slot
            }
        };
        if self.is_finish(start) && !self.finished_dirty.get() {
            self.finished.get_mut().set(slot as usize);
        }
        // A spawn keeps the pool lockstep only if it already was (at
        // the start state) or this is the pool's sole slot.
        self.lockstep = if self.current.len() == 1 || self.lockstep == Some(start) {
            Some(start)
        } else {
            None
        };
        self.counters.inc_spawns();
        (slot, self.generations[slot as usize])
    }

    /// Validates a handle against the slot's generation; panics on a
    /// stale or released handle (the use-after-recycle guard).
    #[inline]
    fn check(&self, id: SessionId) {
        let slot = id.slot as usize;
        assert!(
            slot < self.current.len()
                && self.generations[slot] == id.generation
                && self.current[slot] != RETIRED,
            "stale session handle {id:?}: the slot was released and possibly recycled"
        );
    }

    /// Delivers one message to one validated slot.
    #[inline]
    fn deliver_slot(&mut self, id: SessionId, message: MessageId) -> &[Action] {
        self.check(id);
        let slot = id.slot as usize;
        let Shard {
            kind,
            current,
            generations,
            finished,
            finished_dirty,
            vars,
            scratch,
            n_regs,
            steps,
            counters,
            recorder,
            lockstep,
            ..
        } = self;
        counters.add_deliveries(1);
        // One closure records the transition for every tier arm; the
        // recorder stamps the tick.
        let mut observe = |from: u32, to: u32, actions: usize| {
            if let Some(rec) = recorder {
                rec.record(TransitionEvent {
                    slot: slot as u32,
                    generation: generations[slot],
                    from,
                    to,
                    message: message.index() as u32,
                    actions: actions as u32,
                    tick: 0,
                });
            }
        };
        match kind {
            EngineKind::Compiled(m) => match m.step(current[slot], message) {
                Some((target, actions)) => {
                    observe(current[slot], target, actions.len());
                    current[slot] = target;
                    // A single-slot transition splits a lockstep pool
                    // unless it was a self-loop.
                    if *lockstep != Some(target) {
                        *lockstep = None;
                    }
                    *steps += 1;
                    counters.add_transitions(1);
                    if m.is_finish_state(target) && !finished_dirty.get() {
                        finished.get_mut().set(slot);
                    }
                    actions
                }
                None => &[],
            },
            EngineKind::Efsm { machine, binding } => {
                let regs = &mut vars[slot * *n_regs..][..*n_regs];
                match machine.step(current[slot], message, binding, regs, scratch) {
                    Some((target, actions)) => {
                        observe(current[slot], target, actions.len());
                        current[slot] = target;
                        if *lockstep != Some(target) {
                            *lockstep = None;
                        }
                        *steps += 1;
                        counters.add_transitions(1);
                        if machine.is_finish_state(target) && !finished_dirty.get() {
                            finished.get_mut().set(slot);
                        }
                        actions
                    }
                    None => &[],
                }
            }
            EngineKind::Interpreted(m) => {
                let state = &m.states()[current[slot] as usize];
                if state.role() == StateRole::Finish {
                    return &[];
                }
                match state.transition(message) {
                    Some(t) => {
                        let target = t.target().index() as u32;
                        observe(current[slot], target, t.actions().len());
                        current[slot] = target;
                        if *lockstep != Some(target) {
                            *lockstep = None;
                        }
                        *steps += 1;
                        counters.add_transitions(1);
                        let finishes = m.states()[target as usize].role() == StateRole::Finish;
                        if finishes && !finished_dirty.get() {
                            finished.get_mut().set(slot);
                        }
                        t.actions()
                    }
                    None => &[],
                }
            }
        }
    }

    /// Returns a validated slot to the start state (same execution slot,
    /// handle stays valid).
    fn reset_slot(&mut self, id: SessionId) {
        self.check(id);
        let slot = id.slot as usize;
        let start = self.start_state();
        let start_finishes = self.is_finish(start);
        self.counters.add_resets(1);
        self.current[slot] = start;
        self.lockstep = if self.current.len() == 1 || self.lockstep == Some(start) {
            Some(start)
        } else {
            None
        };
        self.vars[slot * self.n_regs..][..self.n_regs].fill(0);
        if !self.finished_dirty.get() {
            let finished = self.finished.get_mut();
            finished.clear(slot);
            if start_finishes {
                finished.set(slot);
            }
        }
    }

    /// Retires a validated slot to the free list and bumps its
    /// generation, invalidating every outstanding handle to it.
    fn release_slot(&mut self, id: SessionId) {
        self.check(id);
        let slot = id.slot as usize;
        if self.is_finish(self.current[slot]) {
            self.counters.inc_releases_finished();
        } else {
            self.counters.inc_releases_aborted();
        }
        if !self.finished_dirty.get() {
            self.finished.get_mut().clear(slot);
        }
        self.current[slot] = RETIRED;
        // A retired slot is never uniform with live ones.
        self.lockstep = None;
        self.generations[slot] += 1;
        self.free.push(id.slot);
    }

    fn state_of(&self, id: SessionId) -> u32 {
        self.check(id);
        self.current[id.slot as usize]
    }

    fn state_name_of(&self, id: SessionId) -> &str {
        let state = self.state_of(id);
        self.state_label(state)
    }

    /// Resolves a dense state id to its source-level name without
    /// validating any handle — used by flight-recorder dumps, where the
    /// recorded session may already be retired.
    fn state_label(&self, state: u32) -> &str {
        match &self.kind {
            EngineKind::Interpreted(m) => m.states()[state as usize].name(),
            EngineKind::Compiled(m) => m.state_name(state),
            EngineKind::Efsm { machine, .. } => machine.state_name(state),
        }
    }

    fn vars_of(&self, id: SessionId) -> &[i64] {
        self.check(id);
        match &self.kind {
            EngineKind::Efsm { machine, .. } => {
                &self.vars[id.slot as usize * self.n_regs..][..machine.var_count()]
            }
            _ => &[],
        }
    }

    fn is_finished_slot(&self, id: SessionId) -> bool {
        self.check(id);
        self.sync_finished();
        self.finished.borrow().get(id.slot as usize)
    }

    /// Rebuilds the finished bitset from the state array if a batch
    /// delivery left it stale. O(slots) when dirty, O(1) when clean.
    fn sync_finished(&self) {
        if self.finished_dirty.get() {
            self.rebuild_finished(&mut self.finished.borrow_mut());
            self.finished_dirty.set(false);
        }
    }

    /// Recomputes `into` from the state array; retired slots stay unset.
    fn rebuild_finished(&self, into: &mut FinishedSet) {
        into.rebuild(&self.current, self.state_count(), |s| self.is_finish(s));
    }

    fn is_live_slot(&self, id: SessionId) -> bool {
        let slot = id.slot as usize;
        slot < self.current.len()
            && self.generations[slot] == id.generation
            && self.current[slot] != RETIRED
    }

    fn state_count(&self) -> usize {
        match &self.kind {
            EngineKind::Interpreted(m) => m.state_count(),
            EngineKind::Compiled(m) => m.state_count(),
            EngineKind::Efsm { machine, .. } => machine.state_count(),
        }
    }

    /// Captures the shard's complete durable state. The finished bitset
    /// is *not* captured — it is derivable from the state array and is
    /// rebuilt lazily on restore.
    fn snapshot(&self) -> ShardSnapshot {
        ShardSnapshot {
            current: self.current.clone(),
            generations: self.generations.clone(),
            vars: self.vars.clone(),
            free: self.free.clone(),
            steps: self.steps,
        }
    }

    /// Rebuilds a shard from a snapshot taken under a behaviourally
    /// identical engine (the caller has already matched fingerprints).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot is structurally corrupt: mismatched array
    /// lengths, a state id outside the engine's state space, or a
    /// free-list entry that does not point at a retired slot.
    fn restore(kind: EngineKind, snap: &ShardSnapshot) -> Shard {
        let mut shard = Shard::new(kind);
        let slots = snap.current.len();
        assert_eq!(
            snap.generations.len(),
            slots,
            "corrupt shard snapshot: {} generation counters for {slots} slots",
            snap.generations.len(),
        );
        assert_eq!(
            snap.vars.len(),
            slots * shard.n_regs,
            "corrupt shard snapshot: {} registers for {slots} slots of {} registers each",
            snap.vars.len(),
            shard.n_regs,
        );
        let states = shard.state_count() as u32;
        for (slot, &state) in snap.current.iter().enumerate() {
            assert!(
                state == RETIRED || state < states,
                "corrupt shard snapshot: slot {slot} in state {state} but the engine has {states} states",
            );
        }
        for &free in &snap.free {
            assert!(
                snap.current.get(free as usize) == Some(&RETIRED),
                "corrupt shard snapshot: free-list entry {free} is not a retired slot",
            );
        }
        shard.current = snap.current.clone();
        shard.generations = snap.generations.clone();
        shard.vars = snap.vars.clone();
        shard.free = snap.free.clone();
        shard.steps = snap.steps;
        shard.finished.get_mut().grow_for(slots);
        shard.finished_dirty.set(true);
        shard
    }

    /// Re-targets a shard with no live sessions at a different engine.
    /// Slot count, generation counters, free list and step counter are
    /// preserved — outstanding stale handles stay stale and recycled
    /// slots keep their generation history, so no handle minted under
    /// the old engine can ever silently address a session spawned under
    /// the new one — while the register file and scratch are rebuilt
    /// for the new machine (safe precisely because no slot is live).
    fn rekind_empty(&mut self, kind: EngineKind) {
        debug_assert_eq!(self.live(), 0, "rekind_empty on a shard with live sessions");
        let (n_regs, scratch) = match &kind {
            EngineKind::Efsm { machine, .. } => {
                (machine.reg_count(), vec![0; machine.scratch_len()])
            }
            _ => (0, Vec::new()),
        };
        self.kind = kind;
        self.n_regs = n_regs;
        self.scratch = scratch;
        self.vars = vec![0; self.current.len() * n_regs];
        self.finished.get_mut().clear_all();
        self.finished_dirty.set(false);
    }

    /// The generic batch hot loop behind [`Shard::deliver_all`].
    ///
    /// Monomorphized per observer: with [`NoopObserver`] the
    /// `on_transition` call is an inlined empty body and the loop
    /// compiles to exactly the unobserved walk (the `runtime_facade`
    /// benchmark row keeps gating it at ≤ 1.10× raw stepping with
    /// telemetry compiled in). With a [`FlightRecorder`] each
    /// transition additionally appends one fixed-size event to the
    /// ring — the production observed path ([`Shard::deliver_all`])
    /// instead replays only the ring-sized tail after an unobserved
    /// pass, and a unit test pins the two paths to identical rings.
    fn deliver_batch<O: RuntimeObserver>(&mut self, message: MessageId, observer: &mut O) -> u64 {
        let live = self.live() as u64;
        let msg_idx = message.index() as u32;
        let Shard {
            kind,
            current,
            generations,
            free,
            vars,
            scratch,
            kernel,
            n_regs,
            steps,
            counters,
            lockstep,
            ..
        } = self;
        let mut transitions = 0;
        match kind {
            EngineKind::Compiled(m) => {
                // Bind the machine as a plain reference so every table
                // pointer is a hoistable loop invariant (not re-derefed
                // through the `Arc` each iteration).
                let m: &CompiledMachine = m;
                // `O::ENABLED` is a monomorphization-time constant, so
                // exactly one branch of each `if` survives per
                // instantiation. The unobserved arm routes through the
                // bucketed batch kernel ([`KernelScratch`]) — `RETIRED`
                // slots land in the kernel's out-of-range skip bucket,
                // so one call covers the dense and recycled cases. The
                // observed loops are written *separately* (not as an
                // observed loop with a dead event block) so their
                // bodies stay literally the pre-telemetry walk.
                if !O::ENABLED {
                    transitions = m.deliver_batch_states(message, current, kernel);
                } else if free.is_empty() {
                    // Observed dense path: the generations ride along
                    // zipped (not indexed), keeping the event build
                    // bounds-check-free.
                    let gens = generations.iter();
                    for (slot, (cur, gen)) in current.iter_mut().zip(gens).enumerate() {
                        if let Some((target, actions)) = m.step(*cur, message) {
                            observer.on_transition(TransitionEvent {
                                slot: slot as u32,
                                generation: *gen,
                                from: *cur,
                                to: target,
                                message: msg_idx,
                                actions: actions.len() as u32,
                                tick: 0,
                            });
                            *cur = target;
                            transitions += 1;
                        }
                    }
                } else {
                    let gens = generations.iter();
                    for (slot, (cur, gen)) in current.iter_mut().zip(gens).enumerate() {
                        if *cur == RETIRED {
                            continue;
                        }
                        if let Some((target, actions)) = m.step(*cur, message) {
                            observer.on_transition(TransitionEvent {
                                slot: slot as u32,
                                generation: *gen,
                                from: *cur,
                                to: target,
                                message: msg_idx,
                                actions: actions.len() as u32,
                                tick: 0,
                            });
                            *cur = target;
                            transitions += 1;
                        }
                    }
                }
            }
            EngineKind::Efsm { machine, binding } => {
                let machine: &CompiledEfsm = machine;
                let binding: &EfsmBinding = binding;
                if !O::ENABLED {
                    transitions = machine
                        .deliver_batch_states(message, binding, current, vars, scratch, kernel);
                } else {
                    let regs = vars.chunks_exact_mut(*n_regs);
                    let walk = current.iter_mut().zip(regs).zip(generations.iter());
                    for (slot, ((cur, regs), gen)) in walk.enumerate() {
                        if *cur == RETIRED {
                            continue;
                        }
                        if let Some((target, actions)) =
                            machine.step(*cur, message, binding, regs, scratch)
                        {
                            observer.on_transition(TransitionEvent {
                                slot: slot as u32,
                                generation: *gen,
                                from: *cur,
                                to: target,
                                message: msg_idx,
                                actions: actions.len() as u32,
                                tick: 0,
                            });
                            *cur = target;
                            transitions += 1;
                        }
                    }
                }
            }
            EngineKind::Interpreted(m) => {
                let states = m.states();
                if !O::ENABLED {
                    for cur in current.iter_mut() {
                        if *cur == RETIRED {
                            continue;
                        }
                        let state = &states[*cur as usize];
                        if state.role() == StateRole::Finish {
                            continue;
                        }
                        if let Some(t) = state.transition(message) {
                            *cur = t.target().index() as u32;
                            transitions += 1;
                        }
                    }
                } else {
                    let gens = generations.iter();
                    for (slot, (cur, gen)) in current.iter_mut().zip(gens).enumerate() {
                        if *cur == RETIRED {
                            continue;
                        }
                        let state = &states[*cur as usize];
                        if state.role() == StateRole::Finish {
                            continue;
                        }
                        if let Some(t) = state.transition(message) {
                            let target = t.target().index() as u32;
                            observer.on_transition(TransitionEvent {
                                slot: slot as u32,
                                generation: *gen,
                                from: *cur,
                                to: target,
                                message: msg_idx,
                                actions: t.actions().len() as u32,
                                tick: 0,
                            });
                            *cur = target;
                            transitions += 1;
                        }
                    }
                }
            }
        }
        // Keep the lockstep hint truthful across the batch: the dense
        // tiers step deterministically by state, so a uniform pool
        // either took the same transition everywhere (uniform at the
        // shared target) or nowhere; EFSM guards read per-slot
        // registers and can split a uniform pool, so any transition
        // drops the hint there.
        if transitions > 0 {
            *lockstep = match kind {
                EngineKind::Efsm { .. } => None,
                _ => lockstep.and(current.first().copied()),
            };
        }
        counters.add_deliveries(live);
        counters.add_transitions(transitions);
        *steps += transitions;
        if transitions > 0 {
            self.finished_dirty.set(true);
        }
        transitions
    }

    /// Probes the flight-recorder tail of a batch *before* running it
    /// (see [`Shard::deliver_all`]).
    ///
    /// A ring of capacity `c` only ever keeps a batch's *last* `c`
    /// transitions, and every engine tier is deterministic, so those
    /// events are computable from the pre-batch state alone: walk the
    /// live state array backwards, re-step each live slot, and stop
    /// once `c` transitions have been found. Running the probe ahead of
    /// the batch means no copy of the slot arrays is ever taken — the
    /// probe reads the arrays the batch is about to overwrite — so the
    /// recording cost is O(probed suffix + c) per batch (O(c) when
    /// transitions are dense at the tail) instead of an O(sessions)
    /// memcpy plus the same scan.
    ///
    /// The EFSM arm must not let [`CompiledEfsm::step`]'s updates touch
    /// the live registers, so each probed slot's row is copied into the
    /// one-row `replay_vars` scratch first and the step runs on the
    /// copy.
    fn capture_batch_tail(&mut self, message: MessageId, capacity: usize) {
        let msg_idx = message.index() as u32;
        // Lockstep fast path: when the hint proves every slot shares
        // one state, the dense tiers' step outcome is decided by a
        // single table probe — the tail is the last `capacity` slots
        // taking that one transition (or empty), built in O(capacity)
        // with no pass over the slot arrays. EFSM guards read per-slot
        // registers, which a shared *state* says nothing about, so that
        // tier always takes the scan below.
        if let Some(state) = self.lockstep {
            let probe = match &self.kind {
                EngineKind::Compiled(m) => {
                    Some(m.step(state, message).map(|(t, a)| (t, a.len() as u32)))
                }
                EngineKind::Interpreted(m) => {
                    let st = &m.states()[state as usize];
                    Some(if st.role() == StateRole::Finish {
                        None
                    } else {
                        st.transition(message)
                            .map(|t| (t.target().index() as u32, t.actions().len() as u32))
                    })
                }
                EngineKind::Efsm { .. } => None,
            };
            if let Some(outcome) = probe {
                self.replay_tail.clear();
                if let Some((target, actions)) = outcome {
                    let n = self.current.len();
                    for slot in (n.saturating_sub(capacity)..n).rev() {
                        self.replay_tail.push(TransitionEvent {
                            slot: slot as u32,
                            generation: self.generations[slot],
                            from: state,
                            to: target,
                            message: msg_idx,
                            actions,
                            tick: 0,
                        });
                    }
                }
                return;
            }
        }
        let Shard {
            kind,
            current,
            generations,
            vars,
            scratch,
            n_regs,
            replay_vars,
            replay_tail,
            ..
        } = self;
        replay_tail.clear();
        match kind {
            EngineKind::Compiled(m) => {
                let m: &CompiledMachine = m;
                for (slot, &pre) in current.iter().enumerate().rev() {
                    if replay_tail.len() == capacity {
                        break;
                    }
                    if pre == RETIRED {
                        continue;
                    }
                    if let Some((target, actions)) = m.step(pre, message) {
                        replay_tail.push(TransitionEvent {
                            slot: slot as u32,
                            generation: generations[slot],
                            from: pre,
                            to: target,
                            message: msg_idx,
                            actions: actions.len() as u32,
                            tick: 0,
                        });
                    }
                }
            }
            EngineKind::Efsm { machine, binding } => {
                let machine: &CompiledEfsm = machine;
                let binding: &EfsmBinding = binding;
                replay_vars.resize(*n_regs, 0);
                for (slot, &pre) in current.iter().enumerate().rev() {
                    if replay_tail.len() == capacity {
                        break;
                    }
                    if pre == RETIRED {
                        continue;
                    }
                    replay_vars.copy_from_slice(&vars[slot * *n_regs..][..*n_regs]);
                    if let Some((target, actions)) =
                        machine.step(pre, message, binding, replay_vars, scratch)
                    {
                        replay_tail.push(TransitionEvent {
                            slot: slot as u32,
                            generation: generations[slot],
                            from: pre,
                            to: target,
                            message: msg_idx,
                            actions: actions.len() as u32,
                            tick: 0,
                        });
                    }
                }
            }
            EngineKind::Interpreted(m) => {
                let states = m.states();
                for (slot, &pre) in current.iter().enumerate().rev() {
                    if replay_tail.len() == capacity {
                        break;
                    }
                    if pre == RETIRED {
                        continue;
                    }
                    let state = &states[pre as usize];
                    if state.role() == StateRole::Finish {
                        continue;
                    }
                    if let Some(t) = state.transition(message) {
                        replay_tail.push(TransitionEvent {
                            slot: slot as u32,
                            generation: generations[slot],
                            from: pre,
                            to: t.target().index() as u32,
                            message: msg_idx,
                            actions: t.actions().len() as u32,
                            tick: 0,
                        });
                    }
                }
            }
        }
    }

    /// Records the tail probed by [`Shard::capture_batch_tail`] once
    /// the batch has reported its transition count: the overwritten
    /// prefix is accounted with [`FlightRecorder::skip_overwritten`],
    /// then the tail lands in forward order — a ring (contents, order,
    /// and derived ticks) bit-identical to per-transition recording.
    fn commit_batch_tail(&mut self, rec: &mut FlightRecorder, transitions: u64) {
        debug_assert_eq!(
            self.replay_tail.len() as u64,
            transitions.min(rec.capacity() as u64),
            "the pre-batch probe and the batch disagree on the tail length"
        );
        rec.skip_overwritten(transitions - self.replay_tail.len() as u64);
        for event in self.replay_tail.drain(..).rev() {
            rec.record(event);
        }
    }

    /// The batch hot loop: a linear walk over the contiguous state (and
    /// register) arrays, skipping retired slots, with no allocation.
    ///
    /// Iterator-based (no bounds checks on the state loads) and free of
    /// finished-set maintenance — a per-transition finish check is a
    /// dependent load that costs 25-50% of raw dispatch, so the batch
    /// path only marks the bitset dirty and queries rebuild it lazily.
    /// The compiled arm therefore compiles to the same loop body as
    /// stepping a bare state array through `CompiledMachine::step`,
    /// plus one predictable retired-slot compare; the `runtime_facade`
    /// benchmark row gates it at ≤ 1.10× raw stepping.
    ///
    /// Dispatches on the recorder statically: the no-recorder path runs
    /// the [`NoopObserver`] instantiation of `Shard::deliver_batch` —
    /// bit-identical codegen to the pre-telemetry loop. The observed
    /// path *probes* the ring's surviving tail before the batch
    /// (engines are deterministic, so a backward scan over the
    /// pre-batch states yields exactly the events a per-transition
    /// observer would have kept), then runs the same unobserved loop at
    /// full speed and commits the probed tail — recording cost is
    /// O(probed suffix + ring capacity) per batch, with no copy of the
    /// slot arrays and no event build inside the hot loop.
    /// `runtime_observed` benches this at ≤ 1.25× the unobserved
    /// facade.
    pub(crate) fn deliver_all(&mut self, message: MessageId) -> u64 {
        match self.recorder.take() {
            Some(mut rec) => {
                self.capture_batch_tail(message, rec.capacity());
                let transitions = self.deliver_batch(message, &mut NoopObserver);
                self.commit_batch_tail(&mut rec, transitions);
                self.recorder = Some(rec);
                transitions
            }
            None => self.deliver_batch(message, &mut NoopObserver),
        }
    }

    /// Live finished sessions (rebuilds the finished set if a batch left
    /// it stale).
    pub(crate) fn finished_count(&self) -> usize {
        self.sync_finished();
        self.finished.borrow().count()
    }

    /// Total transitions taken in this shard.
    pub(crate) fn steps(&self) -> u64 {
        self.steps
    }

    /// Returns every *live* slot to the start state; retired slots stay
    /// on the free list.
    pub(crate) fn reset_all(&mut self) {
        self.counters.add_resets(self.live() as u64);
        let start = self.start_state();
        let start_finishes = self.is_finish(start);
        for slot in 0..self.current.len() {
            if self.current[slot] != RETIRED {
                self.current[slot] = start;
            }
        }
        self.lockstep = if self.free.is_empty() {
            Some(start)
        } else {
            None
        };
        self.vars.fill(0);
        self.finished_dirty.set(false);
        let finished = self.finished.get_mut();
        finished.clear_all();
        if start_finishes {
            for slot in 0..self.current.len() {
                if self.current[slot] != RETIRED {
                    finished.set(slot);
                }
            }
        }
        self.steps = 0;
    }

    /// Verifies the shard's incrementally maintained invariants against
    /// the slot arrays (see [`Runtime::check_invariants`]).
    fn check_invariants(&self, shard: usize) {
        let slots = self.current.len();
        assert_eq!(
            self.generations.len(),
            slots,
            "shard {shard}: {} generation counters for {slots} slots",
            self.generations.len(),
        );
        assert_eq!(
            self.vars.len(),
            slots * self.n_regs,
            "shard {shard}: {} registers for {slots} slots of {} registers each",
            self.vars.len(),
            self.n_regs,
        );
        let mut on_free_list = vec![false; slots];
        for &free in &self.free {
            let slot = free as usize;
            assert!(
                self.current.get(slot) == Some(&RETIRED),
                "shard {shard}: free-list entry {free} is not a retired slot",
            );
            assert!(
                !on_free_list[slot],
                "shard {shard}: slot {free} is on the free list twice",
            );
            on_free_list[slot] = true;
        }
        for (slot, &state) in self.current.iter().enumerate() {
            assert!(
                state != RETIRED || on_free_list[slot],
                "shard {shard}: retired slot {slot} is missing from the free list",
            );
            assert!(
                state == RETIRED || (state as usize) < self.state_count(),
                "shard {shard}: slot {slot} holds state {state}, outside the engine",
            );
        }
        if !self.finished_dirty.get() {
            let mut derived = FinishedSet::default();
            self.rebuild_finished(&mut derived);
            let finished = self.finished.borrow();
            for slot in 0..slots {
                assert_eq!(
                    finished.get(slot),
                    derived.get(slot),
                    "shard {shard}: clean finished bit of slot {slot} disagrees with its state",
                );
            }
            assert_eq!(
                finished.count(),
                derived.count(),
                "shard {shard}: clean finished count disagrees with the states",
            );
        }
        if let Some(state) = self.lockstep {
            if let Some(slot) = self.current.iter().position(|&s| s != state) {
                panic!(
                    "shard {shard}: lockstep hint says every slot is in state {state}, \
                     but slot {slot} is in state {}",
                    self.current[slot],
                );
            }
        }
    }
}

/// A point-in-time capture of one session (see [`Runtime::snapshot`]):
/// everything needed to recognise the same execution later.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSnapshot {
    /// The dense state id the session was in.
    pub state: u32,
    /// The session's complete register file — declared EFSM variables
    /// first, then any compiler temporaries; empty on the non-register
    /// tiers. Capturing the *full* file (not just the declared
    /// variables) is what makes restoration bit-identical.
    pub vars: Vec<i64>,
    /// The slot generation the snapshot was taken at; a handle with
    /// this generation addresses the captured execution.
    pub generation: u32,
}

/// One shard's durable state inside a [`RuntimeSnapshot`]. The finished
/// bitset is deliberately absent: finish states are absorbing, so it is
/// derivable from the state array and rebuilt lazily after restore.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ShardSnapshot {
    current: Vec<u32>,
    generations: Vec<u32>,
    vars: Vec<i64>,
    free: Vec<u32>,
    steps: u64,
}

/// A whole-pool capture of a [`Runtime`] (see [`Runtime::snapshot_all`])
/// restorable with [`Runtime::restore`]: every shard's state array,
/// register file, generation counters, free list and step counter, plus
/// the engine's behavioural fingerprint.
///
/// The fingerprint is the validity criterion: a snapshot restores only
/// into an engine whose [`Engine::fingerprint`] matches — i.e. a
/// behaviourally identical machine, whatever tier it resolved onto.
/// Restoration preserves slot generations, so [`SessionId`]s minted
/// before the snapshot keep addressing their sessions in the restored
/// runtime — recovered peers keep talking to their old sessions.
///
/// Armed timeouts are *not* part of a snapshot: the timer wheel is
/// volatile coordination state, and a restored runtime starts with an
/// empty wheel. Callers re-arm whatever deadlines still matter (a
/// recovering node typically re-arms retry/GC timers from its own
/// durable bookkeeping).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeSnapshot {
    fingerprint: u64,
    shards: Vec<ShardSnapshot>,
}

impl RuntimeSnapshot {
    /// The behavioural fingerprint of the engine the snapshot was taken
    /// under (see [`Engine::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Sessions that were live (spawned and not released) at capture.
    pub fn live_sessions(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.current.len() - s.free.len())
            .sum()
    }
}

/// The result of [`Runtime::begin_swap`]: how the runtime moved (or is
/// moving) to the incoming engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapOutcome {
    /// The incoming engine is behaviourally identical to the serving
    /// one ([`Engine::fingerprint`] matched), so every live session was
    /// migrated in place via snapshot/restore. The swap is complete;
    /// every outstanding [`SessionId`] remains valid.
    Migrated {
        /// Sessions migrated onto the incoming engine.
        sessions: usize,
    },
    /// No session was live, so every shard was re-targeted at the
    /// incoming engine immediately. The swap is complete.
    Completed,
    /// The runtime is draining: new spawns land on the incoming engine,
    /// sessions on the outgoing engine keep being served until they are
    /// released, and [`Runtime::finish_swap`] completes the switch once
    /// [`Runtime::draining_sessions`] reaches zero.
    Draining {
        /// Sessions still live on the outgoing engine.
        sessions: usize,
    },
}

/// An in-progress drain-and-switch (see [`Runtime::begin_swap`]).
#[derive(Debug)]
struct PendingSwap {
    /// The engine being swapped in.
    engine: Engine,
    /// Shard indices still serving the outgoing engine until their
    /// sessions are released.
    draining: Vec<usize>,
    /// Shard indices serving the incoming engine (the only spawn
    /// targets while the swap is in progress).
    incoming: Vec<usize>,
}

/// The serving facade: a pool of concurrent protocol sessions over one
/// owned [`Engine`], with one vocabulary across every execution tier.
///
/// * [`spawn`](Runtime::spawn) / [`spawn_many`](Runtime::spawn_many)
///   start executions and hand out typed [`SessionId`]s;
/// * [`deliver`](Runtime::deliver) steps one session (returning the
///   triggered actions, borrowed — no allocation on any compiled-tier
///   delivery path); [`deliver_all`](Runtime::deliver_all) steps every
///   session;
/// * [`reset`](Runtime::reset) restarts an execution in place,
///   [`release`](Runtime::release) recycles its slot (bumping the
///   generation, so stale handles fail loudly);
/// * introspection — [`state_name`](Runtime::state_name),
///   [`is_finished`](Runtime::is_finished), [`vars`](Runtime::vars),
///   [`finished_count`](Runtime::finished_count), … — is uniform and
///   allocation-free;
/// * [`begin_swap`](Runtime::begin_swap) /
///   [`finish_swap`](Runtime::finish_swap) /
///   [`abort_swap`](Runtime::abort_swap) roll a *live* runtime onto a
///   new engine — typically loaded from a deployable
///   [`Artifact`](stategen_core::Artifact) — migrating sessions in
///   place when the behavioural fingerprint matches and
///   drain-and-switching otherwise, with incompatible engines rejected
///   before any session moves.
///
/// Sharding is configuration: [`sharded(k)`](Runtime::sharded)
/// partitions future sessions across `k` shards. There are two ways to
/// step them: [`deliver_all`](Runtime::deliver_all) walks the shards
/// inline on the calling thread, and
/// [`with_workers`](Runtime::with_workers) runs a batch sequence on
/// persistent work-stealing threads. Results are bit-identical to a
/// single shard whatever the scheduling, because sessions never share
/// state.
#[derive(Debug)]
pub struct Runtime {
    engine: Engine,
    /// The session shards; never empty. Handles address a shard by
    /// index, so shards are only ever appended.
    shards: Vec<Shard>,
    /// Session deadlines (see [`Runtime::arm_timeout`]); volatile —
    /// deliberately excluded from [`RuntimeSnapshot`]s.
    timers: TimerWheel<SessionId>,
    /// Reused buffer for expired timers in [`Runtime::advance_time`].
    expired_scratch: Vec<SessionId>,
    /// An in-progress drain-and-switch (see [`Runtime::begin_swap`]).
    pending: Option<PendingSwap>,
    /// Runtime-level telemetry (timeouts, swaps, snapshots) — the
    /// per-session counters live on each [`Shard`]. Merged on demand by
    /// [`Runtime::metrics`]; never part of a [`RuntimeSnapshot`].
    counters: RuntimeCounters,
    /// Wall-clock nanoseconds per [`Runtime::deliver_all`] batch, armed
    /// by [`Runtime::attach_recorder`] (boxed: ~8 KiB of buckets).
    batch_latency: Option<Box<LogHistogram>>,
    /// Ring capacity requested by [`Runtime::attach_recorder`], so
    /// shards appended mid-swap get recorders too.
    recorder_capacity: Option<usize>,
    /// The flight-recorder dump captured by the last
    /// [`Runtime::abort_swap`] (see [`Runtime::abort_dump`]).
    abort_dump: Option<String>,
}

impl Runtime {
    /// A runtime over `engine` with one shard and no sessions.
    pub fn new(engine: Engine) -> Self {
        let shards = vec![Shard::new(engine.kind.clone())];
        Runtime {
            engine,
            shards,
            timers: TimerWheel::new(),
            expired_scratch: Vec::new(),
            pending: None,
            counters: RuntimeCounters::new(),
            batch_latency: None,
            recorder_capacity: None,
            abort_dump: None,
        }
    }

    /// Reconfigures the runtime to `shards` shards. Sharding is pure
    /// configuration — call it once after construction, before spawning.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or sessions have already been spawned
    /// (redistribution would invalidate outstanding [`SessionId`]s).
    pub fn sharded(self, shards: usize) -> Self {
        assert!(shards > 0, "runtime needs at least one shard");
        assert!(
            self.shards.iter().all(|s| s.current.is_empty()),
            "sharded() must be called before spawning sessions"
        );
        let shards = (0..shards)
            .map(|_| {
                let mut shard = Shard::new(self.engine.kind.clone());
                if let Some(cap) = self.recorder_capacity {
                    shard.recorder = Some(FlightRecorder::new(cap));
                }
                shard
            })
            .collect();
        Runtime {
            engine: self.engine,
            shards,
            timers: TimerWheel::new(),
            expired_scratch: Vec::new(),
            pending: None,
            counters: self.counters,
            batch_latency: self.batch_latency,
            recorder_capacity: self.recorder_capacity,
            abort_dump: self.abort_dump,
        }
    }

    /// The engine this runtime serves.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Number of shards: the units [`Runtime::with_workers`] hands to
    /// its worker threads. [`Runtime::deliver_all`] steps them inline.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Looks up a message id by name in O(1) (delegates to
    /// [`Engine::message_id`]).
    pub fn message_id(&self, name: &str) -> Option<MessageId> {
        self.engine.message_id(name)
    }

    /// Starts a fresh execution (recycling a released slot if one is
    /// free, else growing the least-loaded shard) and returns its
    /// handle. Amortised O(1); the only runtime operation that may
    /// allocate, and never per-event.
    ///
    /// While a hot-swap is draining (see [`Runtime::begin_swap`]), new
    /// sessions land only on shards serving the *incoming* engine.
    pub fn spawn(&mut self) -> SessionId {
        let shards = &mut self.shards;
        let shard = match &self.pending {
            Some(p) => p
                .incoming
                .iter()
                .copied()
                .min_by_key(|&i| shards[i].live())
                .expect("a draining swap has at least one incoming shard"),
            None => (0..shards.len())
                .min_by_key(|&i| shards[i].live())
                .expect("runtime has at least one shard"),
        };
        let (slot, generation) = shards[shard].spawn_slot();
        SessionId {
            shard: shard as u32,
            slot,
            generation,
        }
    }

    /// Starts `count` fresh executions, balanced across shards (only
    /// the incoming engine's shards while a hot-swap is draining).
    pub fn spawn_many(&mut self, count: usize) {
        if self.pending.is_some() {
            // Mid-swap spawns are rare and restricted to the incoming
            // shards; route each through the swap-aware single path.
            for _ in 0..count {
                self.spawn();
            }
            return;
        }
        // Spawn shard-by-shard to keep balancing O(shards), not
        // O(count × shards).
        let shards = &mut self.shards;
        let k = shards.len();
        let target = {
            let live: usize = shards.iter().map(Shard::live).sum();
            (live + count).div_ceil(k)
        };
        let mut remaining = count;
        for shard in shards.iter_mut() {
            while remaining > 0 && shard.live() < target {
                shard.spawn_slot();
                remaining -= 1;
            }
        }
        // Remainder (every shard at target): round-robin.
        while remaining > 0 {
            self.spawn();
            remaining -= 1;
        }
    }

    /// Sessions currently live (spawned and not released).
    pub fn len(&self) -> usize {
        self.shards.iter().map(Shard::live).sum()
    }

    /// `true` if no session is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Delivers a message to one session; returns the triggered
    /// actions, borrowed from the engine (no allocation on any
    /// compiled-tier path). Finished sessions absorb every message.
    ///
    /// `message` must come from this runtime's engine (via
    /// [`Runtime::message_id`] / [`Engine::message_id`]).
    ///
    /// # Panics
    ///
    /// Panics if `session` is stale — its slot was
    /// [`release`](Runtime::release)d (and possibly recycled into a new
    /// execution). This is the typed-handle guarantee: a handle to a
    /// dead execution can never silently address a live one.
    #[inline]
    pub fn deliver(&mut self, session: SessionId, message: MessageId) -> &[Action] {
        self.shards[session.shard as usize].deliver_slot(session, message)
    }

    /// Non-panicking form of [`Runtime::deliver`], for inputs from
    /// untrusted sources (deserialized, long-stored, or cross-component
    /// handles that may outlive their execution): a stale or recycled
    /// generational handle returns [`StategenError::StaleSession`]
    /// instead of panicking, and a message id out of range for this
    /// engine's alphabet returns [`StategenError::MessageOutOfRange`]
    /// instead of silently dispatching from the wrong table cell. Valid
    /// inputs behave exactly like [`Runtime::deliver`]: the triggered
    /// actions are returned, borrowed, with no allocation on any
    /// compiled-tier path.
    ///
    /// The staleness check is scoped to handles *this runtime minted*:
    /// a [`SessionId`] carries no runtime identity, so a handle from a
    /// *different* runtime is rejected only when its coordinates do not
    /// resolve here (shard out of range, unused slot, generation
    /// mismatch) — one whose coordinates happen to collide with a live
    /// session is indistinguishable from that session's own handle. Do
    /// not mix handles across runtimes.
    ///
    /// # Errors
    ///
    /// [`StategenError::StaleSession`] if `session` does not address a
    /// live execution in this runtime;
    /// [`StategenError::MessageOutOfRange`] if `message` was minted by
    /// a machine with a larger alphabet.
    pub fn try_deliver(
        &mut self,
        session: SessionId,
        message: MessageId,
    ) -> Result<&[Action], StategenError> {
        let alphabet = self.engine.messages().len();
        if message.index() >= alphabet {
            return Err(StategenError::MessageOutOfRange {
                index: message.index(),
                messages: alphabet,
            });
        }
        let stale = StategenError::StaleSession {
            shard: session.shard(),
            slot: session.slot(),
            generation: session.generation(),
        };
        let Some(shard) = self.shards.get_mut(session.shard as usize) else {
            return Err(stale);
        };
        if !shard.is_live_slot(session) {
            return Err(stale);
        }
        Ok(shard.deliver_slot(session, message))
    }

    /// Delivers a message to every live session, stepping the shards
    /// in order on the calling thread, and returns the number of
    /// transitions taken. To spread a sequence of batches over several
    /// cores, use [`Runtime::with_workers`].
    ///
    /// While a recorder is attached (see [`Runtime::attach_recorder`])
    /// the batch's wall-clock latency is also recorded into
    /// [`Runtime::batch_latency`]; unobserved runtimes skip the clock
    /// reads entirely.
    pub fn deliver_all(&mut self, message: MessageId) -> u64 {
        let start = self.batch_latency.is_some().then(Instant::now);
        let transitions = self
            .shards
            .iter_mut()
            .map(|shard| shard.deliver_all(message))
            .sum();
        if let (Some(hist), Some(start)) = (&mut self.batch_latency, start) {
            hist.record(start.elapsed().as_nanos() as u64);
        }
        transitions
    }

    /// Runs `f` with `workers` persistent work-stealing threads over the
    /// shards: a batch *sequence* pays one thread spawn/join in total,
    /// and each batch is spread over the cores. `workers` is clamped to
    /// the shard count; with one worker no thread is spawned and the
    /// shards are stepped inline.
    ///
    /// Each worker drains its own deque of shards and steals from the
    /// others when idle. Every shard is stepped by exactly one worker
    /// per batch, and shards share no session state, so the results are
    /// bit-identical to [`Runtime::deliver_all`] whatever the
    /// interleaving. While `f` runs the shards are borrowed by the
    /// workers, so only the aggregate accessors on [`Workers`] are
    /// available; per-session queries work again once `with_workers`
    /// returns.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero, and propagates a panic from `f` or
    /// from a shard (after releasing every worker thread).
    pub fn with_workers<R>(&mut self, workers: usize, f: impl FnOnce(&mut Workers<'_>) -> R) -> R {
        Workers::run(&mut self.shards, workers, f)
    }

    /// Returns one session to the start state (same slot, handle stays
    /// valid) for a fresh execution.
    ///
    /// # Panics
    ///
    /// Panics if `session` is stale (see [`Runtime::deliver`]).
    pub fn reset(&mut self, session: SessionId) {
        self.shards[session.shard as usize].reset_slot(session);
    }

    /// Returns every live session to the start state.
    pub fn reset_all(&mut self) {
        for shard in &mut self.shards {
            shard.reset_all();
        }
    }

    /// Ends an execution and recycles its slot through the free list.
    /// The slot's generation is bumped: every outstanding handle to the
    /// released execution becomes stale and will panic if used.
    ///
    /// # Panics
    ///
    /// Panics if `session` is already stale (double release).
    pub fn release(&mut self, session: SessionId) {
        self.shards[session.shard as usize].release_slot(session);
        if self.timers.cancel(&session) {
            self.counters.inc_timeouts_cancelled();
        }
    }

    /// `true` while `session` addresses a live execution (its slot has
    /// not been released/recycled). The non-panicking validity probe.
    pub fn is_live(&self, session: SessionId) -> bool {
        self.shards
            .get(session.shard as usize)
            .is_some_and(|s| s.is_live_slot(session))
    }

    /// The dense state id of a session.
    ///
    /// # Panics
    ///
    /// Panics if `session` is stale.
    pub fn state(&self, session: SessionId) -> u32 {
        self.shards[session.shard as usize].state_of(session)
    }

    /// Display name of a session's state, borrowed from the engine.
    ///
    /// # Panics
    ///
    /// Panics if `session` is stale.
    pub fn state_name(&self, session: SessionId) -> &str {
        self.shards[session.shard as usize].state_name_of(session)
    }

    /// A session's EFSM variable registers, in declaration order (empty
    /// on non-EFSM tiers).
    ///
    /// # Panics
    ///
    /// Panics if `session` is stale.
    pub fn vars(&self, session: SessionId) -> &[i64] {
        self.shards[session.shard as usize].vars_of(session)
    }

    /// `true` once a session has reached a finish state.
    ///
    /// # Panics
    ///
    /// Panics if `session` is stale.
    pub fn is_finished(&self, session: SessionId) -> bool {
        self.shards[session.shard as usize].is_finished_slot(session)
    }

    /// Number of live finished sessions.
    ///
    /// Tracked incrementally by the single-session paths (O(shards)
    /// while only [`Runtime::deliver`]/[`Runtime::reset`]/
    /// [`Runtime::release`] have run), but a
    /// [`Runtime::deliver_all`] batch leaves the finished bitset stale
    /// — keeping the batch hot loop free of per-transition finish
    /// checks — so the first query after a batch rebuilds it at O(live
    /// sessions) per dirty shard. Poll between batches, not inside a
    /// per-delivery hot path.
    pub fn finished_count(&self) -> usize {
        self.shards.iter().map(Shard::finished_count).sum()
    }

    /// `true` once every live session has finished.
    pub fn all_finished(&self) -> bool {
        self.finished_count() == self.len()
    }

    /// Total transitions taken across all sessions.
    pub fn steps(&self) -> u64 {
        self.shards.iter().map(Shard::steps).sum()
    }

    /// The checked mode for the invariants the shards maintain
    /// incrementally. For every shard it verifies that:
    ///
    /// * the generation counters and the register file match the slot
    ///   count, and every live slot holds a state of the engine;
    /// * every free-list entry is unique and names a retired slot, and
    ///   every retired slot is on the free list;
    /// * a clean (not batch-stale) finished set equals the one derived
    ///   from the states;
    /// * the lockstep hint is true: `Some(s)` means every slot holds `s`.
    ///
    /// O(sessions); meant for tests and debugging, not the serving path.
    /// It reads without repairing anything, so checking never changes
    /// behaviour.
    ///
    /// # Panics
    ///
    /// Panics with the shard, slot and invariant at fault if any
    /// invariant does not hold.
    pub fn check_invariants(&self) {
        for (i, shard) in self.shards.iter().enumerate() {
            shard.check_invariants(i);
        }
    }

    /// A [`ProtocolEngine`] view of one session, for code written
    /// against the trait vocabulary (equivalence suites, generic
    /// drivers).
    pub fn session(&mut self, id: SessionId) -> Session<'_> {
        Session { runtime: self, id }
    }

    /// The `StaleSession` error for a handle that failed validation.
    fn stale(session: SessionId) -> StategenError {
        StategenError::StaleSession {
            shard: session.shard(),
            slot: session.slot(),
            generation: session.generation(),
        }
    }

    /// Validates a handle fallibly, returning its shard.
    fn live_shard(&self, session: SessionId) -> Result<&Shard, StategenError> {
        let shard = self
            .shards
            .get(session.shard as usize)
            .ok_or_else(|| Runtime::stale(session))?;
        if !shard.is_live_slot(session) {
            return Err(Runtime::stale(session));
        }
        Ok(shard)
    }

    /// Validates a handle fallibly, returning its shard mutably.
    fn live_shard_mut(&mut self, session: SessionId) -> Result<&mut Shard, StategenError> {
        let shard = self
            .shards
            .get_mut(session.shard as usize)
            .ok_or_else(|| Runtime::stale(session))?;
        if !shard.is_live_slot(session) {
            return Err(Runtime::stale(session));
        }
        Ok(shard)
    }

    /// Non-panicking form of [`Runtime::reset`]: returns the session to
    /// the start state, or [`StategenError::StaleSession`] if the
    /// handle no longer addresses a live execution.
    ///
    /// # Errors
    ///
    /// [`StategenError::StaleSession`] if `session` is stale.
    pub fn try_reset(&mut self, session: SessionId) -> Result<(), StategenError> {
        self.live_shard_mut(session)?.reset_slot(session);
        Ok(())
    }

    /// Non-panicking form of [`Runtime::release`]: recycles the slot
    /// (bumping its generation and cancelling any armed timeout), or
    /// returns [`StategenError::StaleSession`] — so a double release is
    /// an error, not a panic.
    ///
    /// # Errors
    ///
    /// [`StategenError::StaleSession`] if `session` is stale.
    pub fn try_release(&mut self, session: SessionId) -> Result<(), StategenError> {
        self.live_shard_mut(session)?.release_slot(session);
        if self.timers.cancel(&session) {
            self.counters.inc_timeouts_cancelled();
        }
        Ok(())
    }

    /// Non-panicking form of [`Runtime::state`].
    ///
    /// # Errors
    ///
    /// [`StategenError::StaleSession`] if `session` is stale.
    pub fn try_state(&self, session: SessionId) -> Result<u32, StategenError> {
        Ok(self.live_shard(session)?.state_of(session))
    }

    /// Non-panicking form of [`Runtime::vars`].
    ///
    /// # Errors
    ///
    /// [`StategenError::StaleSession`] if `session` is stale.
    pub fn try_vars(&self, session: SessionId) -> Result<&[i64], StategenError> {
        Ok(self.live_shard(session)?.vars_of(session))
    }

    /// Captures one live session: state id, full register file and the
    /// handle generation (see [`SessionSnapshot`]).
    ///
    /// # Panics
    ///
    /// Panics if `session` is stale.
    pub fn snapshot(&self, session: SessionId) -> SessionSnapshot {
        let shard = &self.shards[session.shard as usize];
        shard.check(session);
        self.counters.inc_snapshots();
        let slot = session.slot as usize;
        SessionSnapshot {
            state: shard.current[slot],
            vars: shard.vars[slot * shard.n_regs..][..shard.n_regs].to_vec(),
            generation: session.generation,
        }
    }

    /// Captures the whole pool — every shard's sessions, registers,
    /// generations, free lists and step counters — tagged with the
    /// engine's fingerprint. Restore with [`Runtime::restore`].
    ///
    /// Armed timeouts are not captured (see [`RuntimeSnapshot`]).
    ///
    /// # Panics
    ///
    /// Panics while a hot-swap is draining: a mixed-engine pool has no
    /// single fingerprint to restore under. Finish or abort the swap
    /// first (crash recovery composes with hot-swap by restoring the
    /// last pre-swap checkpoint and re-attempting the rollout).
    pub fn snapshot_all(&self) -> RuntimeSnapshot {
        assert!(
            self.pending.is_none(),
            "cannot snapshot during a draining hot-swap; finish or abort it first"
        );
        self.counters.inc_snapshots();
        RuntimeSnapshot {
            fingerprint: self.engine.fingerprint(),
            shards: self.shards.iter().map(Shard::snapshot).collect(),
        }
    }

    /// Rebuilds a runtime from a [`RuntimeSnapshot`], validated against
    /// `engine`'s behavioural fingerprint: a snapshot restores only
    /// into a behaviourally identical machine (any tier). The restored
    /// pool is bit-identical to the captured one — states, registers,
    /// free lists, step counters *and slot generations*, so
    /// [`SessionId`]s minted before the crash keep addressing their
    /// sessions.
    ///
    /// The timer wheel starts empty; re-arm deadlines that still matter.
    ///
    /// # Errors
    ///
    /// [`StategenError::SnapshotMismatch`] if the snapshot was taken
    /// under an engine with a different fingerprint.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot is structurally corrupt (impossible for a
    /// snapshot produced by [`Runtime::snapshot_all`]).
    pub fn restore(engine: &Engine, snapshot: &RuntimeSnapshot) -> Result<Runtime, StategenError> {
        if engine.fingerprint() != snapshot.fingerprint {
            return Err(StategenError::SnapshotMismatch {
                expected: engine.fingerprint(),
                found: snapshot.fingerprint,
            });
        }
        assert!(
            !snapshot.shards.is_empty(),
            "corrupt runtime snapshot: zero shards"
        );
        let shards = snapshot
            .shards
            .iter()
            .map(|s| Shard::restore(engine.kind.clone(), s))
            .collect();
        let runtime = Runtime {
            engine: engine.clone(),
            shards,
            timers: TimerWheel::new(),
            expired_scratch: Vec::new(),
            pending: None,
            counters: RuntimeCounters::new(),
            batch_latency: None,
            recorder_capacity: None,
            abort_dump: None,
        };
        runtime.counters.inc_restores();
        Ok(runtime)
    }

    /// Begins a drain-and-switch hot-swap to `incoming` — the live
    /// half of a fleet protocol-version rollout: load the new version's
    /// [`Artifact`](stategen_core::Artifact) into an
    /// [`Engine`](Engine::from_artifact), then swap it in without
    /// dropping in-flight sessions.
    ///
    /// Three outcomes, decided *before any session moves*:
    ///
    /// * **Migrated** — `incoming` has the same behavioural fingerprint
    ///   as the serving engine (same machine, any tier/provenance):
    ///   every live session is migrated in place via snapshot/restore,
    ///   all handles stay valid, and the swap completes immediately.
    /// * **Completed** — different behaviour but no live sessions:
    ///   every shard is re-targeted immediately.
    /// * **Draining** — different behaviour with live sessions: those
    ///   sessions keep being served by the outgoing engine until
    ///   [`release`](Runtime::release)d, new spawns land on the
    ///   incoming engine, and [`Runtime::finish_swap`] completes the
    ///   switch once [`Runtime::draining_sessions`] reaches zero.
    ///   [`Runtime::abort_swap`] rolls back instead.
    ///
    /// An incompatible engine is rejected with the runtime untouched:
    /// behaviourally different engines may only swap when their message
    /// alphabets are identical, because both serve the same
    /// [`MessageId`]s during the drain.
    ///
    /// # Errors
    ///
    /// [`SwapError::AlreadyInProgress`] if a swap is draining;
    /// [`SwapError::AlphabetMismatch`] if the alphabets differ (both
    /// via [`StategenError::Swap`]).
    pub fn begin_swap(&mut self, incoming: Engine) -> Result<SwapOutcome, StategenError> {
        if self.pending.is_some() {
            return Err(SwapError::AlreadyInProgress.into());
        }
        if incoming.fingerprint() == self.engine.fingerprint() {
            // Behaviourally identical: migrate every session in place.
            // State ids and registers are meaningful under the incoming
            // engine by the fingerprint's definition, and Shard::restore
            // re-validates them structurally.
            let sessions = self.len();
            for shard in &mut self.shards {
                // Shard::restore builds a fresh shard; telemetry is not
                // part of durable state, so carry the counters and the
                // recorder ring across the migration by hand.
                let mut migrated = Shard::restore(incoming.kind.clone(), &shard.snapshot());
                migrated.counters = shard.counters.clone();
                migrated.recorder = shard.recorder.take();
                *shard = migrated;
            }
            self.engine = incoming;
            self.counters.add_swap_migrated(sessions as u64);
            self.counters.inc_swaps_completed();
            return Ok(SwapOutcome::Migrated { sessions });
        }
        if incoming.messages() != self.engine.messages() {
            return Err(SwapError::AlphabetMismatch {
                serving: self.engine.messages().len(),
                incoming: incoming.messages().len(),
            }
            .into());
        }
        let mut draining = Vec::new();
        let mut fresh = Vec::new();
        for (i, shard) in self.shards.iter_mut().enumerate() {
            if shard.live() == 0 {
                shard.rekind_empty(incoming.kind.clone());
                fresh.push(i);
            } else {
                draining.push(i);
            }
        }
        if draining.is_empty() {
            self.engine = incoming;
            self.counters.inc_swaps_completed();
            return Ok(SwapOutcome::Completed);
        }
        if fresh.is_empty() {
            // Every shard is draining: append fresh shards for the
            // incoming engine (matching the outgoing parallelism) so
            // new spawns have somewhere to land. Appending never
            // disturbs existing shard indices or handles.
            for _ in 0..draining.len() {
                fresh.push(self.shards.len());
                let mut shard = Shard::new(incoming.kind.clone());
                if let Some(cap) = self.recorder_capacity {
                    shard.recorder = Some(FlightRecorder::new(cap));
                }
                self.shards.push(shard);
            }
        }
        let sessions = draining.iter().map(|&i| self.shards[i].live()).sum();
        self.pending = Some(PendingSwap {
            engine: incoming,
            draining,
            incoming: fresh,
        });
        self.counters.inc_swaps_drained();
        Ok(SwapOutcome::Draining { sessions })
    }

    /// Completes a draining hot-swap: once every session on the
    /// outgoing engine has been released, the drained shards are
    /// re-targeted at the incoming engine (generation history intact,
    /// so pre-swap handles stay loudly stale) and it becomes the
    /// serving [`Runtime::engine`].
    ///
    /// # Errors
    ///
    /// [`SwapError::NotInProgress`] if no swap is draining;
    /// [`SwapError::Draining`] (with the live count) if sessions still
    /// hold the outgoing engine — note a *finished* session still
    /// counts until it is [`release`](Runtime::release)d (both via
    /// [`StategenError::Swap`]).
    pub fn finish_swap(&mut self) -> Result<(), StategenError> {
        let Some(pending) = &self.pending else {
            return Err(SwapError::NotInProgress.into());
        };
        let remaining: usize = pending
            .draining
            .iter()
            .map(|&i| self.shards[i].live())
            .sum();
        if remaining > 0 {
            return Err(SwapError::Draining { remaining }.into());
        }
        let pending = self.pending.take().expect("checked above");
        for &i in &pending.draining {
            self.shards[i].rekind_empty(pending.engine.kind.clone());
        }
        self.engine = pending.engine;
        self.counters.inc_swaps_completed();
        Ok(())
    }

    /// Rolls back a draining hot-swap: sessions spawned on the incoming
    /// engine since [`Runtime::begin_swap`] are force-released (their
    /// handles become stale and their timeouts are cancelled — the cost
    /// of aborting a rollout), the incoming shards are re-targeted back
    /// at the outgoing engine, and the runtime serves exactly the
    /// engine it served before the swap began. Returns how many
    /// incoming-engine sessions were dropped.
    ///
    /// Shards appended for the swap are kept (re-targeted, empty) —
    /// never removed, so slot generations can never restart and collide
    /// with handles minted during the aborted swap.
    ///
    /// # Errors
    ///
    /// [`SwapError::NotInProgress`] (via [`StategenError::Swap`]) if no
    /// swap is draining.
    pub fn abort_swap(&mut self) -> Result<usize, StategenError> {
        let Some(pending) = self.pending.take() else {
            return Err(SwapError::NotInProgress.into());
        };
        self.counters.inc_swaps_aborted();
        // Capture the trace *before* the force-release below retires
        // the incoming sessions and re-targets their shards (which
        // would invalidate the dump's state labels).
        if self.recorder_capacity.is_some() {
            self.abort_dump = Some(self.dump_trace());
        }
        let mut dropped = 0;
        for &i in &pending.incoming {
            let shard = &mut self.shards[i];
            for slot in 0..shard.current.len() {
                if shard.current[slot] == RETIRED {
                    continue;
                }
                let id = SessionId {
                    shard: i as u32,
                    slot: slot as u32,
                    generation: shard.generations[slot],
                };
                shard.release_slot(id);
                self.timers.cancel(&id);
                dropped += 1;
            }
            self.shards[i].rekind_empty(self.engine.kind.clone());
        }
        Ok(dropped)
    }

    /// `true` while a hot-swap is draining (between a
    /// [`SwapOutcome::Draining`] and the matching
    /// [`finish_swap`](Runtime::finish_swap) /
    /// [`abort_swap`](Runtime::abort_swap)).
    pub fn swap_in_progress(&self) -> bool {
        self.pending.is_some()
    }

    /// Sessions still live on the outgoing engine of a draining
    /// hot-swap (0 when no swap is in progress). The swap can
    /// [`finish`](Runtime::finish_swap) once this reaches zero.
    pub fn draining_sessions(&self) -> usize {
        self.pending.as_ref().map_or(0, |p| {
            p.draining.iter().map(|&i| self.shards[i].live()).sum()
        })
    }

    /// The engine a draining hot-swap is switching to, if one is in
    /// progress.
    pub fn incoming_engine(&self) -> Option<&Engine> {
        self.pending.as_ref().map(|p| &p.engine)
    }

    /// Arms (or moves) a timeout for one live session. When
    /// [`Runtime::advance_time`] passes `deadline`, the session is
    /// delivered the caller's timeout message through the normal
    /// delivery path — timeouts are just transitions. One deadline per
    /// session: re-arming moves it. O(1).
    ///
    /// # Panics
    ///
    /// Panics if `session` is stale.
    pub fn arm_timeout(&mut self, session: SessionId, deadline: u64) {
        self.shards[session.shard as usize].check(session);
        self.timers.arm(session, deadline);
    }

    /// Cancels a session's armed timeout; returns `true` if one was
    /// armed. O(1); never panics (a stale handle simply has no timer —
    /// [`Runtime::release`] cancels eagerly).
    pub fn cancel_timeout(&mut self, session: SessionId) -> bool {
        let cancelled = self.timers.cancel(&session);
        if cancelled {
            self.counters.inc_timeouts_cancelled();
        }
        cancelled
    }

    /// Advances the timer clock to `now` and delivers `timeout` to
    /// every session whose deadline passed, in deadline order (ties in
    /// arm order), through the normal delivery path. Sessions released
    /// after arming are skipped (their generational key no longer
    /// addresses a live execution); finished sessions absorb the
    /// message like any other. Returns how many sessions were delivered
    /// the timeout.
    ///
    /// No full-session scan happens here — cost is O(expired) plus the
    /// wheel's slot bookkeeping.
    ///
    /// # Panics
    ///
    /// Panics if `now` is earlier than a previous `advance_time` call
    /// (the timer clock is monotone).
    pub fn advance_time(&mut self, now: u64, timeout: MessageId) -> usize {
        let mut expired = std::mem::take(&mut self.expired_scratch);
        expired.clear();
        expired.extend_from_slice(self.timers.advance(now));
        let mut delivered = 0;
        for &session in &expired {
            let Some(shard) = self.shards.get_mut(session.shard as usize) else {
                continue;
            };
            if !shard.is_live_slot(session) {
                continue;
            }
            shard.deliver_slot(session, timeout);
            delivered += 1;
        }
        self.expired_scratch = expired;
        self.counters.add_timeouts_fired(delivered as u64);
        delivered
    }

    /// A lower bound on the earliest armed deadline, if any timer is
    /// armed — a wake-up hint for callers that sleep between
    /// [`Runtime::advance_time`] calls (see
    /// [`TimerWheel::next_deadline`]).
    pub fn next_timeout(&self) -> Option<u64> {
        self.timers.next_deadline()
    }

    /// Number of currently armed timeouts.
    pub fn pending_timeouts(&self) -> usize {
        self.timers.len()
    }

    /// A point-in-time [`MetricsSnapshot`] of every telemetry counter:
    /// per-shard session counters (deliveries, transitions, guard
    /// fall-throughs, spawns, releases, resets) merged with the
    /// runtime-level ones (timeouts, timer cascades, swaps, snapshots,
    /// restores). O(shards); never blocks delivery — the counters are
    /// relaxed atomics written by at most one thread each.
    ///
    /// Counters are always on: they cost one cache-local add per event
    /// and need no [`Runtime::attach_recorder`] call.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for shard in &self.shards {
            shard.counters.merge_into(&mut snap);
        }
        self.counters.merge_into(&mut snap);
        snap.timer_cascades = self.timers.cascades();
        snap
    }

    /// Attaches a flight recorder: every shard gets a fixed-capacity
    /// ring (rounded up to a power of two) retaining its last
    /// `capacity` transitions, and [`Runtime::deliver_all`] starts
    /// recording per-batch wall-clock latency into
    /// [`Runtime::batch_latency`]. Idempotent re-attach clears the
    /// rings. Allocation happens *here*, once — the per-transition
    /// record path never allocates.
    ///
    /// Observation never changes behaviour: delivered actions, states,
    /// snapshots and swap outcomes are bit-identical with or without a
    /// recorder attached (the unobserved path is a statically-dispatched
    /// no-op, not a branch per event).
    pub fn attach_recorder(&mut self, capacity: usize) {
        self.recorder_capacity = Some(capacity);
        for shard in &mut self.shards {
            shard.recorder = Some(FlightRecorder::new(capacity));
        }
        self.batch_latency = Some(Box::new(LogHistogram::new()));
    }

    /// Detaches the flight recorder (and the batch-latency histogram),
    /// returning the runtime to the provably-free unobserved path.
    /// Counters stay on; a pending [`Runtime::abort_dump`] is kept.
    pub fn detach_recorder(&mut self) {
        self.recorder_capacity = None;
        for shard in &mut self.shards {
            shard.recorder = None;
        }
        self.batch_latency = None;
    }

    /// `true` while a flight recorder is attached.
    pub fn recorder_attached(&self) -> bool {
        self.recorder_capacity.is_some()
    }

    /// Wall-clock nanoseconds per [`Runtime::deliver_all`] batch,
    /// recorded while a recorder is attached (`None` otherwise).
    pub fn batch_latency(&self) -> Option<&LogHistogram> {
        self.batch_latency.as_deref()
    }

    /// Renders every shard's flight-recorder ring as a human-readable
    /// trace, oldest event first — the post-mortem artifact printed on
    /// invariant failures and captured by [`Runtime::abort_swap`].
    /// State ids recorded under a since-swapped-out engine that no
    /// longer resolve are rendered as `state#N`.
    pub fn dump_trace(&self) -> String {
        let mut out = String::new();
        let messages = self.engine.messages();
        for (i, shard) in self.shards.iter().enumerate() {
            let Some(rec) = &shard.recorder else { continue };
            let _ = writeln!(
                out,
                "shard {i}: retaining {} of {} recorded transitions",
                rec.len(),
                rec.recorded(),
            );
            let label = |state: u32| -> String {
                if (state as usize) < shard.state_count() {
                    shard.state_label(state).to_string()
                } else {
                    format!("state#{state}")
                }
            };
            for event in rec.iter() {
                let message = messages
                    .get(event.message as usize)
                    .map(String::as_str)
                    .unwrap_or("?");
                let _ = writeln!(
                    out,
                    "  [{:>6}] s{}g{}: {} --{}--> {} ({} actions)",
                    event.tick,
                    event.slot,
                    event.generation,
                    label(event.from),
                    message,
                    label(event.to),
                    event.actions,
                );
            }
        }
        if out.is_empty() {
            out.push_str("flight recorder not attached\n");
        }
        out
    }

    /// The flight-recorder dump captured by the last
    /// [`Runtime::abort_swap`] while a recorder was attached (`None`
    /// otherwise): what every session was doing when the rollout was
    /// rolled back.
    pub fn abort_dump(&self) -> Option<&str> {
        self.abort_dump.as_deref()
    }
}

/// A borrowed [`ProtocolEngine`] view of one [`Runtime`] session (see
/// [`Runtime::session`]).
#[derive(Debug)]
pub struct Session<'r> {
    runtime: &'r mut Runtime,
    id: SessionId,
}

impl Session<'_> {
    /// The handle this view addresses.
    pub fn id(&self) -> SessionId {
        self.id
    }
}

impl ProtocolEngine for Session<'_> {
    fn deliver_ref(&mut self, message: &str) -> Result<&[Action], InterpError> {
        let id = self
            .runtime
            .message_id(message)
            .ok_or_else(|| InterpError::UnknownMessage(message.to_string()))?;
        Ok(self.runtime.deliver(self.id, id))
    }

    fn is_finished(&self) -> bool {
        self.runtime.is_finished(self.id)
    }

    fn state_name(&self) -> Cow<'_, str> {
        Cow::Borrowed(self.runtime.state_name(self.id))
    }

    fn reset(&mut self) {
        self.runtime.reset(self.id);
    }
}

#[cfg(test)]
mod tests {
    use stategen_core::{StateMachine, StateMachineBuilder, StateRole};

    use super::*;
    use crate::engine::{Engine, Tier};
    use crate::spec::Spec;

    fn finishing_machine() -> StateMachine {
        let mut b = StateMachineBuilder::new("m", ["a", "b"]);
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let fin = b.add_state_full("FINISHED", None, StateRole::Finish, vec![]);
        b.add_transition(s0, "a", s1, vec![Action::send("x")]);
        b.add_transition(s1, "a", fin, vec![]);
        b.build(s0)
    }

    fn compiled_runtime() -> Runtime {
        Engine::compile(Spec::machine(finishing_machine()))
            .unwrap()
            .runtime()
    }

    #[test]
    fn spawn_deliver_walks_to_finish() {
        let mut rt = compiled_runtime();
        let a = rt.message_id("a").unwrap();
        let s = rt.spawn();
        assert_eq!(rt.deliver(s, a), [Action::send("x")]);
        assert_eq!(rt.state_name(s), "s1");
        assert!(rt.deliver(s, a).is_empty());
        assert!(rt.is_finished(s));
        assert_eq!(rt.steps(), 2);
        // Finished sessions absorb.
        assert!(rt.deliver(s, a).is_empty());
        assert_eq!(rt.steps(), 2);
    }

    #[test]
    fn release_recycles_slot_with_fresh_generation() {
        let mut rt = compiled_runtime();
        let a = rt.message_id("a").unwrap();
        let first = rt.spawn();
        rt.deliver(first, a);
        rt.release(first);
        assert!(!rt.is_live(first));
        assert_eq!(rt.len(), 0);
        let second = rt.spawn();
        // Same slot, next generation: the handle is distinguishable.
        assert_eq!(second.slot(), first.slot());
        assert_eq!(second.generation(), first.generation() + 1);
        assert_eq!(format!("{first:?}"), "s0:0");
        assert_eq!(format!("{second:?}"), "s0:0#1");
        // The recycled slot starts a fresh execution.
        assert_eq!(rt.state_name(second), "s0");
    }

    #[test]
    fn try_deliver_accepts_live_and_rejects_stale_handles() {
        let mut rt = compiled_runtime();
        let a = rt.message_id("a").unwrap();
        let s = rt.spawn();
        // Live handle: identical behaviour to `deliver`.
        assert_eq!(rt.try_deliver(s, a).unwrap(), [Action::send("x")]);
        assert_eq!(rt.state_name(s), "s1");
        // Released handle: an error, not a panic.
        rt.release(s);
        assert_eq!(
            rt.try_deliver(s, a),
            Err(StategenError::StaleSession {
                shard: 0,
                slot: 0,
                generation: 0
            })
        );
        // Recycled slot: the stale generation still fails loudly while
        // the fresh handle keeps working.
        let fresh = rt.spawn();
        assert!(matches!(
            rt.try_deliver(s, a),
            Err(StategenError::StaleSession { generation: 0, .. })
        ));
        assert!(rt.try_deliver(fresh, a).is_ok());
        let err = rt.try_deliver(s, a).unwrap_err();
        assert!(err.to_string().contains("stale session handle s0:0#0"));
    }

    #[test]
    fn try_deliver_rejects_foreign_message_ids() {
        // A message id minted by a machine with a larger alphabet must
        // not index the wrong table cell: error, not misdelivery.
        let mut wide = StateMachineBuilder::new("wide", ["a", "b", "c", "d"]);
        let s0 = wide.add_state("s0");
        wide.add_transition(s0, "d", s0, vec![]);
        let wide_engine = Engine::compile(Spec::machine(wide.build(s0))).unwrap();
        let foreign_mid = wide_engine.message_id("d").unwrap();

        let mut rt = compiled_runtime(); // two-message alphabet
        let s = rt.spawn();
        assert_eq!(
            rt.try_deliver(s, foreign_mid),
            Err(StategenError::MessageOutOfRange {
                index: 3,
                messages: 2
            })
        );
        // The session is untouched and still deliverable.
        let a = rt.message_id("a").unwrap();
        assert_eq!(rt.try_deliver(s, a).unwrap(), [Action::send("x")]);
    }

    #[test]
    fn try_deliver_rejects_foreign_shard_handles() {
        // A handle minted by a 4-shard runtime does not address anything
        // in a single-shard one: error, not a panic or misdelivery.
        let engine = Engine::compile(Spec::machine(finishing_machine())).unwrap();
        let mut wide = engine.runtime().sharded(4);
        wide.spawn_many(4);
        let foreign = (0..4)
            .map(|_| wide.spawn())
            .find(|s| s.shard() == 3)
            .expect("a session on shard 3");
        let mut narrow = engine.runtime();
        let a = narrow.message_id("a").unwrap();
        assert!(matches!(
            narrow.try_deliver(foreign, a),
            Err(StategenError::StaleSession { shard: 3, .. })
        ));
    }

    #[test]
    #[should_panic(expected = "stale session handle s0:0")]
    fn stale_handle_panics_after_recycle() {
        let mut rt = compiled_runtime();
        let a = rt.message_id("a").unwrap();
        let first = rt.spawn();
        rt.release(first);
        let _second = rt.spawn(); // recycles the slot
        rt.deliver(first, a); // use-after-recycle must fail loudly
    }

    #[test]
    #[should_panic(expected = "stale session handle")]
    fn double_release_panics() {
        let mut rt = compiled_runtime();
        let s = rt.spawn();
        rt.release(s);
        rt.release(s);
    }

    #[test]
    fn deliver_all_skips_released_slots() {
        let mut rt = compiled_runtime();
        let a = rt.message_id("a").unwrap();
        let keep: Vec<SessionId> = (0..10).map(|_| rt.spawn()).collect();
        let drop = rt.spawn();
        rt.release(drop);
        assert_eq!(rt.len(), 10);
        assert_eq!(rt.deliver_all(a), 10);
        assert_eq!(rt.deliver_all(a), 10);
        assert!(rt.all_finished());
        for s in keep {
            assert!(rt.is_finished(s));
        }
    }

    #[test]
    fn sharded_matches_flat_runtime() {
        let machine = finishing_machine();
        let engine = Engine::compile(Spec::machine(machine)).unwrap();
        let mut flat = engine.runtime();
        flat.spawn_many(103);
        let mut sharded = engine.runtime().sharded(4);
        sharded.spawn_many(103);
        assert_eq!(sharded.shard_count(), 4);
        assert_eq!(sharded.len(), 103);
        let a = engine.message_id("a").unwrap();
        let b = engine.message_id("b").unwrap();
        for &mid in &[a, b, a, a, b] {
            assert_eq!(flat.deliver_all(mid), sharded.deliver_all(mid));
            assert_eq!(flat.finished_count(), sharded.finished_count());
            assert_eq!(flat.steps(), sharded.steps());
        }
        assert!(sharded.all_finished());
        sharded.reset_all();
        assert_eq!(sharded.finished_count(), 0);
        assert_eq!(sharded.steps(), 0);
    }

    #[test]
    fn workers_match_inline_delivery() {
        let engine = Engine::compile(Spec::machine(finishing_machine())).unwrap();
        let mut rt = engine.runtime().sharded(3);
        rt.spawn_many(70);
        let a = engine.message_id("a").unwrap();
        let total = rt.with_workers(3, |w| {
            assert_eq!(w.worker_count(), 3);
            let t = w.deliver_all(a) + w.deliver_all(a);
            assert_eq!(w.finished_count(), 70);
            t
        });
        assert_eq!(total, 140);
        assert!(rt.all_finished());
    }

    #[test]
    fn workers_reset_and_reuse() {
        let mut rt = compiled_runtime().sharded(3);
        rt.spawn_many(70);
        let a = rt.message_id("a").unwrap();
        let total = rt.with_workers(8, |w| {
            // Clamped to the shard count.
            assert_eq!(w.worker_count(), 3);
            let mut total = 0;
            for _ in 0..3 {
                total += w.deliver_all(a) + w.deliver_all(a);
                assert_eq!(w.finished_count(), 70);
                w.reset_all();
                assert_eq!(w.finished_count(), 0);
                assert_eq!(w.steps(), 0);
            }
            total
        });
        assert_eq!(total, 3 * 2 * 70);
        assert_eq!(rt.finished_count(), 0);
        rt.check_invariants();
    }

    #[test]
    fn with_workers_returns_closure_value() {
        let mut rt = compiled_runtime();
        rt.spawn();
        let a = rt.message_id("a").unwrap();
        // One shard: the inline path, no thread behind it.
        let echoed = rt.with_workers(4, |w| {
            assert_eq!(w.worker_count(), 1);
            w.deliver_all(a) + 41
        });
        assert_eq!(echoed, 42);
    }

    /// Flat and four-shard runtimes, 103 sessions each, paired by spawn order.
    fn flat_and_sharded() -> [(Runtime, Vec<SessionId>); 2] {
        [compiled_runtime(), compiled_runtime().sharded(4)].map(|mut rt| {
            let ids = (0..103).map(|_| rt.spawn()).collect();
            (rt, ids)
        })
    }

    #[test]
    fn workers_match_flat_runtime() {
        let [(mut flat, flat_ids), (mut sharded, sharded_ids)] = flat_and_sharded();
        let [a, b] = ["a", "b"].map(|m| flat.message_id(m).unwrap());
        sharded.with_workers(4, |w| {
            assert_eq!(w.worker_count(), 4);
            for &mid in &[a, b, a, a, b] {
                assert_eq!(w.deliver_all(mid), flat.deliver_all(mid));
                assert_eq!(w.finished_count(), flat.finished_count());
                assert_eq!(w.steps(), flat.steps());
            }
        });
        // Full per-session state is back once the workers have stopped.
        for (&f, &s) in flat_ids.iter().zip(&sharded_ids) {
            assert_eq!(flat.state(f), sharded.state(s), "session {f:?}");
        }
        sharded.check_invariants();
    }

    #[test]
    fn sharded_sessions_match_flat_per_session() {
        let [(mut flat, flat_ids), (mut sharded, sharded_ids)] = flat_and_sharded();
        let [a, b] = ["a", "b"].map(|m| flat.message_id(m).unwrap());
        // Per-session traffic on every seventh session exposes a mixed-up slot map.
        for (&f, &s) in flat_ids.iter().zip(&sharded_ids).step_by(7) {
            assert_eq!(flat.deliver(f, a), sharded.deliver(s, a));
        }
        for &mid in &[a, b, a, a, b] {
            assert_eq!(flat.deliver_all(mid), sharded.deliver_all(mid));
            for (&f, &s) in flat_ids.iter().zip(&sharded_ids) {
                assert_eq!(flat.state(f), sharded.state(s), "session {f:?}");
                assert_eq!(flat.is_finished(f), sharded.is_finished(s), "session {f:?}");
            }
            sharded.check_invariants();
        }
    }

    #[test]
    fn sharded_efsm_runtime_counts_to_finish() {
        use stategen_core::efsm::{CmpOp, EfsmBuilder, Guard, LinExpr, Update};
        let mut b = EfsmBuilder::new("counter", ["tick"]);
        let (limit, n) = (b.add_param("limit"), b.add_var("n"));
        let (counting, done) = (b.add_state("counting"), b.add_state("done"));
        for (op, to, out) in [
            (CmpOp::Lt, counting, vec![]),
            (CmpOp::Ge, done, vec![Action::send("done")]),
        ] {
            let reached = Guard::when(LinExpr::var(n).plus_const(1), op, LinExpr::param(limit));
            b.add_transition(counting, "tick", reached, vec![Update::Inc(n)], out, to);
        }
        let engine = Engine::compile(Spec::efsm(b.build(counting, Some(done)), vec![2])).unwrap();
        let mut rt = engine.runtime().sharded(2);
        let ids: Vec<SessionId> = (0..64).map(|_| rt.spawn()).collect();
        let tick = engine.message_id("tick").unwrap();
        assert_eq!(rt.deliver_all(tick), 64);
        assert_eq!(rt.finished_count(), 0);
        assert_eq!(rt.deliver_all(tick), 64);
        assert!(rt.all_finished());
        assert!(ids.iter().all(|&s| rt.vars(s) == [2]));
        rt.check_invariants();
    }

    #[test]
    fn one_worker_steps_shards_inline() {
        let mut rt = compiled_runtime().sharded(3);
        let ids: Vec<SessionId> = (0..10).map(|_| rt.spawn()).collect();
        let a = rt.message_id("a").unwrap();
        // One worker over three shards: no thread, every shard in turn.
        let stepped = rt.with_workers(1, |w| (w.worker_count(), w.deliver_all(a)));
        assert_eq!(stepped, (1, 10));
        assert!(ids.iter().all(|&s| rt.state_name(s) == "s1"));
        rt.check_invariants();
    }

    #[test]
    fn with_workers_propagates_closure_panic_without_hanging() {
        let mut rt = compiled_runtime().sharded(3);
        rt.spawn_many(20);
        let a = rt.message_id("a").unwrap();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.with_workers(3, |w| {
                w.deliver_all(a);
                panic!("closure failed mid-batch");
            })
        }));
        // The shutdown-on-drop releases the workers, so the
        // panic propagates instead of deadlocking the scope's join.
        let payload = unwound.unwrap_err();
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "closure failed mid-batch");
        // The runtime is usable again afterwards.
        assert_eq!(rt.deliver_all(a), 20);
        rt.check_invariants();
    }

    #[test]
    #[should_panic(expected = "shard worker panicked")]
    fn with_workers_fails_fast_when_a_shard_panics() {
        let engine = Engine::interpret(Spec::machine(finishing_machine())).unwrap();
        let mut rt = engine.runtime().sharded(2);
        rt.spawn_many(4);
        let a = rt.message_id("a").unwrap();
        // A state id outside the machine makes the interpreted batch
        // loop index out of bounds: the shard panics mid-batch.
        rt.shards[1].current[0] = 99;
        rt.with_workers(2, |w| {
            w.deliver_all(a); // the driver must fail fast, not hang
        });
    }

    #[test]
    #[should_panic(expected = "lockstep hint says every slot is in state 0")]
    fn check_invariants_catches_a_false_lockstep_hint() {
        let mut rt = compiled_runtime();
        rt.spawn_many(3);
        rt.check_invariants();
        rt.shards[0].current[2] = 1;
        rt.check_invariants();
    }

    #[test]
    #[should_panic(expected = "retired slot 1 is missing from the free list")]
    fn check_invariants_catches_a_lost_free_slot() {
        let mut rt = compiled_runtime();
        rt.spawn_many(3);
        let gone = SessionId {
            shard: 0,
            slot: 1,
            generation: 0,
        };
        rt.release(gone);
        rt.check_invariants();
        rt.shards[0].free.clear();
        rt.check_invariants();
    }

    #[test]
    #[should_panic(expected = "clean finished bit of slot 0 disagrees with its state")]
    fn check_invariants_catches_a_stale_clean_finished_bit() {
        let mut rt = compiled_runtime();
        let s = rt.spawn();
        let a = rt.message_id("a").unwrap();
        rt.deliver(s, a);
        rt.deliver(s, a);
        rt.check_invariants();
        rt.shards[0].finished.get_mut().clear(0);
        rt.check_invariants();
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn sharded_with_zero_shards_panics() {
        let _ = compiled_runtime().sharded(0);
    }

    #[test]
    #[should_panic(expected = "need at least one worker")]
    fn with_zero_workers_panics() {
        compiled_runtime().with_workers(0, |_| ());
    }

    #[test]
    #[should_panic(expected = "before spawning")]
    fn sharded_after_spawn_panics() {
        let mut rt = compiled_runtime();
        rt.spawn();
        let _ = rt.sharded(2);
    }

    #[test]
    fn session_view_speaks_protocol_engine() {
        let mut rt = compiled_runtime();
        let id = rt.spawn();
        let mut session = rt.session(id);
        assert_eq!(session.id(), id);
        assert_eq!(session.deliver_ref("a").unwrap(), [Action::send("x")]);
        assert_eq!(session.state_name(), "s1");
        assert!(session.deliver_ref("zap").is_err());
        session.reset();
        assert_eq!(session.state_name(), "s0");
        assert!(!session.is_finished());
    }

    #[test]
    fn try_surface_rejects_stale_handles_without_panicking() {
        let mut rt = compiled_runtime();
        let a = rt.message_id("a").unwrap();
        let s = rt.spawn();
        rt.deliver(s, a);
        assert_eq!(rt.try_state(s).unwrap(), rt.state(s));
        assert_eq!(rt.try_vars(s).unwrap(), rt.vars(s));
        rt.try_reset(s).unwrap();
        assert_eq!(rt.state_name(s), "s0");
        rt.try_release(s).unwrap();
        // Every fallible call reports the same stale handle; double
        // release is an error, not a panic.
        let expect_stale = StategenError::StaleSession {
            shard: 0,
            slot: 0,
            generation: 0,
        };
        assert_eq!(rt.try_release(s), Err(expect_stale.clone()));
        assert_eq!(rt.try_reset(s), Err(expect_stale.clone()));
        assert_eq!(rt.try_state(s), Err(expect_stale.clone()));
        assert_eq!(rt.try_vars(s), Err(expect_stale));
    }

    #[test]
    fn snapshot_restore_round_trips_and_preserves_handles() {
        let mut rt = compiled_runtime();
        let a = rt.message_id("a").unwrap();
        let s1 = rt.spawn();
        let s2 = rt.spawn();
        let gone = rt.spawn();
        rt.deliver(s1, a);
        rt.release(gone); // free list + bumped generation must survive
        let snap = rt.snapshot_all();
        assert_eq!(snap.fingerprint(), rt.engine().fingerprint());
        assert_eq!(snap.live_sessions(), 2);

        let mut restored = Runtime::restore(rt.engine(), &snap).unwrap();
        // Bit-identical: a re-snapshot equals the original.
        assert_eq!(restored.snapshot_all(), snap);
        // Old handles keep addressing their sessions...
        assert_eq!(restored.state_name(s1), "s1");
        assert_eq!(restored.state_name(s2), "s0");
        assert_eq!(restored.steps(), rt.steps());
        // ...stale ones stay stale...
        assert!(!restored.is_live(gone));
        // ...and the free list recycles with the bumped generation.
        let fresh = restored.spawn();
        assert_eq!(fresh.slot(), gone.slot());
        assert_eq!(fresh.generation(), gone.generation() + 1);
        // The restored pool keeps executing.
        restored.deliver(s1, a);
        assert!(restored.is_finished(s1));
    }

    #[test]
    fn restore_rejects_fingerprint_mismatch() {
        let rt = compiled_runtime();
        let snap = rt.snapshot_all();
        let mut other = StateMachineBuilder::new("other", ["a"]);
        let s0 = other.add_state("s0");
        other.add_transition(s0, "a", s0, vec![]);
        let other = Engine::compile(Spec::machine(other.build(s0))).unwrap();
        assert!(matches!(
            Runtime::restore(&other, &snap),
            Err(StategenError::SnapshotMismatch { .. })
        ));
        // Same behaviour on a different tier restores fine.
        let interp = Engine::interpret(Spec::machine(finishing_machine())).unwrap();
        assert_eq!(interp.fingerprint(), rt.engine().fingerprint());
        let restored = Runtime::restore(&interp, &snap).unwrap();
        assert_eq!(restored.snapshot_all(), snap);
    }

    #[test]
    fn session_snapshot_captures_state_and_generation() {
        let mut rt = compiled_runtime();
        let a = rt.message_id("a").unwrap();
        let s = rt.spawn();
        rt.deliver(s, a);
        let snap = rt.snapshot(s);
        assert_eq!(snap.state, rt.state(s));
        assert_eq!(snap.generation, s.generation());
        assert!(snap.vars.is_empty()); // non-EFSM tier
    }

    #[test]
    fn timeouts_fire_through_the_delivery_path() {
        let mut rt = compiled_runtime();
        let a = rt.message_id("a").unwrap();
        let slow = rt.spawn();
        let done = rt.spawn();
        let released = rt.spawn();
        rt.arm_timeout(slow, 100);
        rt.arm_timeout(done, 100);
        rt.arm_timeout(released, 100);
        assert_eq!(rt.pending_timeouts(), 3);
        // One finishes early, one is released: neither may time out.
        rt.deliver(done, a);
        rt.cancel_timeout(done);
        rt.release(released); // cancels eagerly
        assert_eq!(rt.pending_timeouts(), 1);
        // The wake hint is a coarse lower bound, never later than the
        // real deadline.
        assert!(rt.next_timeout().is_some_and(|hint| hint <= 100));
        assert_eq!(rt.advance_time(99, a), 0);
        assert_eq!(rt.state_name(slow), "s0");
        // The timeout is an ordinary message: here it drives "a".
        assert_eq!(rt.advance_time(100, a), 1);
        assert_eq!(rt.state_name(slow), "s1");
        assert_eq!(rt.pending_timeouts(), 0);
        // Re-arming moves the deadline; a session released after arming
        // is skipped even without an explicit cancel.
        rt.arm_timeout(slow, 150);
        rt.arm_timeout(slow, 200);
        let stale_target = rt.spawn();
        rt.arm_timeout(stale_target, 200);
        rt.shards[stale_target.shard as usize].release_slot(stale_target);
        assert_eq!(rt.advance_time(200, a), 1);
        assert!(rt.is_finished(slow));
    }

    #[test]
    fn interpreted_tier_matches_compiled() {
        let machine = finishing_machine();
        let compiled = Engine::compile(Spec::machine(machine.clone())).unwrap();
        let interp = Engine::interpret(Spec::machine(machine)).unwrap();
        assert_eq!(compiled.tier(), Tier::Compiled);
        assert_eq!(interp.tier(), Tier::Interpreted);
        let mut rc = compiled.runtime_with(5);
        let mut ri = interp.runtime_with(5);
        for name in ["b", "a", "b", "a", "a"] {
            let mid_c = rc.message_id(name).unwrap();
            let mid_i = ri.message_id(name).unwrap();
            assert_eq!(rc.deliver_all(mid_c), ri.deliver_all(mid_i));
            assert_eq!(rc.finished_count(), ri.finished_count());
        }
        let (sc, si) = (rc.spawn(), ri.spawn());
        assert_eq!(rc.state_name(sc), ri.state_name(si));
    }

    /// The production observed path (unobserved pass + tail replay, see
    /// [`Shard::replay_batch_tail`]) must leave the ring bit-identical —
    /// events, order, and sequence accounting — to recording every
    /// transition inline from the batch loop, across all three engine
    /// tiers, dense and holed slot arrays, guard fall-throughs, and
    /// batches larger than the ring. This is also what keeps the
    /// observed [`Shard::deliver_batch`] instantiations exercised.
    #[test]
    fn replayed_ring_matches_per_transition_recording() {
        use stategen_commit::{commit_efsm, commit_efsm_params, CommitConfig, MESSAGE_NAMES};

        let config = CommitConfig::new(3).unwrap();
        let tiers: [(Engine, &[&str]); 3] = [
            (
                Engine::compile(Spec::machine(finishing_machine())).unwrap(),
                &["a", "b", "a", "a"],
            ),
            (
                Engine::interpret(Spec::machine(finishing_machine())).unwrap(),
                &["a", "b", "a", "a"],
            ),
            (
                Engine::compile(Spec::efsm(commit_efsm(), commit_efsm_params(&config))).unwrap(),
                &MESSAGE_NAMES,
            ),
        ];
        for (engine, script) in tiers {
            let mut replayed = engine.runtime();
            let mut inline = engine.runtime();
            let handles: Vec<_> = (0..8).map(|_| replayed.spawn()).collect();
            for _ in 0..8 {
                inline.spawn();
            }
            // Ring smaller than the live set: the first batch overruns
            // it, exercising the overwritten-prefix accounting.
            replayed.attach_recorder(4);
            let mut rec = FlightRecorder::new(4);
            for (i, name) in script.iter().enumerate() {
                if i == 2 {
                    // Punch holes mid-script so later batches walk a
                    // retired-slot (sparse) loop.
                    for &h in &[handles[2], handles[5]] {
                        replayed.release(h);
                        inline.release(h);
                    }
                }
                let mid = replayed.message_id(name).unwrap();
                replayed.deliver_all(mid);
                inline.shards[0].deliver_batch(mid, &mut rec);

                let shards = &mut replayed.shards;
                let ring = shards[0].recorder.as_ref().unwrap();
                assert_eq!(
                    ring.recorded(),
                    rec.recorded(),
                    "sequence accounting diverged"
                );
                let got: Vec<TransitionEvent> = ring.iter().collect();
                let expect: Vec<TransitionEvent> = rec.iter().collect();
                assert_eq!(
                    got, expect,
                    "ring contents diverged after batch {i} ({name})"
                );
            }
        }
    }
}
