//! The commit-protocol traffic the serve workloads replay, recorded from
//! the real caller: a short fault-free `storage_commit` run (same 24
//! closed-loop clients, r = 4) in which every peer is shadowed by a
//! benchmark-owned copy of its delivery logic.
//!
//! A peer's runtime delivers more than the network shows: a vote, commit
//! or update to one attempt fires `free` / `not_free` signals into every
//! unfinished sibling attempt on the same node, and those dominate what
//! a session sees. So the shadow re-runs each handler call the peer
//! receives — deduplication, spawn-with-`not_free`, sibling signalling,
//! client aborts and the GC timers — on one interpreted EFSM instance
//! per attempt (`commit_efsm_instance`), and logs every message it
//! delivers per attempt. After every handler call the shadow's
//! deliveries, transitions, spawns and releases must equal the change
//! in the real peer's own telemetry counters, and at the end its history
//! must match the peer's; any difference fails the workload. A session's
//! trace ends where the recording ends it: released (aborted or
//! garbage-collected), or at its last delivery in the run.
//!
//! The recording run's simnet seed is fixed (`RECORDING_SEED`), so every
//! `--seed` replays the same traffic corpus and does the same set-up
//! work; `--seed` picks which trace each session replays, the arrival
//! order, and each broadcast tick's message.

use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::sync::OnceLock;

use asa_simnet::{Context, NodeId, SimNode};
use asa_storage::{AttemptId, MetricsSnapshot, Pid, VhMsg, VhNode};
use stategen_commit::{
    commit_efsm, commit_efsm_instance, commit_efsm_params, commit_efsm_state_flags, CommitConfig,
    CommitMessage,
};
use stategen_core::efsm::{Efsm, EfsmInstance};
use stategen_core::ProtocolEngine;

use crate::storage::{self, AsNode};
use crate::Outcome;

/// Updates per client in the recording run: about 1,300 attempt traces.
const UPDATES_PER_CLIENT: usize = 12;
/// Seed of the recording run.
const RECORDING_SEED: u64 = 508;
/// Peer timer tag of the periodic checkpoint (no deliveries).
const TAG_PEER_CHECKPOINT: u64 = u64::MAX;

fn efsm() -> &'static Efsm {
    static EFSM: OnceLock<Efsm> = OnceLock::new();
    EFSM.get_or_init(commit_efsm)
}

fn config() -> CommitConfig {
    CommitConfig::new(4).expect("r = 4 is valid")
}

fn params() -> &'static [i64] {
    static PARAMS: OnceLock<Vec<i64>> = OnceLock::new();
    PARAMS.get_or_init(|| commit_efsm_params(&config()))
}

/// What the recording produced.
pub struct Traffic {
    /// Per attempt session, the messages its peer delivered, in order.
    pub traces: Vec<Vec<CommitMessage>>,
    pub mix: Mix,
}

/// Deliveries per message over all recorded traces, in
/// `CommitMessage::ALL` order.
#[derive(Debug, Clone, Copy)]
pub struct Mix([u64; 5]);

impl Mix {
    /// Draws a message with the recorded frequencies.
    pub fn pick(&self, rng: &mut crate::stats::Rng) -> CommitMessage {
        let total: u64 = self.0.iter().sum();
        let mut x = rng.below(total as usize) as u64;
        for (m, &n) in CommitMessage::ALL.iter().zip(&self.0) {
            if x < n {
                return *m;
            }
            x -= n;
        }
        unreachable!("counts cover the draw")
    }
}

impl Traffic {
    /// One line for the run log: message shares and trace lengths.
    pub fn describe(&self) -> String {
        let total: u64 = self.mix.0.iter().sum();
        let shares: Vec<String> = CommitMessage::ALL
            .iter()
            .zip(&self.mix.0)
            .map(|(m, &n)| format!("{} {:.3}", m.as_str(), n as f64 / total as f64))
            .collect();
        let mut lens: Vec<f64> = self.traces.iter().map(|t| t.len() as f64).collect();
        format!(
            "recorded storage traffic: {} traces, length p50 {} p90 {} max {}; shares {}",
            self.traces.len(),
            crate::stats::quantile(&mut lens, 0.5),
            crate::stats::quantile(&mut lens, 0.9),
            crate::stats::quantile(&mut lens, 1.0),
            shares.join(", ")
        )
    }
}

/// Records the traffic; shadow mismatches fail `out`.
pub fn record(out: &mut Outcome) -> Traffic {
    let mut traces = Vec::new();
    let mut engine = None;
    // The recording's own checks (every update committed, histories
    // complete) land in a scratch outcome; any failure fails `out`.
    let mut own = Outcome::default();
    storage::unit::<Recorder<'_>>(
        RECORDING_SEED,
        u64::MAX,
        UPDATES_PER_CLIENT,
        &mut engine,
        &mut own,
        |node| {
            let (VhNode::Peer(peer), Some(shadow)) = (&node.node, &node.shadow) else {
                return;
            };
            let mismatch = shadow.history.len() != peer.history().len();
            if let Some(e) = shadow.error.clone().or(mismatch.then(|| {
                format!(
                    "shadow history of {} versions, peer {}",
                    shadow.history.len(),
                    peer.history().len()
                )
            })) {
                out.check(false, || format!("traffic recording: {e}"));
            }
            traces.extend(shadow.done.iter().cloned());
            traces.extend(shadow.slots.values().map(|a| a.trace.clone()));
        },
    );
    for f in own.failures {
        out.check(false, || format!("traffic recording: {f}"));
    }
    let mut counts = [0u64; 5];
    for m in traces.iter().flatten() {
        counts[CommitMessage::ALL
            .iter()
            .position(|c| c == m)
            .expect("in ALL")] += 1;
    }
    Traffic {
        traces,
        mix: Mix(counts),
    }
}

/// Deliveries, transitions, spawns and releases, as telemetry counts them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts([u64; 4]);

impl Counts {
    fn of(m: &MetricsSnapshot) -> Self {
        Counts([m.deliveries, m.transitions, m.spawns, m.releases()])
    }

    fn minus(self, earlier: Counts) -> Counts {
        Counts(std::array::from_fn(|i| self.0[i] - earlier.0[i]))
    }
}

struct Attempt {
    instance: EfsmInstance<'static>,
    trace: Vec<CommitMessage>,
    recorded: bool,
}

/// The benchmark's copy of a correct `CommitPeer`'s delivery logic.
#[derive(Default)]
struct Shadow {
    slots: BTreeMap<AttemptId, Attempt>,
    seen: BTreeSet<(AttemptId, NodeId, u8)>,
    history: HashSet<Pid>,
    gc_tags: BTreeMap<u64, AttemptId>,
    next_gc_tag: u64,
    /// Traces of released sessions.
    done: Vec<Vec<CommitMessage>>,
    counts: Counts,
    error: Option<String>,
}

impl Shadow {
    fn flags(attempt: &Attempt) -> (bool, bool) {
        commit_efsm_state_flags(attempt.instance.state_name_str())
    }

    fn deliver(&mut self, a: AttemptId, m: CommitMessage) -> Vec<CommitMessage> {
        let attempt = self
            .slots
            .get_mut(&a)
            .expect("delivery to a tracked attempt");
        let efsm = efsm();
        let mid = efsm.message_id(m.as_str()).expect("commit alphabet") as usize;
        let taken = !attempt.instance.is_finished()
            && attempt.instance.current().transitions().iter().any(|t| {
                t.message_index() == mid && t.guard().eval(attempt.instance.vars(), params())
            });
        self.counts.0[0] += 1;
        self.counts.0[1] += u64::from(taken);
        attempt.trace.push(m);
        attempt
            .instance
            .deliver_ref(m.as_str())
            .expect("commit alphabet")
            .iter()
            .map(|action| {
                *CommitMessage::ALL
                    .iter()
                    .find(|c| c.as_str() == action.message())
                    .expect("commit actions are commit messages")
            })
            .collect()
    }

    fn unfinished_siblings(&self, a: AttemptId) -> Vec<AttemptId> {
        self.slots
            .iter()
            .filter(|(s, att)| **s != a && !att.instance.is_finished())
            .map(|(s, _)| *s)
            .collect()
    }

    fn feed(&mut self, attempt: AttemptId, message: CommitMessage) {
        let mut queue = VecDeque::from([(attempt, message)]);
        while let Some((a, m)) = queue.pop_front() {
            if m == CommitMessage::Update && self.history.contains(&a.pid) {
                continue;
            }
            if !self.slots.contains_key(&a) {
                let chosen = self
                    .slots
                    .values()
                    .any(|s| !s.instance.is_finished() && Self::flags(s).0);
                self.slots.insert(
                    a,
                    Attempt {
                        instance: commit_efsm_instance(efsm(), &config()),
                        trace: Vec::new(),
                        recorded: false,
                    },
                );
                self.counts.0[2] += 1;
                if chosen {
                    self.deliver(a, CommitMessage::NotFree);
                }
                self.gc_tags.insert(self.next_gc_tag, a);
                self.next_gc_tag += 1;
            }
            let actions = self.deliver(a, m);
            for kind in actions {
                if matches!(kind, CommitMessage::Free | CommitMessage::NotFree) {
                    for sibling in self.unfinished_siblings(a) {
                        queue.push_back((sibling, kind));
                    }
                }
            }
            let attempt = self.slots.get_mut(&a).expect("fed attempt is tracked");
            if attempt.instance.is_finished() && !attempt.recorded {
                attempt.recorded = true;
                self.history.insert(a.pid);
            }
        }
    }

    fn drop_instance(&mut self, a: AttemptId) {
        let Some(attempt) = self.slots.get(&a) else {
            return;
        };
        if attempt.instance.is_finished() {
            return;
        }
        let had_chosen = Self::flags(attempt).0;
        let attempt = self.slots.remove(&a).expect("present");
        self.done.push(attempt.trace);
        self.counts.0[3] += 1;
        if had_chosen {
            for sibling in self.unfinished_siblings(a) {
                self.feed(sibling, CommitMessage::Free);
            }
        }
    }

    fn on_message(&mut self, from: NodeId, message: &VhMsg) {
        match *message {
            VhMsg::ClientUpdate(a) => {
                if !self.history.contains(&a.pid) && self.seen.insert((a, from, 0)) {
                    self.feed(a, CommitMessage::Update);
                }
            }
            VhMsg::Vote(a) => {
                if self.seen.insert((a, from, 1)) {
                    self.feed(a, CommitMessage::Vote);
                }
            }
            VhMsg::Commit(a) => {
                if self.seen.insert((a, from, 2)) {
                    self.feed(a, CommitMessage::Commit);
                }
            }
            VhMsg::Abort(a) => {
                let abandon = self
                    .slots
                    .get(&a)
                    .is_some_and(|s| !s.instance.is_finished() && !Self::flags(s).1);
                if abandon {
                    self.drop_instance(a);
                }
            }
            VhMsg::Committed(_) => {}
        }
    }

    fn on_timer(&mut self, tag: u64) {
        if tag == TAG_PEER_CHECKPOINT {
            return;
        }
        if let Some(a) = self.gc_tags.remove(&tag) {
            self.drop_instance(a);
        }
    }
}

/// A node; peers carry a shadow checked against them after every call.
pub struct Recorder<'m> {
    node: VhNode<'m>,
    shadow: Option<Shadow>,
}

impl Recorder<'_> {
    /// Runs one handler call on the node and, for a peer, on its shadow,
    /// then compares the two.
    fn shadowed(
        &mut self,
        ctx: &mut Context<'_, VhMsg>,
        step: impl FnOnce(&mut VhNode<'_>, &mut Context<'_, VhMsg>, Option<&mut Shadow>),
    ) {
        let Some(mut shadow) = self.shadow.take() else {
            step(&mut self.node, ctx, None);
            return;
        };
        let real_before = Counts::of(&self.peer_metrics());
        let mine_before = shadow.counts;
        step(&mut self.node, ctx, Some(&mut shadow));
        let real = Counts::of(&self.peer_metrics()).minus(real_before);
        let mine = shadow.counts.minus(mine_before);
        if real != mine && shadow.error.is_none() {
            shadow.error = Some(format!(
                "at t = {} the peer counted {real:?} (deliveries, transitions, spawns, \
                 releases), the shadow {mine:?}",
                ctx.now()
            ));
        }
        self.shadow = Some(shadow);
    }

    fn peer_metrics(&self) -> MetricsSnapshot {
        match &self.node {
            VhNode::Peer(peer) => peer.metrics(),
            VhNode::Client(_) => unreachable!("only peers are shadowed"),
        }
    }
}

impl SimNode<VhMsg> for Recorder<'_> {
    fn on_start(&mut self, ctx: &mut Context<'_, VhMsg>) {
        self.shadowed(ctx, |n, ctx, _| n.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, VhMsg>, from: NodeId, message: VhMsg) {
        self.shadowed(ctx, |n, ctx, s| {
            if let Some(s) = s {
                s.on_message(from, &message);
            }
            n.on_message(ctx, from, message);
        });
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, VhMsg>, tag: u64) {
        self.shadowed(ctx, |n, ctx, s| {
            if let Some(s) = s {
                s.on_timer(tag);
            }
            n.on_timer(ctx, tag);
        });
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, VhMsg>) {
        self.shadowed(ctx, |n, ctx, s| {
            if let Some(s) = s {
                s.error
                    .get_or_insert_with(|| "a peer restarted in a fault-free run".into());
            }
            n.on_restart(ctx);
        });
    }
}

impl<'m> AsNode<'m> for Recorder<'m> {
    fn wrap(node: VhNode<'m>) -> Self {
        let shadow = matches!(node, VhNode::Peer(_)).then(Shadow::default);
        Recorder { node, shadow }
    }
    fn node(&self) -> &VhNode<'m> {
        &self.node
    }
}
