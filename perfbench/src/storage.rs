//! `storage_commit`: the ASA storage stack end to end — 24 closed-loop
//! client endpoints (each submits its next update only after the
//! previous one is confirmed) committing 2,400 updates through the BFT
//! commit protocol at r = 4 over the seeded, fault-free simulated
//! network. The only real caller end to end: simnet, version service,
//! runtime and SHA-1. Each peer's history grows into the thousands, which
//! exposes per-commit costs that grow with history.
//!
//! The harness is rebuilt here from the public `Simulation` / `VhNode` /
//! `CommitPeer` / `ClientEndpoint` parts, so a traced run can wrap every
//! node in a timing `SimNode`. One unit is one complete storage run
//! (set-up excluded); one item is one committed update. References: every
//! submitted update is confirmed, every correct peer's history holds
//! exactly the submitted set, and no history is shorter than
//! `HISTORY_FLOOR`.

use std::collections::BTreeSet;
use std::time::Instant;

use asa_simnet::{Context, NodeId, SimConfig, SimNode, SimStats, Simulation};
use asa_storage::{
    ClientEndpoint, CommitPeer, HarnessConfig, MetricsSnapshot, PeerBehaviour, PeerEngine, Pid,
    VhMsg, VhNode,
};
use stategen_commit::CommitConfig;

use crate::stats::{ns_since, quantile, span_cost, Histogram, Rng};
use crate::{Outcome, SETUP_BURST};

const REPLICATION: u32 = 4;
const CLIENTS: usize = 24;
const UPDATES_PER_CLIENT: usize = 100;
/// Stated length every correct peer's final history must reach.
const HISTORY_FLOOR: usize = CLIENTS * UPDATES_PER_CLIENT;
const DEADLINE: u64 = 50_000_000;
/// Simulation events per timed stretch of a run: about 7 ms of work,
/// some 50 stretches a run.
const STRETCH_STEPS: u64 = 2_048;

/// A node plus the time spent in its handlers.
struct Timed<'m> {
    node: VhNode<'m>,
    ns: u64,
    calls: u64,
}

impl Timed<'_> {
    fn time<R>(&mut self, f: impl FnOnce(&mut VhNode<'_>) -> R) -> R {
        let t = Instant::now();
        let r = f(&mut self.node);
        self.ns += ns_since(t);
        self.calls += 1;
        r
    }
}

impl SimNode<VhMsg> for Timed<'_> {
    fn on_start(&mut self, ctx: &mut Context<'_, VhMsg>) {
        self.time(|n| n.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, VhMsg>, from: NodeId, message: VhMsg) {
        self.time(|n| n.on_message(ctx, from, message));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, VhMsg>, tag: u64) {
        self.time(|n| n.on_timer(ctx, tag));
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, VhMsg>) {
        self.time(|n| n.on_restart(ctx));
    }
}

pub trait AsNode<'m>: SimNode<VhMsg> {
    fn wrap(node: VhNode<'m>) -> Self;
    fn node(&self) -> &VhNode<'m>;
    fn spent(&self) -> (u64, u64) {
        (0, 0)
    }
}

impl<'m> AsNode<'m> for VhNode<'m> {
    fn wrap(node: VhNode<'m>) -> Self {
        node
    }
    fn node(&self) -> &VhNode<'m> {
        self
    }
}

impl<'m> AsNode<'m> for Timed<'m> {
    fn wrap(node: VhNode<'m>) -> Self {
        Timed {
            node,
            ns: 0,
            calls: 0,
        }
    }
    fn node(&self) -> &VhNode<'m> {
        &self.node
    }
    fn spent(&self) -> (u64, u64) {
        (self.ns, self.calls)
    }
}

/// One storage run's measurements.
#[derive(Default)]
pub struct Unit {
    setup_ns: u64,
    boot_ns: u64,
    pid_ns: u64,
    wall_ns: u64,
    /// Wall time of each stretch of `STRETCH_STEPS` events, in order.
    stretches_ns: Vec<u64>,
    peer: (u64, u64),
    client: (u64, u64),
    stats: SimStats,
    commits: u64,
    retries: u64,
    attempts: u64,
    history_len: f64,
    latencies: Vec<f64>,
    metrics: MetricsSnapshot,
}

/// A storage run's set-up: the peer engine booted from artifact bytes,
/// the clients' Pids hashed, the nodes and the simulated network built.
struct Setup<N> {
    sim: Simulation<VhMsg, N>,
    updates: Vec<Vec<Pid>>,
    boot_ns: u64,
    pid_ns: u64,
}

fn setup<'m, N: AsNode<'m>>(
    seed: u64,
    index: u64,
    updates_per_client: usize,
    engine_slot: &'m mut Option<PeerEngine>,
) -> Setup<N> {
    let defaults = HarnessConfig::default();
    let config = CommitConfig::new(REPLICATION).expect("r = 4 is valid");
    let tb = Instant::now();
    let engine: &'m PeerEngine = engine_slot.insert(PeerEngine::new(&config));
    let boot_ns = ns_since(tb);
    let tp = Instant::now();
    let updates: Vec<Vec<Pid>> = (0..CLIENTS)
        .map(|c| {
            (0..updates_per_client)
                .map(|k| Pid::of(format!("{seed:x}/{index}/client{c}/update{k}").as_bytes()))
                .collect()
        })
        .collect();
    let pid_ns = ns_since(tp);
    let r = REPLICATION as usize;
    let mut nodes: Vec<N> = Vec::with_capacity(r + CLIENTS);
    for _ in 0..r {
        nodes.push(N::wrap(VhNode::Peer(Box::new(CommitPeer::new(
            engine,
            r,
            PeerBehaviour::Correct,
            defaults.peer_gc,
            defaults.checkpoint_every,
        )))));
    }
    for (c, pids) in updates.iter().enumerate() {
        nodes.push(N::wrap(VhNode::Client(Box::new(ClientEndpoint::new(
            c as u32,
            r,
            config.max_faulty(),
            pids.clone(),
            defaults.retry,
            defaults.ordering,
            defaults.timeout,
            defaults.contact_stagger,
            defaults.max_attempts,
        )))));
    }
    let net = SimConfig {
        seed: Rng::new(seed ^ index.wrapping_mul(0x9E37_79B9)).next_u64(),
        min_delay: 1,
        max_delay: 10,
        ..SimConfig::default()
    };
    Setup {
        sim: Simulation::new(net, nodes),
        updates,
        boot_ns,
        pid_ns,
    }
}

/// Sets up and runs one storage run of `updates_per_client` updates per
/// client; checks its outputs into `out` and shows every node to `visit`.
pub fn unit<'m, N: AsNode<'m>>(
    seed: u64,
    index: u64,
    updates_per_client: usize,
    engine_slot: &'m mut Option<PeerEngine>,
    out: &mut Outcome,
    mut visit: impl FnMut(&N),
) -> Unit {
    let mut u = Unit::default();
    // The set-up time is the fastest of a burst of `SETUP_BURST`; all but
    // the last set-up are dropped unused.
    let mut best = u64::MAX;
    for _ in 1..SETUP_BURST {
        let t = Instant::now();
        drop(setup::<VhNode<'_>>(
            seed,
            index,
            updates_per_client,
            &mut None,
        ));
        best = best.min(ns_since(t));
    }
    let t = Instant::now();
    let Setup {
        mut sim,
        updates,
        boot_ns,
        pid_ns,
    } = setup::<N>(seed, index, updates_per_client, engine_slot);
    u.setup_ns = best.min(ns_since(t));
    u.boot_ns = boot_ns;
    u.pid_ns = pid_ns;
    let r = REPLICATION as usize;

    // Stepped by hand to time each stretch of `STRETCH_STEPS` events as
    // well as the whole run; ends where `run_until(DEADLINE)` would, on a
    // drained queue.
    let mut more = true;
    while more {
        let t = Instant::now();
        for _ in 0..STRETCH_STEPS {
            more = sim.step();
            if !more {
                break;
            }
        }
        let stretch_ns = ns_since(t);
        u.wall_ns += stretch_ns;
        u.stretches_ns.push(stretch_ns);
    }
    out.check(sim.now() <= DEADLINE, || {
        format!("the run passed its deadline of {DEADLINE} ticks")
    });
    u.stats = sim.stats();

    let submitted: BTreeSet<&Pid> = updates.iter().flatten().collect();
    out.attempted += submitted.len() as u64;
    let mut histories = 0usize;
    let floor = CLIENTS * updates_per_client;
    for node in sim.nodes() {
        visit(node);
        let (ns, calls) = node.spent();
        match node.node() {
            VhNode::Peer(p) => {
                u.peer.0 += ns;
                u.peer.1 += calls;
                u.metrics.merge(&p.metrics());
                let history: BTreeSet<&Pid> = p.history().iter().collect();
                u.history_len += p.history().len() as f64 / r as f64;
                histories += 1;
                if history != submitted || p.history().len() < floor {
                    out.check(false, || {
                        format!(
                            "peer history of {} versions ({} distinct) differs from the {} \
                             submitted (floor {floor})",
                            p.history().len(),
                            history.len(),
                            submitted.len()
                        )
                    });
                }
            }
            VhNode::Client(c) => {
                u.client.0 += ns;
                u.client.1 += calls;
                if !c.is_done() {
                    out.check(false, || "a client did not finish its updates".into());
                }
                for o in c.outcomes() {
                    u.attempts += u64::from(o.attempts);
                    u.retries += u64::from(o.attempts.saturating_sub(1));
                    if o.committed {
                        u.commits += 1;
                        u.latencies.push(o.latency as f64);
                    }
                }
            }
        }
    }
    out.check(histories == r, || {
        format!("{histories} peers, expected {r}")
    });
    // Every update submitted and not confirmed is one failed operation.
    let missing = submitted.len() as u64 - u.commits.min(submitted.len() as u64);
    for _ in 0..missing {
        out.fail(|| format!("{missing} of {} updates not committed", submitted.len()));
    }
    u
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    let untraced_until = if trace { seconds / 2.0 } else { seconds };
    let mut index = 0u64;
    // Stretch times by position in their run, in milliseconds.
    let mut stretches: Vec<Vec<f64>> = Vec::new();
    while start.elapsed().as_secs_f64() < untraced_until || out.units.count() < 3 {
        let mut engine = None;
        let u = unit::<VhNode<'_>>(
            seed,
            index,
            UPDATES_PER_CLIENT,
            &mut engine,
            &mut out,
            |_| {},
        );
        index += 1;
        out.setups_s.push(u.setup_ns as f64 / 1e9);
        out.units.record(u.wall_ns as f64 / 1e6);
        out.items += u.commits as f64;
        for (i, &ns) in u.stretches_ns.iter().enumerate() {
            if i == stretches.len() {
                stretches.push(Vec::new());
            }
            stretches[i].push(ns as f64 / 1e6);
        }
    }
    // A 0.35 s run averages over the host's phases of speed, so the
    // 10th-percentile run is composed from the 10th percentile of each
    // stretch position, weighted by the share of runs that reach it.
    let runs = out.units.count() as f64;
    out.unit_ms_p10 = Some(
        stretches
            .iter_mut()
            .map(|s| quantile(s, 0.1) * s.len() as f64 / runs)
            .sum(),
    );
    if !trace {
        return out;
    }

    let (span_inner, span_outer) = span_cost(200_000);

    let mut units = Vec::new();
    while start.elapsed().as_secs_f64() < seconds || units.len() < 3 {
        let mut engine = None;
        units.push(unit::<Timed<'_>>(
            seed,
            index,
            UPDATES_PER_CLIENT,
            &mut engine,
            &mut out,
            |_| {},
        ));
        index += 1;
    }
    let n = units.len() as f64;
    let sum = |f: &dyn Fn(&Unit) -> f64| units.iter().map(f).sum::<f64>();
    let wall = sum(&|u| u.wall_ns as f64) / n / 1e6;
    // Handler self time: each span less the clock read inside it. The
    // benchmark's share: each span's whole clock cost.
    let own = |spent: &dyn Fn(&Unit) -> (u64, u64)| {
        (sum(&|u| spent(u).0 as f64) - sum(&|u| spent(u).1 as f64) * span_inner) / n / 1e6
    };
    let peer = own(&|u| u.peer);
    let client = own(&|u| u.client);
    let calls = sum(&|u| (u.peer.1 + u.client.1) as f64) / n;
    let bench = calls * span_outer / 1e6;
    out.set("trace.wall_ms", wall);
    out.set("storage.peer_ms", peer);
    out.set("storage.client_ms", client);
    out.set("bench.loop_ms", bench);
    out.set("simnet.self_ms", wall - peer - client - bench);
    out.set(
        "storage.peer_us_per_msg",
        peer * 1e3 / (sum(&|u| u.peer.1 as f64) / n),
    );
    out.set("simnet.delivered", sum(&|u| u.stats.delivered as f64) / n);
    out.set("simnet.events", sum(&|u| u.stats.steps as f64) / n);
    out.set("storage.retries", sum(&|u| u.retries as f64) / n);
    out.set(
        "storage.attempts_per_commit",
        sum(&|u| u.attempts as f64) / sum(&|u| u.commits as f64),
    );
    out.set("storage.history_len", sum(&|u| u.history_len) / n);
    let mut latencies: Vec<f64> = units
        .iter()
        .flat_map(|u| u.latencies.iter().copied())
        .collect();
    out.set("storage.commit_ticks_p50", quantile(&mut latencies, 0.5));
    out.set("storage.commit_ticks_p99", quantile(&mut latencies, 0.99));
    out.set(
        "sha1.pid_us",
        sum(&|u| u.pid_ns as f64) / n / HISTORY_FLOOR as f64 / 1e3,
    );
    // Set-up, not part of a unit: `PeerEngine::new` boots from artifact bytes.
    out.set("engine.boot_ms", sum(&|u| u.boot_ns as f64) / n / 1e6);
    let mut metrics = MetricsSnapshot::default();
    for u in &units {
        metrics.merge(&u.metrics);
    }
    out.set("telemetry.deliveries", metrics.deliveries as f64 / n);
    out.set("telemetry.transitions", metrics.transitions as f64 / n);
    out.set(
        "telemetry.guard_fall_through_ratio",
        metrics.guard_fall_throughs as f64 / metrics.deliveries.max(1) as f64,
    );
    out.set("telemetry.spawns", metrics.spawns as f64 / n);
    // `simnet.self_ms` is the rest of the run, so the sum holds by
    // construction; it fails only if the handler spans exceed the run.
    out.check_layer_sum(&[
        "simnet.self_ms",
        "storage.peer_ms",
        "storage.client_ms",
        "bench.loop_ms",
    ]);
    let mut traced_units = Histogram::default();
    for u in &units {
        traced_units.record(u.wall_ns as f64 / 1e6);
    }
    out.set(
        "trace.overhead_ratio",
        traced_units.quantile(0.5) / out.units.quantile(0.5),
    );
    out
}
