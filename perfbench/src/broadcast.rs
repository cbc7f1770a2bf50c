//! `serve_broadcast`: the same EFSM-tier pool of 65,536 commit attempts,
//! served the other way — every tick is one `Runtime::deliver_all`, and
//! between ticks a hashed 1/16 of the sessions is released and
//! re-spawned (untimed), so state occupancy stays mixed. The only
//! workload on which `core::kernel` does the work.
//!
//! One unit is one tick; one item is one session delivery in a tick.
//! Set-up records the traffic, compiles the engine, spawns the pool and
//! runs `WARMUP_TICKS` untimed ticks with churn, so the first timed tick
//! already sees mixed occupancy. Reference: sessions spawned between the same two ticks
//! share their delivered prefix, so one interpreted EFSM instance
//! (`commit_efsm_instance`) per spawn cohort replays it; every session's
//! state and registers are checked against its cohort before it is
//! released and at the end of the run. Shape guards: no timed tick may
//! be lockstep (every session in one state) and the median number of
//! distinct states per timed tick must reach `DISTINCT_STATES_FLOOR`.

use std::time::Instant;

use stategen_commit::{commit_efsm, commit_efsm_instance, commit_efsm_params, CommitConfig};
use stategen_core::efsm::{Efsm, EfsmInstance};
use stategen_core::{CompiledEfsm, EfsmSessionPool, ProtocolEngine};
use stategen_runtime::{Engine, Runtime, SessionId, Spec};

use crate::stats::{ns_since, Histogram, Rng};
use crate::{traffic, Outcome, SetupSampler};

const SESSIONS: usize = crate::mailbox::SESSIONS;
/// Sessions replaced between ticks (1/16 of the pool).
const CHURN: usize = SESSIONS / 16;
/// Untimed ticks in each set-up, so occupancy is mixed before timing.
const WARMUP_TICKS: usize = 64;
/// Minimum median count of distinct occupied states per tick.
const DISTINCT_STATES_FLOOR: f64 = 3.0;

/// Sessions spawned between the same two ticks, with the interpreted
/// replay of their common prefix.
struct Cohort<'e> {
    reference: EfsmInstance<'e>,
    /// Compiled state id of the reference's state (resolved by name).
    state: u32,
    live: u32,
}

struct Pool<'e> {
    efsm: &'e Efsm,
    config: CommitConfig,
    names: &'e [String],
    rt: Runtime,
    sids: Vec<SessionId>,
    cohorts: Vec<Cohort<'e>>,
    live_cohorts: Vec<usize>,
    /// Slots of cohorts whose sessions are all gone, reused first so
    /// memory stays bounded by the live cohorts.
    dead_cohorts: Vec<usize>,
    cohort_of: Vec<u32>,
    /// Trace-only: the same population through the scalar reference walk.
    mirror: Option<EfsmSessionPool<'e>>,
    /// Tick messages are drawn with the recorded storage frequencies.
    mix: traffic::Mix,
    churn: Vec<usize>,
    stamp: Vec<u32>,
    ticks: u32,
}

/// What one tick measured.
struct Tick {
    deliver_ns: u64,
    churn_ns: u64,
    scalar_ns: u64,
    distinct: usize,
}

impl<'e> Pool<'e> {
    fn new(
        efsm: &'e Efsm,
        names: &'e [String],
        core: Option<&'e CompiledEfsm>,
        mix: traffic::Mix,
    ) -> Self {
        let config = CommitConfig::new(4).expect("r = 4 is valid");
        let params = commit_efsm_params(&config);
        let engine = Engine::compile(Spec::efsm(efsm.clone(), params.clone()))
            .expect("commit EFSM compiles");
        let mut rt = engine.runtime();
        let sids = (0..SESSIONS).map(|_| rt.spawn()).collect();
        let mut pool = Pool {
            efsm,
            config,
            names,
            rt,
            sids,
            cohorts: Vec::new(),
            live_cohorts: Vec::new(),
            dead_cohorts: Vec::new(),
            cohort_of: vec![0; SESSIONS],
            mirror: core.map(|c| EfsmSessionPool::new(c, params, SESSIONS)),
            mix,
            churn: Vec::with_capacity(CHURN),
            stamp: vec![u32::MAX; SESSIONS],
            ticks: 0,
        };
        pool.new_cohort(SESSIONS as u32);
        pool
    }

    fn new_cohort(&mut self, live: u32) -> u32 {
        let reference = commit_efsm_instance(self.efsm, &self.config);
        let cohort = Cohort {
            state: state_id(self.names, &reference),
            reference,
            live,
        };
        let index = match self.dead_cohorts.pop() {
            Some(i) => {
                self.cohorts[i] = cohort;
                i
            }
            None => {
                self.cohorts.push(cohort);
                self.cohorts.len() - 1
            }
        };
        self.live_cohorts.push(index);
        index as u32
    }

    /// One tick: the timed `deliver_all`, then the reference replay and
    /// the churn (each released session is checked first).
    fn tick(&mut self, rng: &mut Rng, timed_scalar: bool, out: &mut Outcome) -> Tick {
        let mut occupied = [false; 16];
        for &c in &self.live_cohorts {
            occupied[self.cohorts[c].state as usize] = true;
        }
        let distinct = occupied.iter().filter(|&&o| o).count();

        let name = self.mix.pick(rng).as_str();
        let message = self.rt.message_id(name).expect("commit alphabet");
        let t = Instant::now();
        std::hint::black_box(self.rt.deliver_all(message));
        let deliver_ns = ns_since(t);
        self.ticks += 1;
        out.attempted += SESSIONS as u64;

        let mut scalar_ns = 0;
        if let Some(pool) = self.mirror.as_mut() {
            let m = pool.machine().message_id(name).expect("commit alphabet");
            let t = Instant::now();
            std::hint::black_box(pool.deliver_all_scalar(m));
            if timed_scalar {
                scalar_ns = ns_since(t);
            }
        }
        for &c in &self.live_cohorts {
            let cohort = &mut self.cohorts[c];
            cohort.reference.deliver_ref(name).expect("commit alphabet");
            cohort.state = state_id(self.names, &cohort.reference);
        }

        self.churn.clear();
        while self.churn.len() < CHURN {
            let slot = rng.below(SESSIONS);
            if self.stamp[slot] != self.ticks {
                self.stamp[slot] = self.ticks;
                self.churn.push(slot);
            }
        }
        for &slot in &self.churn {
            self.check(slot, out);
        }
        let t = Instant::now();
        for &slot in &self.churn {
            self.rt.release(self.sids[slot]);
            self.sids[slot] = self.rt.spawn();
        }
        let churn_ns = ns_since(t);
        let born = self.new_cohort(CHURN as u32);
        for &slot in &self.churn {
            self.cohorts[self.cohort_of[slot] as usize].live -= 1;
            self.cohort_of[slot] = born;
            if let Some(pool) = self.mirror.as_mut() {
                pool.reset_session(slot);
            }
        }
        let (cohorts, dead) = (&self.cohorts, &mut self.dead_cohorts);
        self.live_cohorts.retain(|&c| {
            let live = cohorts[c].live > 0;
            if !live {
                dead.push(c);
            }
            live
        });
        Tick {
            deliver_ns,
            churn_ns,
            scalar_ns,
            distinct,
        }
    }

    /// Checks one session against its cohort's interpreted replay (and
    /// the scalar mirror, when kept).
    fn check(&self, slot: usize, out: &mut Outcome) {
        let sid = self.sids[slot];
        let cohort = &self.cohorts[self.cohort_of[slot] as usize];
        let (state, vars) = (self.rt.state(sid), self.rt.vars(sid));
        let want = cohort.reference.vars();
        if state != cohort.state || vars != want {
            out.fail(|| {
                format!(
                    "session {slot}: state {state} vars {vars:?}, interpreted tier says {} {want:?}",
                    cohort.state
                )
            });
        }
        if let Some(pool) = &self.mirror {
            let scalar = pool.state(slot);
            out.check(scalar == state, || {
                format!("session {slot}: scalar walk {scalar}, runtime {state}")
            });
        }
    }
}

fn state_id(names: &[String], reference: &EfsmInstance<'_>) -> u32 {
    names
        .iter()
        .position(|n| n == reference.state_name_str())
        .expect("interpreted and compiled tiers share state names") as u32
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let efsm = commit_efsm();
    let core = CompiledEfsm::compile(&efsm).expect("commit EFSM compiles");
    let names: Vec<String> = (0..core.state_count() as u32)
        .map(|s| core.state_name(s).to_string())
        .collect();
    assert!(names.len() <= 16, "occupancy table holds the commit EFSM");

    let setup = |o: &mut Outcome| {
        let mut rng = Rng::new(seed);
        let recorded = traffic::record(o);
        let mut pool = Pool::new(&efsm, &names, trace.then_some(&core), recorded.mix);
        for _ in 0..WARMUP_TICKS {
            pool.tick(&mut rng, false, o);
        }
        (pool, rng, recorded)
    };
    let (mut setups, (mut pool, mut rng, recorded)) = SetupSampler::first(&mut out, setup);
    println!("  {}", recorded.describe());

    let mut distinct = [0u64; 17];
    let mut lockstep = 0u64;
    let mut traced_units = Histogram::default();
    let (mut kernel_ns, mut scalar_ns, mut churn_ns, mut empty_ns) = (0u64, 0u64, 0u64, 0u64);
    let start = Instant::now();
    let untraced_until = if trace { seconds / 2.0 } else { seconds };
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let traced = trace && elapsed >= untraced_until;
        if elapsed >= seconds && out.units.count() >= 3 && (!trace || traced_units.count() >= 3) {
            break;
        }
        setups.sample(elapsed, &mut out, setup);
        let tick = pool.tick(&mut rng, traced, &mut out);
        distinct[tick.distinct] += 1;
        lockstep += u64::from(tick.distinct == 1);
        if traced {
            kernel_ns += tick.deliver_ns;
            scalar_ns += tick.scalar_ns;
            churn_ns += tick.churn_ns;
            traced_units.record(tick.deliver_ns as f64 / 1e6);
            // The benchmark's share of a unit: its two clock reads.
            let t = Instant::now();
            std::hint::black_box(&pool.rt);
            empty_ns += ns_since(t);
        } else {
            out.units.record(tick.deliver_ns as f64 / 1e6);
            out.items += SESSIONS as f64;
        }
    }
    for slot in 0..SESSIONS {
        pool.check(slot, &mut out);
    }
    out.check(lockstep == 0, || format!("{lockstep} lockstep ticks"));
    let mut seen = 0;
    let half = distinct.iter().sum::<u64>().div_ceil(2);
    let distinct_p50 = distinct
        .iter()
        .position(|&n| {
            seen += n;
            seen >= half
        })
        .unwrap_or(0) as f64;
    out.check(distinct_p50 >= DISTINCT_STATES_FLOOR, || {
        format!("median {distinct_p50} distinct states per tick, floor {DISTINCT_STATES_FLOOR}")
    });
    let m = pool.rt.metrics();
    let want = u64::from(pool.ticks) * SESSIONS as u64;
    out.check(m.deliveries == want, || {
        format!(
            "telemetry counted {} deliveries, the benchmark made {want}",
            m.deliveries
        )
    });

    if trace {
        let n = traced_units.count() as f64;
        let kernel_ns = kernel_ns.saturating_sub(empty_ns);
        let per_session = |ns: u64| ns as f64 / n / SESSIONS as f64;
        out.set("kernel.ns_per_session", per_session(kernel_ns));
        out.set("kernel.scalar_ns_per_session", per_session(scalar_ns));
        out.set(
            "kernel.vs_scalar_ratio",
            kernel_ns as f64 / scalar_ns as f64,
        );
        out.set("kernel.distinct_states_p50", distinct_p50);
        out.set("kernel.lockstep_ticks", lockstep as f64);
        out.set("runtime.churn_ns", churn_ns as f64 / n / CHURN as f64);
        out.set("runtime.ms", kernel_ns as f64 / 1e6 / n);
        out.set("bench.loop_ms", empty_ns as f64 / 1e6 / n);
        out.set("trace.wall_ms", traced_units.sum() / n);
        out.set(
            "trace.overhead_ratio",
            traced_units.quantile(0.5) / out.units.quantile(0.5),
        );
        out.set("telemetry.deliveries", m.deliveries as f64);
        out.set("telemetry.transitions", m.transitions as f64);
        out.set(
            "telemetry.guard_fall_through_ratio",
            m.guard_fall_throughs as f64 / m.deliveries.max(1) as f64,
        );
        out.set("telemetry.spawns", m.spawns as f64);
        // One `deliver_all` is the whole unit, so the sum holds by
        // construction here: `runtime.ms` is the unit less its clock pair.
        out.check_layer_sum(&["runtime.ms", "bench.loop_ms"]);
    }
    out
}
