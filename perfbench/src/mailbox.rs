//! `serve_mailbox`: one EFSM-tier `Runtime` holding 65,536 live commit
//! attempts, fed by a single producer in closed-loop ingress batches of
//! 4,096 `(session, message)` pairs in hashed arrival order — the
//! per-session `deliver` shape the storage peers use. Each session
//! replays one attempt trace recorded from a real storage run
//! (`traffic::record`: what a peer's runtime delivered to one attempt,
//! sibling `free` / `not_free` signals included); when the trace ends the
//! session is released and a fresh one spawned. `Runtime::deliver`
//! dominates; the batch kernels never run.
//!
//! One unit is one ingress batch (its deliveries, then its releases and
//! replacement spawns); one item is one delivery. Reference: every trace
//! is replayed once through the interpreted EFSM tier
//! (`commit_efsm_instance`), and after every batch each touched session's
//! state and registers are compared against the replay at its position.
//!
//! Traced units time every `deliver`, `release` and `spawn` call on its
//! own, and the layer sum compares those spans, the state capture and
//! the empty pass (plus the measured clock cost of each span) with the
//! unit's own wall clock, so time no layer accounts for shows up.

use std::time::Instant;

use stategen_commit::{commit_efsm, commit_efsm_instance, commit_efsm_params, CommitConfig};
use stategen_core::efsm::Efsm;
use stategen_core::{CompiledEfsm, MessageId, ProtocolEngine};
use stategen_runtime::{Engine, Runtime, SessionId, Spec};

use crate::stats::{ns_since, span_cost, Histogram, Rng};
use crate::{count_allocations, traffic, Outcome, SetupSampler};

pub const SESSIONS: usize = 65_536;
const BATCH: usize = 4_096;
/// Empty spans probed after each traced unit for its clock cost.
const SPAN_PROBES: u32 = 1_024;

/// One protocol trace and its interpreted-tier replay.
struct Trace {
    messages: Vec<MessageId>,
    /// After each message: state id (resolved by name), the two
    /// registers, and the number of actions fired.
    expect: Vec<(u32, [i64; 2], usize)>,
}

/// Replays every recorded trace through the interpreted EFSM.
fn traces(
    recorded: &traffic::Traffic,
    efsm: &Efsm,
    engine: &Engine,
    state_names: &[String],
) -> Vec<Trace> {
    let config = CommitConfig::new(4).expect("r = 4 is valid");
    recorded
        .traces
        .iter()
        .map(|messages| {
            assert!(messages.len() < u16::MAX as usize, "positions fit a u16");
            let mut reference = commit_efsm_instance(efsm, &config);
            let mut t = Trace {
                messages: Vec::with_capacity(messages.len()),
                expect: Vec::with_capacity(messages.len()),
            };
            for m in messages {
                let fired = reference
                    .deliver_ref(m.as_str())
                    .expect("commit alphabet")
                    .len();
                let state = state_names
                    .iter()
                    .position(|n| n == reference.state_name_str())
                    .expect("interpreted and compiled tiers share state names");
                let v = reference.vars();
                t.messages
                    .push(engine.message_id(m.as_str()).expect("commit alphabet"));
                t.expect.push((state as u32, [v[0], v[1]], fired));
            }
            t
        })
        .collect()
}

struct Pool {
    rt: Runtime,
    sids: Vec<SessionId>,
    trace_of: Vec<u32>,
    pos: Vec<u16>,
}

struct Setup {
    core: CompiledEfsm,
    traces: Vec<Trace>,
    recorded: traffic::Traffic,
    pool: Pool,
    rng: Rng,
}

fn setup(seed: u64, out: &mut Outcome) -> Setup {
    let mut rng = Rng::new(seed);
    let recorded = traffic::record(out);
    let efsm = commit_efsm();
    let params = commit_efsm_params(&CommitConfig::new(4).expect("r = 4 is valid"));
    let engine = Engine::compile(Spec::efsm(efsm.clone(), params)).expect("commit EFSM compiles");
    let core = CompiledEfsm::compile(&efsm).expect("commit EFSM compiles");
    let names: Vec<String> = (0..core.state_count() as u32)
        .map(|s| core.state_name(s).to_string())
        .collect();
    let traces = traces(&recorded, &efsm, &engine, &names);
    let mut rt = engine.runtime();
    let sids = (0..SESSIONS).map(|_| rt.spawn()).collect();
    let trace_of = (0..SESSIONS)
        .map(|_| rng.below(traces.len()) as u32)
        .collect();
    Setup {
        core,
        traces,
        recorded,
        pool: Pool {
            rt,
            sids,
            trace_of,
            pos: vec![0; SESSIONS],
        },
        rng,
    }
}

/// Benchmark-owned mirror of the pool for raw `CompiledEfsm::step`.
struct Mirror {
    states: Vec<u32>,
    regs: Vec<i64>,
    scratch: Vec<i64>,
    n_regs: usize,
}

/// Accumulated traced-unit times, in nanoseconds.
#[derive(Default)]
struct Spans {
    /// Per-call spans: `deliver`, `release`, `spawn`.
    deliver: u64,
    release: u64,
    spawn: u64,
    /// The state capture of ended sessions, one span per unit.
    capture: u64,
    /// The empty pass over the same ingress.
    empty: u64,
    /// Per-call spans taken (one per `deliver`, `release`, `spawn`).
    calls: u64,
    /// Sums over traced units of the clock cost per span (see
    /// `stats::span_cost`), probed after each unit so that it sees the
    /// same host speed as the unit.
    span_inner: f64,
    span_outer: f64,
    deliveries: u64,
    releases: u64,
    allocs: u64,
}

/// Batch-level times of the untraced units of a traced run, in
/// nanoseconds: the `deliver` loop, raw core steps of the same ingress,
/// and the empty pass. No clock is read inside these loops.
#[derive(Default)]
struct Loops {
    deliver: u64,
    step: u64,
    empty: u64,
    deliveries: u64,
}

/// The benchmark's own loop over an ingress batch, with no calls.
fn empty_pass(pairs: &[(u32, MessageId, bool)], sids: &[SessionId]) -> u64 {
    let t = Instant::now();
    let mut n = 0usize;
    for &(slot, m, last) in pairs {
        std::hint::black_box((sids[slot as usize], m));
        n += last as usize;
    }
    std::hint::black_box(n);
    ns_since(t)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let (mut setups, s) = SetupSampler::first(&mut out, |o| setup(seed, o));
    let Setup {
        core,
        traces,
        recorded,
        mut pool,
        mut rng,
    } = s;
    println!("  {}", recorded.describe());
    let params = commit_efsm_params(&CommitConfig::new(4).expect("r = 4 is valid"));
    let binding = core.bind(&params);
    let mut mirror = Mirror {
        states: vec![core.start(); SESSIONS],
        regs: vec![0; SESSIONS * core.reg_count()],
        scratch: vec![0; core.scratch_len()],
        n_regs: core.reg_count(),
    };

    let mut order: Vec<u32> = (0..SESSIONS as u32).collect();
    let mut pairs: Vec<(u32, MessageId, bool)> = Vec::with_capacity(BATCH);
    let mut ended: Vec<u32> = Vec::with_capacity(BATCH);
    let mut captured: Vec<(u32, [i64; 2])> = Vec::with_capacity(BATCH);
    let mut finished_share = Histogram::default();
    let mut traced_units = Histogram::default();
    let mut sp = Spans::default();
    let mut loops = Loops::default();
    let mut deliveries_total = 0u64;
    let mut spawns_total = SESSIONS as u64;
    let mut batch_no = 0usize;

    let start = Instant::now();
    let untraced_until = if trace { seconds / 2.0 } else { seconds };
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let traced = trace && elapsed >= untraced_until;
        if elapsed >= seconds && out.units.count() >= 3 && (!trace || traced_units.count() >= 3) {
            break;
        }
        setups.sample(elapsed, &mut out, |o| setup(seed, o));
        // Ingress: the next 4,096 sessions in this round's hashed order,
        // each with the next message of its trace.
        let offset = (batch_no * BATCH) % SESSIONS;
        if offset == 0 {
            rng.shuffle(&mut order);
        }
        batch_no += 1;
        pairs.clear();
        for &slot in &order[offset..offset + BATCH] {
            let tr = &traces[pool.trace_of[slot as usize] as usize];
            let p = pool.pos[slot as usize] as usize;
            pairs.push((slot, tr.messages[p], p + 1 == tr.messages.len()));
        }

        // The unit: deliveries, then completions.
        ended.clear();
        captured.clear();
        let rt = &mut pool.rt;
        let sids = &mut pool.sids;
        let mut fired = 0usize;
        if traced {
            // Every call in its own span.
            let t0 = Instant::now();
            let (_, allocs) = count_allocations(|| {
                for &(slot, m, last) in &pairs {
                    let t = Instant::now();
                    fired += rt.deliver(sids[slot as usize], m).len();
                    sp.deliver += ns_since(t);
                    if last {
                        ended.push(slot);
                    }
                }
            });
            let t = Instant::now();
            for &slot in &ended {
                let sid = sids[slot as usize];
                let v = rt.vars(sid);
                captured.push((rt.state(sid), [v[0], v[1]]));
            }
            sp.capture += ns_since(t);
            for &slot in &ended {
                let t = Instant::now();
                rt.release(sids[slot as usize]);
                sp.release += ns_since(t);
            }
            for &slot in &ended {
                let t = Instant::now();
                sids[slot as usize] = rt.spawn();
                sp.spawn += ns_since(t);
            }
            traced_units.record(t0.elapsed().as_secs_f64() * 1e3);
            sp.empty += empty_pass(&pairs, sids);
            let (inner, outer) = span_cost(SPAN_PROBES);
            sp.span_inner += inner;
            sp.span_outer += outer;
            sp.calls += (BATCH + 2 * ended.len()) as u64;
            sp.deliveries += BATCH as u64;
            sp.releases += ended.len() as u64;
            sp.allocs += allocs;
        } else {
            let t0 = Instant::now();
            for &(slot, m, last) in &pairs {
                fired += rt.deliver(sids[slot as usize], m).len();
                if last {
                    ended.push(slot);
                }
            }
            let t1 = Instant::now();
            for &slot in &ended {
                let sid = sids[slot as usize];
                let v = rt.vars(sid);
                captured.push((rt.state(sid), [v[0], v[1]]));
            }
            for &slot in &ended {
                rt.release(sids[slot as usize]);
            }
            for &slot in &ended {
                sids[slot as usize] = rt.spawn();
            }
            let unit = t0.elapsed();
            out.units.record(unit.as_secs_f64() * 1e3);
            out.items += BATCH as f64;
            if trace {
                loops.deliver += (t1 - t0).as_nanos() as u64;
                loops.empty += empty_pass(&pairs, sids);
                loops.deliveries += BATCH as u64;
            }
        }
        deliveries_total += BATCH as u64;
        spawns_total += ended.len() as u64;

        if trace {
            // Raw core stepping of the same ingress on owned arrays, kept
            // in step throughout and timed in the untraced units.
            let t = Instant::now();
            let mut core_fired = 0usize;
            for &(slot, m, _) in &pairs {
                let s = slot as usize;
                let regs = &mut mirror.regs[s * mirror.n_regs..(s + 1) * mirror.n_regs];
                if let Some((target, actions)) =
                    core.step(mirror.states[s], m, &binding, regs, &mut mirror.scratch)
                {
                    mirror.states[s] = target;
                    core_fired += actions.len();
                }
            }
            if !traced {
                loops.step += ns_since(t);
            }
            out.check(core_fired == fired, || {
                format!("core step fired {core_fired} actions, runtime {fired}")
            });
        }
        finished_share.record(rt.finished_count() as f64 / rt.len() as f64);

        // Verify against the interpreted replay, then advance positions.
        out.attempted += BATCH as u64;
        let mut expected_fired = 0usize;
        let mut caps = captured.iter();
        for &(slot, _, last) in &pairs {
            let s = slot as usize;
            let tr = &traces[pool.trace_of[s] as usize];
            let p = pool.pos[s] as usize;
            let (want_state, want_vars, want_fired) = tr.expect[p];
            expected_fired += want_fired;
            let (state, vars) = if last {
                *caps.next().expect("one capture per ended session")
            } else {
                let v = rt.vars(sids[s]);
                (rt.state(sids[s]), [v[0], v[1]])
            };
            if state != want_state || vars != want_vars {
                out.fail(|| {
                    format!(
                        "session {s} after {} messages: state {state} vars {vars:?}, \
                         interpreted tier says {want_state} {want_vars:?}",
                        p + 1
                    )
                });
            }
            if trace && state != mirror.states[s] {
                out.fail(|| format!("session {s}: raw core step reached {}", mirror.states[s]));
            }
            if last {
                pool.trace_of[s] = rng.below(traces.len()) as u32;
                pool.pos[s] = 0;
                mirror.states[s] = core.start();
                mirror.regs[s * mirror.n_regs..(s + 1) * mirror.n_regs].fill(0);
            } else {
                pool.pos[s] += 1;
            }
        }
        out.check(expected_fired == fired, || {
            format!("runtime fired {fired} actions, interpreted tier {expected_fired}")
        });
    }

    let m = pool.rt.metrics();
    out.check(
        m.deliveries == deliveries_total && m.spawns == spawns_total,
        || {
            format!(
                "telemetry counted {} deliveries / {} spawns, the benchmark made \
             {deliveries_total} / {spawns_total}",
                m.deliveries, m.spawns
            )
        },
    );
    if trace {
        let units = traced_units.count() as f64;
        let calls = sp.calls as f64;
        let (span_inner, span_outer) = (sp.span_inner / units, sp.span_outer / units);
        // Per-call costs from the untraced units' loop times, with no
        // clock inside the loops.
        let d = loops.deliveries as f64;
        let deliver_ns = loops.deliver.saturating_sub(loops.empty) as f64 / d;
        let step_ns = loops.step.saturating_sub(loops.empty) as f64 / d;
        out.set("runtime.deliver_ns", deliver_ns);
        out.set("core.step_ns", step_ns);
        out.set("runtime.overhead_ratio", deliver_ns / step_ns);
        let per_call =
            |ns: u64| (ns as f64 - sp.releases as f64 * span_inner) / sp.releases.max(1) as f64;
        out.set("runtime.release_ns", per_call(sp.release));
        out.set("runtime.spawn_ns", per_call(sp.spawn));
        out.set(
            "runtime.allocs_per_delivery",
            sp.allocs as f64 / sp.deliveries as f64,
        );
        // Layer sum: the calls' own time (spans less the clock read that
        // falls inside each) plus the benchmark's (capture, empty pass and
        // each span's whole clock cost) against the unit's wall clock.
        let runtime_ns = (sp.deliver + sp.release + sp.spawn) as f64 - calls * span_inner;
        let bench_ns = (sp.capture + sp.empty) as f64 + calls * span_outer;
        out.set("runtime.ms", runtime_ns / 1e6 / units);
        out.set("bench.loop_ms", bench_ns / 1e6 / units);
        out.set("trace.wall_ms", traced_units.sum() / units);
        out.set(
            "trace.overhead_ratio",
            traced_units.quantile(0.5) / out.units.quantile(0.5),
        );
        out.set("serve.finished_share", finished_share.quantile(0.5));
        out.set("telemetry.deliveries", m.deliveries as f64);
        out.set("telemetry.transitions", m.transitions as f64);
        out.set(
            "telemetry.guard_fall_through_ratio",
            m.guard_fall_throughs as f64 / m.deliveries.max(1) as f64,
        );
        out.set("telemetry.spawns", m.spawns as f64);
        out.check_layer_sum(&["runtime.ms", "bench.loop_ms"]);
    }
    out
}
