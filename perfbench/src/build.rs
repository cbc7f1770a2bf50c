//! `build`: closed-loop model → first-served-delivery passes over a
//! fixed corpus — the paper's Table 1 path and a model author's
//! edit–regenerate loop. Generator, analysis, compiler and artifact
//! codec do nearly all the work; the runtime serves one delivery per
//! engine.
//!
//! One unit is one corpus pass; one item is one model taken all the way
//! to a served delivery. References: the Table 1 state counts, the
//! commit EFSM's documented 9 states, the artifact fingerprint across
//! the save/load/boot round trip, and the first delivery on the
//! artifact-booted (minimized) engine against the spec-compiled one.

use std::time::Instant;

use stategen_analysis::{analyze_bound, minimize, AnalysisConfig};
use stategen_commit::{commit_efsm, commit_efsm_params, CommitConfig, CommitModel};
use stategen_core::efsm::Efsm;
use stategen_core::{generate, FlatIr, HierarchicalMachine, StageTimings};
use stategen_models::session_lifecycle_guarded;
use stategen_runtime::{Artifact, Engine, Spec};

use crate::stats::{ns_since, Histogram, Rng};
use crate::{Outcome, SetupSampler};

/// Paper Table 1: `(r, initial states, final states)`. r = 46 is left
/// out: at ~70 ms it would cost ~3× the rest of a pass.
const TABLE1: [(u32, u64, usize); 4] = [
    (4, 512, 33),
    (7, 1568, 85),
    (13, 5408, 261),
    (25, 20000, 901),
];

/// States of the commit EFSM (`stategen_commit::efsm` module docs).
const COMMIT_EFSM_STATES: usize = 9;

#[derive(Debug, Clone, Copy)]
enum Item {
    Table1(usize),
    CommitEfsm,
    Lifecycle,
}

struct Corpus {
    models: Vec<CommitModel>,
    efsm: Efsm,
    efsm_params: Vec<i64>,
    hsm: HierarchicalMachine,
    hsm_params: Vec<i64>,
    order: Vec<Item>,
    /// First message delivered to every commit-protocol engine.
    commit_message: &'static str,
    /// First message delivered to the lifecycle statechart.
    lifecycle_message: &'static str,
}

impl Corpus {
    fn new(seed: u64) -> Corpus {
        let mut rng = Rng::new(seed);
        let models = TABLE1
            .iter()
            .map(|&(r, _, _)| CommitModel::new(CommitConfig::new(r).expect("Table 1 r is valid")))
            .collect();
        let mut order: Vec<Item> = (0..TABLE1.len()).map(Item::Table1).collect();
        order.extend([Item::CommitEfsm, Item::Lifecycle]);
        rng.shuffle(&mut order);
        let config = CommitConfig::new(4).expect("r = 4 is valid");
        Corpus {
            models,
            efsm: commit_efsm(),
            efsm_params: commit_efsm_params(&config),
            hsm: session_lifecycle_guarded(),
            hsm_params: vec![2 + rng.below(4) as i64],
            order,
            commit_message: ["update", "vote", "commit"][rng.below(3)],
            lifecycle_message: "connect",
        }
    }
}

/// Nanoseconds per layer over the traced passes.
#[derive(Debug, Default)]
struct Spans {
    generator: u64,
    timings: StageTimings,
    flatten: u64,
    analyze: u64,
    minimize: u64,
    compile: u64,
    save: u64,
    load: u64,
    boot: u64,
    spawn: u64,
    spawns: u64,
    deliver: u64,
    deliveries: u64,
    initial_states: u64,
    final_states: u64,
    merge_rounds: u64,
    ir_states: u64,
    merged: u64,
    artifact_bytes: u64,
}

/// Times `$e` into `$slot` when `$on`.
macro_rules! span {
    ($on:expr, $slot:expr, $e:expr) => {{
        if $on {
            let t = Instant::now();
            let r = $e;
            $slot += ns_since(t);
            r
        } else {
            $e
        }
    }};
}

/// Spawns one session on `engine` and delivers `message`; returns the
/// state name reached and the actions taken.
fn serve_first(
    engine: &Engine,
    message: &str,
    on: bool,
    s: &mut Spans,
) -> Option<(String, Vec<String>)> {
    let id = engine.message_id(message)?;
    let mut rt = span!(on, s.spawn, engine.runtime());
    let sid = span!(on, s.spawn, rt.spawn());
    s.spawns += 1;
    let actions = span!(on, s.deliver, rt.deliver(sid, id));
    s.deliveries += 1;
    let actions = actions.iter().map(|a| a.message().to_string()).collect();
    Some((rt.state_name(sid).to_string(), actions))
}

/// One corpus pass; each item is one attempted operation.
fn pass(c: &Corpus, on: bool, s: &mut Spans, out: &mut Outcome) {
    let cfg = AnalysisConfig::new();
    for &item in &c.order {
        out.attempted += 1;
        match item {
            Item::Table1(i) => {
                let (r, want_initial, want_final) = TABLE1[i];
                let generated = span!(on, s.generator, generate(&c.models[i]));
                let Ok(g) = generated else {
                    out.fail(|| format!("generate r={r}: {generated:?}"));
                    continue;
                };
                let rep = &g.report;
                if rep.initial_states != want_initial || rep.final_states != want_final {
                    out.fail(|| {
                        format!(
                            "r={r}: {}/{} states, Table 1 says {want_initial}/{want_final}",
                            rep.initial_states, rep.final_states
                        )
                    });
                    continue;
                }
                if on {
                    let t = &mut s.timings;
                    t.enumerate += rep.timings.enumerate;
                    t.transitions += rep.timings.transitions;
                    t.prune += rep.timings.prune;
                    t.merge += rep.timings.merge;
                    t.annotate += rep.timings.annotate;
                    s.initial_states += rep.initial_states;
                    s.final_states += rep.final_states as u64;
                    s.merge_rounds += rep.merge_rounds as u64;
                }
                let engine = span!(on, s.compile, Engine::compile(Spec::machine(g.machine)));
                let served = engine
                    .ok()
                    .and_then(|e| serve_first(&e, c.commit_message, on, s));
                if served.is_none() {
                    out.fail(|| format!("r={r}: compile or first delivery failed"));
                }
            }
            Item::CommitEfsm | Item::Lifecycle => {
                let (ir, spec, params, message) = match item {
                    Item::CommitEfsm => (
                        span!(on, s.flatten, FlatIr::from_efsm(&c.efsm)),
                        Spec::efsm(c.efsm.clone(), c.efsm_params.clone()),
                        &c.efsm_params,
                        c.commit_message,
                    ),
                    _ => (
                        span!(on, s.flatten, c.hsm.flatten_ir()),
                        Spec::hsm_with_params(c.hsm.clone(), c.hsm_params.clone()),
                        &c.hsm_params,
                        c.lifecycle_message,
                    ),
                };
                s.ir_states += ir.state_count() as u64;
                if matches!(item, Item::CommitEfsm) && ir.state_count() != COMMIT_EFSM_STATES {
                    out.fail(|| format!("commit EFSM lowered to {} states", ir.state_count()));
                    continue;
                }
                let analysis = span!(on, s.analyze, analyze_bound(&ir, params, &cfg));
                if !analysis.is_clean() {
                    out.fail(|| format!("{}: deny-level analysis findings", ir.name()));
                    continue;
                }
                let (minimal, report) = span!(on, s.minimize, minimize(&ir));
                s.merged += report.merged() as u64;
                let compiled = span!(on, s.compile, Engine::compile(spec));
                let saved = span!(
                    on,
                    s.save,
                    Artifact::new(minimal, params.clone()).map(|a| (a.fingerprint(), a.save()))
                );
                let booted = saved.ok().and_then(|(fingerprint, bytes)| {
                    s.artifact_bytes += bytes.len() as u64;
                    let loaded = span!(on, s.load, Artifact::load(&bytes)).ok()?;
                    let engine = span!(on, s.boot, Engine::from_artifact(&loaded)).ok()?;
                    let round_trip =
                        loaded.fingerprint() == fingerprint && engine.fingerprint() == fingerprint;
                    round_trip.then_some(engine)
                });
                let (Ok(compiled), Some(booted)) = (compiled, booted) else {
                    out.fail(|| {
                        format!("{}: compile, artifact round trip or boot failed", ir.name())
                    });
                    continue;
                };
                let want = serve_first(&compiled, message, on, s);
                let got = serve_first(&booted, message, on, s);
                if want.is_none() || want != got {
                    out.fail(|| {
                        format!(
                            "{}: booted engine served {got:?}, compiled one {want:?}",
                            ir.name()
                        )
                    });
                }
            }
        }
    }
}

/// The benchmark's own share of a pass: the same walk over the corpus,
/// with the spec clones a pass makes, and no call into any layer.
fn empty_pass(c: &Corpus) {
    for &item in &c.order {
        match item {
            Item::Table1(i) => {
                std::hint::black_box(&c.models[i]);
            }
            Item::CommitEfsm => {
                std::hint::black_box(Spec::efsm(c.efsm.clone(), c.efsm_params.clone()));
            }
            Item::Lifecycle => {
                std::hint::black_box(Spec::hsm_with_params(c.hsm.clone(), c.hsm_params.clone()));
            }
        }
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut spans = Spans::default();
    // Set-up: build the corpus and take one untimed warm-up pass.
    let setup = |o: &mut Outcome| {
        let c = Corpus::new(seed);
        pass(&c, false, &mut Spans::default(), o);
        c
    };
    let (mut setups, corpus) = SetupSampler::first(&mut out, setup);
    let items = corpus.order.len() as f64;

    let start = Instant::now();
    // A traced run spends its first half untraced, for the overhead ratio.
    let untraced_until = if trace { seconds / 2.0 } else { seconds };
    while start.elapsed().as_secs_f64() < untraced_until || out.units.count() < 3 {
        setups.sample(start.elapsed().as_secs_f64(), &mut out, setup);
        let t = Instant::now();
        pass(&corpus, false, &mut spans, &mut out);
        out.units.record(ns_since(t) as f64 / 1e6);
        out.items += items;
    }
    if !trace {
        return out;
    }

    let mut spans = Spans::default();
    let mut traced_units = Histogram::default();
    let mut empty_ns = 0u64;
    while start.elapsed().as_secs_f64() < seconds || traced_units.count() < 3 {
        let t = Instant::now();
        pass(&corpus, true, &mut spans, &mut out);
        traced_units.record(ns_since(t) as f64 / 1e6);
        let t = Instant::now();
        empty_pass(&corpus);
        empty_ns += ns_since(t);
    }
    let passes = traced_units.count() as f64;
    let per_pass_ms = |ns: u64| ns as f64 / 1e6 / passes;
    let d_ms = |d: std::time::Duration| d.as_secs_f64() * 1e3 / passes;
    let s = &spans;
    out.set("generator.ms", per_pass_ms(s.generator));
    out.set("generator.enumerate_ms", d_ms(s.timings.enumerate));
    out.set("generator.transitions_ms", d_ms(s.timings.transitions));
    out.set("generator.prune_ms", d_ms(s.timings.prune));
    out.set("generator.merge_ms", d_ms(s.timings.merge));
    out.set("generator.annotate_ms", d_ms(s.timings.annotate));
    out.set("generator.initial_states", s.initial_states as f64 / passes);
    out.set("generator.final_states", s.final_states as f64 / passes);
    out.set("generator.merge_rounds", s.merge_rounds as f64 / passes);
    out.set("ir.flatten_ms", per_pass_ms(s.flatten));
    out.set("ir.states", s.ir_states as f64 / passes);
    out.set("analysis.analyze_ms", per_pass_ms(s.analyze));
    out.set("analysis.minimize_ms", per_pass_ms(s.minimize));
    out.set("analysis.states_merged", s.merged as f64 / passes);
    out.set("compile.ms", per_pass_ms(s.compile));
    out.set("artifact.save_ms", per_pass_ms(s.save));
    out.set("artifact.load_ms", per_pass_ms(s.load));
    out.set("artifact.bytes", s.artifact_bytes as f64 / passes);
    out.set("engine.boot_ms", per_pass_ms(s.boot));
    out.set("runtime.ms", per_pass_ms(s.spawn + s.deliver));
    out.set("runtime.spawn_ns", s.spawn as f64 / s.spawns.max(1) as f64);
    out.set(
        "runtime.deliver_ns",
        s.deliver as f64 / s.deliveries.max(1) as f64,
    );
    out.set("bench.loop_ms", per_pass_ms(empty_ns));
    let wall: f64 = traced_units.sum() / passes;
    out.set("trace.wall_ms", wall);
    out.set(
        "trace.overhead_ratio",
        traced_units.quantile(0.5) / out.units.quantile(0.5),
    );
    out.check_layer_sum(&[
        "generator.ms",
        "ir.flatten_ms",
        "analysis.analyze_ms",
        "analysis.minimize_ms",
        "compile.ms",
        "artifact.save_ms",
        "artifact.load_ms",
        "engine.boot_ms",
        "runtime.ms",
        "bench.loop_ms",
    ]);
    out
}
