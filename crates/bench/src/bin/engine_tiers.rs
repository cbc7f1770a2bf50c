//! Engine-tier comparison: ns/delivery and allocation counts for the
//! interpreted, compiled, batched, kernel-batched, sharded, EFSM and
//! build-time-generated execution tiers, all running the same canonical
//! commit trace at r = 4.
//!
//! The batch-kernel gate: `batched_pool` / `efsm_pool` measure the
//! *scalar* per-session batch walk (`deliver_all_scalar` on the core
//! pools — the pre-kernel reference semantics), while `batched_kernel`
//! / `efsm_kernel` measure the bucketed branchless kernels behind
//! `deliver_all`. The paired alternating measurement at the bottom
//! hard-fails unless the kernels win by ≥ 1.25× (dense) and ≥ 1.4×
//! (EFSM) on a single core — branch elimination alone, no
//! multi-threading involved — at zero allocations per delivery.
//!
//! The sharded and facade tiers are measured **through the
//! `stategen-runtime` facade** (`Spec → Engine → Runtime`) — the owned
//! pipeline every deployment site now consumes — and the dedicated
//! `runtime_facade` row hard-gates the facade's overhead: 64k-session
//! batch dispatch must stay within 1.10× of raw dense-table stepping
//! (a paired alternating measurement against the bare
//! `CompiledMachine::step` loop; `compiled_raw_64k` is the same
//! baseline as a reported row) at zero allocations per delivery, both
//! hard assertions — the facade is only allowed to exist if it is
//! free. `runtime_facade_sharded_4` tracks the same work with 4-way
//! sharding as configuration; `deliver_all` steps the shards inline, so
//! it spawns no thread and joins the zero-alloc assertion.
//!
//! Emits a machine-readable `BENCH_engine_tiers.json` at the workspace
//! root (ns/delivery per tier, speedup ratios vs the interpreted
//! baseline, allocations per delivery) so future PRs can track the
//! performance trajectory, plus a human-readable table on stdout.
//!
//! A counting global allocator verifies the headline claims directly:
//! every steady-state *compiled* hot path — and the interpreted paths,
//! including the FSM name path and the interpreted EFSM, which both
//! borrow the action slice through `deliver_ref` instead of copying it
//! — performs **zero** heap allocations per delivered message; that
//! includes `hsm_flattened`, a flattened hierarchical statechart
//! dispatching through the same dense tables, `hsm_guarded_flattened`,
//! a *guarded* statechart (retry-budget session lifecycle) flattened
//! through the unified IR onto the compiled-EFSM tier and batch-served
//! at 64k sessions, the inline sharded facade row
//! (`runtime_facade_sharded_4`), and the persistent-worker row
//! (`work_stealing_4`), whose workers are spawned once *outside* the
//! measurement and whose shard scratch is shard-resident.
//!
//! The deployment path gets its own rows: `artifact_cold_load` times
//! the full ship-and-boot cycle (encode to the versioned artifact
//! image, load through the paranoid loader, build the engine, first
//! delivery — ns per cold boot, allocations included by nature), and
//! `artifact_booted_pool` hard-asserts that an artifact-booted engine's
//! steady state is allocation-free like every other compiled row.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use stategen_analysis::minimize;
use stategen_commit::{
    commit_efsm, commit_efsm_instance, commit_efsm_params, CommitConfig, CommitModel,
};
use stategen_core::{
    generate, CompiledEfsm, CompiledMachine, EfsmSessionPool, FsmInstance, ProtocolEngine,
    SessionPool,
};
use stategen_generated::GeneratedCommitR4;
use stategen_models::{redundant_ring, session_lifecycle, session_lifecycle_guarded};
use stategen_runtime::{Artifact, Engine, Spec};

/// System allocator wrapped with an allocation counter, so the harness
/// can assert which tiers allocate on the delivery path.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; the counter is a relaxed
// atomic increment with no other side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The canonical commit trace driven by every tier (same as the
/// `runtime_comparison` bench).
const TRACE: [&str; 9] = [
    "update", "vote", "vote", "commit", "not_free", "vote", "free", "commit", "vote",
];

/// Deliveries per measurement run for the single-instance tiers.
const SINGLE_DELIVERIES: u64 = 1_800_000;

/// Sessions in the batched tier (deliveries = sessions × trace rounds).
const POOL_SESSIONS: usize = 4096;

/// Sessions in the sharded tiers (the multi-core scaling measurement;
/// the acceptance bar is ≥ 64k concurrent sessions).
const SHARDED_SESSIONS: usize = 65_536;

struct TierResult {
    name: String,
    ns_per_delivery: f64,
    allocs_per_delivery: f64,
    /// Whether the steady-state path must be allocation-free.
    assert_zero_alloc: bool,
}

/// Runs `work` (which performs `deliveries` message deliveries) once as
/// a warm-up pass and then three measured passes, returning best-of ns
/// (this box is shared and single-pass timings jitter) and worst-of
/// allocations per delivery.
fn measure(
    name: impl Into<String>,
    deliveries: u64,
    assert_zero_alloc: bool,
    mut work: impl FnMut() -> u64,
) -> TierResult {
    let mut checksum = work(); // warm-up: page in tables, size scratch buffers
    let mut best_ns = f64::INFINITY;
    let mut worst_allocs = 0u64;
    for _ in 0..3 {
        let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
        let start = Instant::now();
        checksum ^= work();
        let elapsed = start.elapsed();
        let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
        best_ns = best_ns.min(elapsed.as_nanos() as f64);
        worst_allocs = worst_allocs.max(allocs);
    }
    std::hint::black_box(checksum);
    TierResult {
        name: name.into(),
        ns_per_delivery: best_ns / deliveries as f64,
        allocs_per_delivery: worst_allocs as f64 / deliveries as f64,
        assert_zero_alloc,
    }
}

fn main() {
    let config = CommitConfig::new(4).expect("valid replication factor");
    let machine = generate(&CommitModel::new(config))
        .expect("generates")
        .machine;
    let compiled = CompiledMachine::compile(&machine);
    let efsm = commit_efsm();
    let compiled_efsm = CompiledEfsm::compile(&efsm).expect("commit EFSM compiles");
    let efsm_params = commit_efsm_params(&config);
    // The owned pipeline engine every sharded/facade row serves from.
    let facade_engine =
        Engine::compile(Spec::machine(machine.clone())).expect("commit machine compiles");
    let ids: Vec<_> = TRACE
        .iter()
        .map(|m| machine.message_id(m).expect("valid message"))
        .collect();
    let efsm_ids: Vec<_> = TRACE
        .iter()
        .map(|m| compiled_efsm.message_id(m).expect("valid message"))
        .collect();

    let rounds = SINGLE_DELIVERIES / TRACE.len() as u64;
    let mut results = Vec::new();

    // Tier 1: interpreted, name-based borrowing path. Message names are
    // resolved through the machine's interned name→id map (built once at
    // generation time) and the action slice is borrowed, so even the
    // string-keyed path is allocation-free.
    results.push(measure(
        "interpreted_name",
        rounds * TRACE.len() as u64,
        true,
        || {
            let mut engine = FsmInstance::new(&machine);
            let mut actions = 0;
            for _ in 0..rounds {
                for m in TRACE {
                    actions += engine.deliver_ref(m).expect("valid message").len() as u64;
                }
                engine.reset();
            }
            actions
        },
    ));

    // Tier 2: interpreted, id-based borrowing path (BTreeMap walk, no
    // name resolution).
    results.push(measure(
        "interpreted_id",
        rounds * TRACE.len() as u64,
        true,
        || {
            let mut engine = FsmInstance::new(&machine);
            let mut actions = 0;
            for _ in 0..rounds {
                for &id in &ids {
                    actions += engine.deliver_id(id).len() as u64;
                }
                engine.reset();
            }
            actions
        },
    ));

    // Tier 3: compiled dense-table dispatch.
    results.push(measure(
        "compiled",
        rounds * TRACE.len() as u64,
        true,
        || {
            let mut engine = compiled.instance();
            let mut actions = 0;
            for _ in 0..rounds {
                for &id in &ids {
                    actions += engine.deliver_id(id).len() as u64;
                }
                engine.reset();
            }
            actions
        },
    ));

    // Tier 3b: a flattened hierarchical statechart on the same compiled
    // dispatch. The session-lifecycle machine (composites, entry/exit
    // actions, shallow history) lowers to an ordinary dense table, so
    // flattened dispatch must stay within ~2x of the plain compiled
    // tier and keep the zero-allocation guarantee.
    let lifecycle = session_lifecycle();
    let lifecycle_flat = lifecycle.flatten();
    let compiled_lifecycle = CompiledMachine::compile(&lifecycle_flat);
    const HSM_TRACE: [&str; 9] = [
        "connect", "update", "vote", "commit", "ping", "update", "abort", "suspend", "resume",
    ];
    let hsm_ids: Vec<_> = HSM_TRACE
        .iter()
        .map(|m| compiled_lifecycle.message_id(m).expect("valid message"))
        .collect();
    results.push(measure(
        "hsm_flattened",
        rounds * HSM_TRACE.len() as u64,
        true,
        || {
            let mut engine = compiled_lifecycle.instance();
            let mut actions = 0;
            for _ in 0..rounds {
                for &id in &hsm_ids {
                    actions += engine.deliver_id(id).len() as u64;
                }
                engine.reset();
            }
            actions
        },
    ));

    // Tier 3c: a *guarded* statechart — the retry-budget session
    // lifecycle — flattened through the unified IR onto the
    // compiled-EFSM tier and served through the runtime facade at the
    // 64k-session acceptance scale. Guards evaluate as flat fused
    // threshold checks against per-session variable registers, so the
    // row must stay in the compiled-EFSM cost class (tracked against
    // `efsm_pool` below) and keep the zero-allocation guarantee —
    // hard-asserted like every single-shard compiled row.
    let guarded_engine =
        Engine::compile(Spec::hsm_with_params(session_lifecycle_guarded(), vec![3]))
            .expect("guarded lifecycle compiles");
    const HSM_GUARDED_TRACE: [&str; 9] = [
        "connect", "update", "abort", "update", "vote", "commit", "update", "abort", "suspend",
    ];
    let guarded_ids: Vec<_> = HSM_GUARDED_TRACE
        .iter()
        .map(|m| guarded_engine.message_id(m).expect("valid message"))
        .collect();
    let guarded_rounds = 4u64;
    let guarded_deliveries =
        guarded_rounds * SHARDED_SESSIONS as u64 * HSM_GUARDED_TRACE.len() as u64;
    let guarded_flat_states = guarded_engine.state_count();
    {
        let mut rt = guarded_engine.runtime_with(SHARDED_SESSIONS);
        results.push(measure(
            "hsm_guarded_flattened",
            guarded_deliveries,
            true,
            || {
                let mut transitions = 0;
                for _ in 0..guarded_rounds {
                    for &id in &guarded_ids {
                        transitions += rt.deliver_all(id);
                    }
                    rt.reset_all();
                }
                transitions
            },
        ));
    }

    // Tier 3d: provably-safe state minimization. The redundant-ring
    // statechart flattens to RING_K + 2 states whose work leaves are
    // all behaviourally equivalent; `stategen_analysis::minimize`
    // collapses them by partition refinement, and both the original
    // and the quotient compile onto the dense tier and drive the same
    // trace. The hard gates: the quotient must actually be smaller,
    // must stay allocation-free, and (measured as paired alternating
    // passes below, so drift on this shared box hits both sides
    // equally) must serve deliveries no slower than the redundant
    // original.
    const RING_K: usize = 8;
    let ring_ir = redundant_ring(RING_K).flatten_ir();
    let (ring_min_ir, ring_stats) = minimize(&ring_ir);
    assert!(
        ring_stats.states_after < ring_stats.states_before,
        "minimization must shrink the ring: {} -> {}",
        ring_stats.states_before,
        ring_stats.states_after
    );
    let ring_full = CompiledMachine::compile_ir(&ring_ir).expect("redundant ring compiles");
    let ring_small = CompiledMachine::compile_ir(&ring_min_ir).expect("ring quotient compiles");
    const RING_TRACE: [&str; 9] = [
        "go", "step", "step", "step", "step", "step", "step", "step", "stop",
    ];
    let ring_rounds = SINGLE_DELIVERIES / RING_TRACE.len() as u64;
    let ring_deliveries = ring_rounds * RING_TRACE.len() as u64;
    let full_ids: Vec<_> = RING_TRACE
        .iter()
        .map(|m| ring_full.message_id(m).expect("valid message"))
        .collect();
    let small_ids: Vec<_> = RING_TRACE
        .iter()
        .map(|m| ring_small.message_id(m).expect("valid message"))
        .collect();
    results.push(measure("hsm_unminimized", ring_deliveries, true, || {
        let mut engine = ring_full.instance();
        let mut actions = 0;
        for _ in 0..ring_rounds {
            for &id in &full_ids {
                actions += engine.deliver_id(id).len() as u64;
            }
            engine.reset();
        }
        actions
    }));
    results.push(measure("hsm_minimized", ring_deliveries, true, || {
        let mut engine = ring_small.instance();
        let mut actions = 0;
        for _ in 0..ring_rounds {
            for &id in &small_ids {
                actions += engine.deliver_id(id).len() as u64;
            }
            engine.reset();
        }
        actions
    }));
    // The minimization gate, as paired alternating passes (the reported
    // rows above are measured minutes apart in a long process; the gate
    // re-runs both loops back to back so scheduler drift cancels).
    let minimized_ratio = {
        let mut full = ring_full.instance();
        let mut small = ring_small.instance();
        let mut full_pass = || {
            let mut actions = 0u64;
            for _ in 0..ring_rounds {
                for &id in &full_ids {
                    actions += full.deliver_id(id).len() as u64;
                }
                full.reset();
            }
            actions
        };
        let mut small_pass = || {
            let mut actions = 0u64;
            for _ in 0..ring_rounds {
                for &id in &small_ids {
                    actions += small.deliver_id(id).len() as u64;
                }
                small.reset();
            }
            actions
        };
        let full_actions = std::hint::black_box(full_pass());
        let small_actions = std::hint::black_box(small_pass());
        // The quotient is observation-equivalent, so the two loops do
        // identical visible work — checked here so the timing below is
        // guaranteed to compare like with like.
        assert_eq!(
            full_actions, small_actions,
            "the ring quotient must emit the same actions as the original"
        );
        let mut full_best = f64::INFINITY;
        let mut small_best = f64::INFINITY;
        for _ in 0..5 {
            let start = Instant::now();
            std::hint::black_box(full_pass());
            full_best = full_best.min(start.elapsed().as_nanos() as f64);
            let start = Instant::now();
            std::hint::black_box(small_pass());
            small_best = small_best.min(start.elapsed().as_nanos() as f64);
        }
        small_best / full_best
    };

    // Tier 4: batched sessions over the core struct-of-arrays pool —
    // two rows for the same work. `batched_pool` is the *scalar*
    // reference walk (`deliver_all_scalar`: the per-session stepping
    // loop every batch caller ran before the kernels landed, preserved
    // as the semantic oracle and the observer visit-order path);
    // `batched_kernel` is `deliver_all`, which counting-sorts the
    // pending sessions into (state, message) buckets and steps each
    // bucket with one branchless loop (table cell hoisted out, finished
    // bits by mask arithmetic). The paired alternating gate below
    // hard-asserts the kernel's ≥ 1.25× win at 0 allocs/delivery.
    let pool_rounds = (SINGLE_DELIVERIES / (POOL_SESSIONS as u64 * TRACE.len() as u64)).max(1);
    let pool_deliveries = pool_rounds * POOL_SESSIONS as u64 * TRACE.len() as u64;
    let mut pool = SessionPool::new(&compiled, POOL_SESSIONS);
    results.push(measure("batched_pool", pool_deliveries, true, || {
        let mut transitions = 0;
        for _ in 0..pool_rounds {
            for &id in &ids {
                transitions += pool.deliver_all_scalar(id);
            }
            pool.reset_all();
        }
        transitions
    }));
    results.push(measure("batched_kernel", pool_deliveries, true, || {
        let mut transitions = 0;
        for _ in 0..pool_rounds {
            for &id in &ids {
                transitions += pool.deliver_all(id);
            }
            pool.reset_all();
        }
        transitions
    }));
    // The dense-kernel gate, as paired alternating passes (same
    // discipline as the minimization gate below: scheduler drift on
    // this shared box hits both sides equally, so the best-of ratio
    // isolates the real effect of branch elimination + bucketing).
    let batched_kernel_ratio = {
        let scalar_pass = |pool: &mut SessionPool| {
            let mut transitions = 0u64;
            for _ in 0..pool_rounds {
                for &id in &ids {
                    transitions += pool.deliver_all_scalar(id);
                }
                pool.reset_all();
            }
            transitions
        };
        let kernel_pass = |pool: &mut SessionPool| {
            let mut transitions = 0u64;
            for _ in 0..pool_rounds {
                for &id in &ids {
                    transitions += pool.deliver_all(id);
                }
                pool.reset_all();
            }
            transitions
        };
        let scalar_transitions = std::hint::black_box(scalar_pass(&mut pool));
        let kernel_transitions = std::hint::black_box(kernel_pass(&mut pool));
        assert_eq!(
            scalar_transitions, kernel_transitions,
            "the dense kernel must transition exactly like the scalar walk"
        );
        let mut scalar_best = f64::INFINITY;
        let mut kernel_best = f64::INFINITY;
        for _ in 0..5 {
            let start = Instant::now();
            std::hint::black_box(scalar_pass(&mut pool));
            scalar_best = scalar_best.min(start.elapsed().as_nanos() as f64);
            let start = Instant::now();
            std::hint::black_box(kernel_pass(&mut pool));
            kernel_best = kernel_best.min(start.elapsed().as_nanos() as f64);
        }
        scalar_best / kernel_best
    };

    // Tier 5: the EFSM interpreter — the machine generic over r, walking
    // `Guard`/`Update` enum trees per message with a linear name scan,
    // driven through the borrow-returning `deliver_ref` path (the
    // transition's action slice is lent out, never copied), so even the
    // slow interpreted baseline is allocation-free and joins the hard
    // zero-alloc gate.
    let efsm_rounds = rounds / 4; // the enum-tree walk is slow; keep runs short
    let mut efsm_interp = commit_efsm_instance(&efsm, &config);
    results.push(measure(
        "efsm_interpreted",
        efsm_rounds * TRACE.len() as u64,
        true,
        || {
            let mut actions = 0;
            for _ in 0..efsm_rounds {
                for m in TRACE {
                    actions += efsm_interp.deliver_ref(m).expect("valid message").len() as u64;
                }
                efsm_interp.reset();
            }
            actions
        },
    ));

    // Tier 6: the compiled EFSM — the same machine lowered to flat
    // guard/update bytecode with a constant pool; id-based dispatch.
    // (The instance's register buffers are allocated once, out here.)
    let mut efsm_engine = compiled_efsm.instance(efsm_params.clone());
    results.push(measure(
        "efsm_compiled",
        rounds * TRACE.len() as u64,
        true,
        || {
            let mut actions = 0;
            for _ in 0..rounds {
                for &id in &efsm_ids {
                    actions += efsm_engine.deliver_id(id).len() as u64;
                }
                efsm_engine.reset();
            }
            actions
        },
    ));

    // Tier 7: batched EFSM sessions over the core pool (variable
    // registers struct-of-arrays) — the same scalar/kernel split as
    // tier 4. `efsm_pool` steps sessions one at a time through the
    // fused bytecode; `efsm_kernel` buckets by state and evaluates the
    // fused threshold checks `sign·vars[v] + bound ≤ 0` as masked
    // compares across each bucket's register lanes (the per-session
    // `(v ^ m) − m + t` form lifted to a column sweep), spilling to
    // scalar bytecode only for non-fused cells. Gate below: ≥ 1.4×.
    assert_eq!(
        compiled_efsm.bind(&efsm_params).spill_cell_count(),
        0,
        "the commit EFSM must stay entirely on the fused kernel fast path"
    );
    let mut efsm_pool = EfsmSessionPool::new(&compiled_efsm, efsm_params.clone(), POOL_SESSIONS);
    results.push(measure("efsm_pool", pool_deliveries, true, || {
        let mut transitions = 0;
        for _ in 0..pool_rounds {
            for &id in &efsm_ids {
                transitions += efsm_pool.deliver_all_scalar(id);
            }
            efsm_pool.reset_all();
        }
        transitions
    }));
    results.push(measure("efsm_kernel", pool_deliveries, true, || {
        let mut transitions = 0;
        for _ in 0..pool_rounds {
            for &id in &efsm_ids {
                transitions += efsm_pool.deliver_all(id);
            }
            efsm_pool.reset_all();
        }
        transitions
    }));
    // The EFSM-kernel gate, paired like the dense one.
    let efsm_kernel_ratio = {
        let scalar_pass = |pool: &mut EfsmSessionPool| {
            let mut transitions = 0u64;
            for _ in 0..pool_rounds {
                for &id in &efsm_ids {
                    transitions += pool.deliver_all_scalar(id);
                }
                pool.reset_all();
            }
            transitions
        };
        let kernel_pass = |pool: &mut EfsmSessionPool| {
            let mut transitions = 0u64;
            for _ in 0..pool_rounds {
                for &id in &efsm_ids {
                    transitions += pool.deliver_all(id);
                }
                pool.reset_all();
            }
            transitions
        };
        let scalar_transitions = std::hint::black_box(scalar_pass(&mut efsm_pool));
        let kernel_transitions = std::hint::black_box(kernel_pass(&mut efsm_pool));
        assert_eq!(
            scalar_transitions, kernel_transitions,
            "the EFSM kernel must transition exactly like the scalar walk"
        );
        let mut scalar_best = f64::INFINITY;
        let mut kernel_best = f64::INFINITY;
        for _ in 0..5 {
            let start = Instant::now();
            std::hint::black_box(scalar_pass(&mut efsm_pool));
            scalar_best = scalar_best.min(start.elapsed().as_nanos() as f64);
            let start = Instant::now();
            std::hint::black_box(kernel_pass(&mut efsm_pool));
            kernel_best = kernel_best.min(start.elapsed().as_nanos() as f64);
        }
        scalar_best / kernel_best
    };

    // Tier 7b: the deployment path. `artifact_cold_load` measures the
    // full ship-and-boot cycle — encode the bound commit EFSM to its
    // versioned artifact image (`save`), run the image back through the
    // paranoid loader (section checksums, structural validation,
    // content fingerprint, canonical re-encoding), build the engine
    // from the loaded bytes alone, and deliver a first message — the
    // work between an image arriving on a serving host and its first
    // served event, reported as ns per cold boot. `artifact_booted_pool`
    // then serves the canonical trace from an artifact-booted engine
    // and hard-asserts the deployment guarantee: once loaded, the
    // steady state is exactly the compiled tier — zero allocations per
    // delivery.
    let artifact = Artifact::from_efsm(&efsm, efsm_params.clone()).expect("binding arity");
    let cold_boots = 512u64;
    results.push(measure("artifact_cold_load", cold_boots, false, || {
        let mut actions = 0;
        for _ in 0..cold_boots {
            let image = artifact.save();
            let loaded = Artifact::load(&image).expect("canonical image");
            let engine = Engine::from_artifact(&loaded).expect("artifact boots");
            let mut rt = engine.runtime();
            let session = rt.spawn();
            let first = engine.message_id(TRACE[0]).expect("valid message");
            actions += rt.deliver(session, first).len() as u64;
        }
        actions
    }));
    {
        let image = artifact.save();
        let booted = Engine::from_artifact(&Artifact::load(&image).expect("canonical image"))
            .expect("artifact boots");
        let mut booted_pool = booted.runtime_with(POOL_SESSIONS);
        results.push(measure(
            "artifact_booted_pool",
            pool_deliveries,
            true,
            || {
                let mut transitions = 0;
                for _ in 0..pool_rounds {
                    for &id in &efsm_ids {
                        transitions += booted_pool.deliver_all(id);
                    }
                    booted_pool.reset_all();
                }
                transitions
            },
        ));
    }

    // Sharded rows share the 64k-session work: 4 rounds of the trace.
    let sharded_rounds = 4u64;
    let sharded_deliveries = sharded_rounds * SHARDED_SESSIONS as u64 * TRACE.len() as u64;

    // Tier 8: work stealing, the one multi-core driver. Eight shards
    // over four persistent workers: each worker drains its own deque
    // front-first and steals from its neighbours' tails when empty, so
    // an unlucky shard split can't idle three cores. Every shard is
    // still processed exactly once per batch by exactly one worker, so
    // the results are bit-identical to the flat pool — asserted per
    // batch against a flat runtime before measuring, and the row joins
    // the hard zero-alloc gate (deques are refilled in place within
    // retained capacity).
    {
        let mut flat = facade_engine.runtime_with(SHARDED_SESSIONS);
        let mut sharded = facade_engine.runtime().sharded(8);
        sharded.spawn_many(SHARDED_SESSIONS);
        let row = sharded.with_workers(4, |workers| {
            for &id in &ids {
                assert_eq!(
                    workers.deliver_all(id),
                    flat.deliver_all(id),
                    "stealing workers must transition exactly like the flat pool"
                );
                assert_eq!(workers.finished_count(), flat.finished_count());
                assert_eq!(workers.steps(), flat.steps());
            }
            workers.reset_all();
            measure("work_stealing_4", sharded_deliveries, true, || {
                let mut transitions = 0;
                for _ in 0..sharded_rounds {
                    for &id in &ids {
                        transitions += workers.deliver_all(id);
                    }
                    workers.reset_all();
                }
                transitions
            })
        });
        results.push(row);
    }

    // The facade-overhead gate. `compiled_raw_64k` is plain compiled
    // dispatch at the serving scale — 64k dense `u32` states stepped
    // straight through `CompiledMachine::step`, the loop any deployment
    // would hand-roll without the runtime. `runtime_facade` is the same
    // work through `Runtime::deliver_all` (slot skip-check, finished
    // bitset and step accounting included); `runtime_facade_sharded_4`
    // adds 4-way sharding as configuration. The facade must cost ≤ 10%
    // over raw stepping at 0 allocs/delivery — hard-asserted below.
    let start_state = compiled.start();
    let mut raw_states = vec![start_state; SHARDED_SESSIONS];
    results.push(measure(
        "compiled_raw_64k",
        sharded_deliveries,
        true,
        || {
            let mut transitions = 0;
            for _ in 0..sharded_rounds {
                for &id in &ids {
                    for state in &mut raw_states {
                        if let Some((target, _)) = compiled.step(*state, id) {
                            *state = target;
                            transitions += 1;
                        }
                    }
                }
                raw_states.fill(start_state);
            }
            transitions
        },
    ));
    {
        let mut facade = facade_engine.runtime_with(SHARDED_SESSIONS);
        results.push(measure("runtime_facade", sharded_deliveries, true, || {
            let mut transitions = 0;
            for _ in 0..sharded_rounds {
                for &id in &ids {
                    transitions += facade.deliver_all(id);
                }
                facade.reset_all();
            }
            transitions
        }));
        let mut facade_sharded = facade_engine.runtime().sharded(4);
        facade_sharded.spawn_many(SHARDED_SESSIONS);
        results.push(measure(
            "runtime_facade_sharded_4",
            sharded_deliveries,
            true,
            || {
                let mut transitions = 0;
                for _ in 0..sharded_rounds {
                    for &id in &ids {
                        transitions += facade_sharded.deliver_all(id);
                    }
                    facade_sharded.reset_all();
                }
                transitions
            },
        ));
    }

    // Tier 9: the observability row. The same 64k-session batch work
    // with the full telemetry stack live: per-shard counters (always
    // compiled in), the batch-latency histogram, and a 256-event
    // flight-recorder ring receiving every transition. 256 events is
    // the deployment-shaped size: an 8 KiB ring rides in L1 next to
    // the streaming state array, where a 1024-event (32 KiB) ring
    // would evict it and bill pure cache misses to the recorder. The
    // ring and histogram are sized once at attach, so steady state
    // must stay allocation-free — hard-asserted like every
    // single-shard compiled row; the paired gate below bounds the
    // recording overhead.
    {
        let mut observed = facade_engine.runtime_with(SHARDED_SESSIONS);
        observed.attach_recorder(256);
        results.push(measure(
            "runtime_observed",
            sharded_deliveries,
            true,
            || {
                let mut transitions = 0;
                for _ in 0..sharded_rounds {
                    for &id in &ids {
                        transitions += observed.deliver_all(id);
                    }
                    observed.reset_all();
                }
                transitions
            },
        ));
    }

    // Tier 10: build-time generated source (match over enum states,
    // static send lists).
    results.push(measure(
        "generated",
        rounds * TRACE.len() as u64,
        false,
        || {
            let mut engine = GeneratedCommitR4::new();
            let mut actions = 0;
            for _ in 0..rounds {
                for m in TRACE {
                    if let Some(sends) = engine.deliver_raw(m) {
                        actions += sends.len() as u64;
                    }
                }
                engine.reset();
            }
            actions
        },
    ));

    let baseline = results[0].ns_per_delivery;
    println!(
        "engine tiers — {} ({} states) / {} ({} states), canonical trace",
        machine.name(),
        machine.state_count(),
        compiled_efsm.name(),
        compiled_efsm.state_count()
    );
    println!(
        "{:<18} {:>14} {:>10} {:>18}",
        "tier", "ns/delivery", "speedup", "allocs/delivery"
    );
    for r in &results {
        println!(
            "{:<18} {:>14.2} {:>9.1}x {:>18.4}",
            r.name,
            r.ns_per_delivery,
            baseline / r.ns_per_delivery,
            r.allocs_per_delivery
        );
    }

    for r in &results {
        if r.assert_zero_alloc {
            assert_eq!(
                r.allocs_per_delivery, 0.0,
                "{} tier must not allocate per delivery",
                r.name
            );
        }
    }
    let by_name = |name: &str| {
        results
            .iter()
            .find(|r| r.name == name)
            .expect("measured")
            .ns_per_delivery
    };
    println!(
        "\ncompiled vs interpreted (name path): {:.1}x",
        baseline / by_name("compiled")
    );
    let efsm_speedup = by_name("efsm_interpreted") / by_name("efsm_compiled");
    println!("efsm_compiled vs efsm_interpreted:   {efsm_speedup:.1}x");
    // The ~8x-on-idle-hardware claim is tracked through the committed
    // BENCH_engine_tiers.json (reviewers diff it per PR); it is a
    // comparison of two wall-clock measurements, so unlike the exact
    // zero-alloc asserts above it must not hard-fail the verify gate —
    // a loaded shared container can deschedule one tier arbitrarily.
    if efsm_speedup < 5.0 {
        eprintln!(
            "warning: efsm_compiled speedup {efsm_speedup:.1}x is below the 5x target \
             (~8x expected on idle hardware) — rerun on an idle machine before treating \
             this as a regression"
        );
    }
    // Flattened-statechart dispatch runs the identical dense-table hot
    // path, so it must stay in the same ballpark as the plain compiled
    // machine. Like the EFSM speedup this compares two wall-clock
    // measurements, so it warns rather than hard-failing the gate.
    let hsm_ratio = by_name("hsm_flattened") / by_name("compiled");
    println!("hsm_flattened vs compiled:           {hsm_ratio:.2}x");
    if hsm_ratio > 2.0 {
        eprintln!(
            "warning: flattened-statechart dispatch is {hsm_ratio:.2}x the plain compiled \
             tier (target: within ~2x) — rerun on an idle machine before treating this as \
             a regression"
        );
    }
    // Guarded statecharts ride the compiled-EFSM tier; their batch
    // dispatch must stay in its cost class — tracked against the
    // kernel-batched EFSM row (`efsm_kernel`, the same bucketed sweep
    // the facade routes `deliver_all` through), the closest
    // like-for-like loop. A wall-clock ratio between rows, so it warns
    // rather than hard-failing the gate (the zero-alloc assert above
    // *is* hard).
    let hsm_guarded_ratio = by_name("hsm_guarded_flattened") / by_name("efsm_kernel");
    println!("hsm_guarded_flattened vs efsm_kernel: {hsm_guarded_ratio:.2}x");
    if hsm_guarded_ratio > 1.5 {
        eprintln!(
            "warning: guarded-statechart dispatch is {hsm_guarded_ratio:.2}x the batched \
             compiled-EFSM tier (target: within ~1.5x) — rerun on an idle machine before \
             treating this as a regression"
        );
    }
    // The state-minimization gate: a provably-equivalent quotient must
    // never make dispatch slower — both machines walk the same dense
    // tables, the quotient's are just smaller. Hard-failed on the
    // paired best-of ratio with a small noise allowance (the loops are
    // identical code on tables that both fit in L1, so anything beyond
    // a few percent is a real regression, not drift).
    println!(
        "hsm_minimized vs unminimized:        {minimized_ratio:.3}x ({} -> {} states)",
        ring_stats.states_before, ring_stats.states_after
    );
    assert!(
        minimized_ratio <= 1.05,
        "minimized ring dispatch is {minimized_ratio:.3}x the unminimized original \
         (gate: <= 1.05x, paired passes; the quotient must not cost anything)"
    );
    // The batch-kernel gates: bucketed branchless stepping must beat
    // the scalar per-session walk on a single core — ≥ 1.25× for the
    // dense tier, ≥ 1.4× for the EFSM tier, where the kernel also
    // replaces per-session guard dispatch with masked column compares.
    // Hard-failed on the paired best-of ratios computed above: the
    // kernels' only reason to exist is this win, and the paired
    // alternating passes make the measurement drift-proof enough to
    // gate on.
    println!("batched_kernel vs scalar (paired):   {batched_kernel_ratio:.3}x");
    assert!(
        batched_kernel_ratio >= 1.25,
        "dense batch kernel is only {batched_kernel_ratio:.3}x the scalar walk \
         (gate: >= 1.25x, paired passes at {POOL_SESSIONS} sessions)"
    );
    println!("efsm_kernel vs scalar (paired):      {efsm_kernel_ratio:.3}x");
    assert!(
        efsm_kernel_ratio >= 1.4,
        "EFSM batch kernel is only {efsm_kernel_ratio:.3}x the scalar walk \
         (gate: >= 1.4x, paired passes at {POOL_SESSIONS} sessions)"
    );
    // The facade-overhead gate: serving 64k sessions through the
    // `Spec → Engine → Runtime` facade must stay within 10% of raw
    // dense-table stepping. Wall-clock ratios between rows measured
    // minutes apart flake on this shared box (row timings drift by tens
    // of percent between runs), so the gate re-measures the two loops
    // as *paired alternating passes* — drift hits both sides equally —
    // and hard-fails on the best-of ratio: if the facade ever grows a
    // hidden per-delivery cost, this is where it surfaces.
    let facade_overhead = {
        let mut raw_states = vec![start_state; SHARDED_SESSIONS];
        let mut raw_pass = || {
            let mut transitions = 0u64;
            for _ in 0..sharded_rounds {
                for &id in &ids {
                    for state in &mut raw_states {
                        if let Some((target, _)) = compiled.step(*state, id) {
                            *state = target;
                            transitions += 1;
                        }
                    }
                }
                raw_states.fill(start_state);
            }
            transitions
        };
        let mut facade = facade_engine.runtime_with(SHARDED_SESSIONS);
        let facade_pass = |facade: &mut stategen_runtime::Runtime| {
            let mut transitions = 0u64;
            for _ in 0..sharded_rounds {
                for &id in &ids {
                    transitions += facade.deliver_all(id);
                }
                facade.reset_all();
            }
            transitions
        };
        std::hint::black_box(raw_pass());
        std::hint::black_box(facade_pass(&mut facade));
        let mut raw_best = f64::INFINITY;
        let mut facade_best = f64::INFINITY;
        for _ in 0..5 {
            let start = Instant::now();
            std::hint::black_box(raw_pass());
            raw_best = raw_best.min(start.elapsed().as_nanos() as f64);
            let start = Instant::now();
            std::hint::black_box(facade_pass(&mut facade));
            facade_best = facade_best.min(start.elapsed().as_nanos() as f64);
        }
        facade_best / raw_best
    };
    println!("runtime_facade vs raw (paired):      {facade_overhead:.3}x");
    assert!(
        facade_overhead <= 1.10,
        "runtime facade dispatch is {facade_overhead:.3}x raw compiled dispatch \
         (gate: <= 1.10x, paired passes at 64k sessions)"
    );
    // The observability gate: with a flight recorder attached — every
    // transition written into the per-shard ring, every batch timed
    // into the latency histogram — the same 64k-session work must stay
    // within 25% of the unobserved facade, at zero steady-state
    // allocations (asserted on the `runtime_observed` row above). Same
    // paired-alternating-pass discipline as the facade gate: drift on
    // this shared box hits both sides equally, and the best-of ratio
    // isolates the real per-transition recording cost.
    let observed_overhead = {
        let batch_pass = |rt: &mut stategen_runtime::Runtime| {
            let mut transitions = 0u64;
            for _ in 0..sharded_rounds {
                for &id in &ids {
                    transitions += rt.deliver_all(id);
                }
                rt.reset_all();
            }
            transitions
        };
        let mut plain = facade_engine.runtime_with(SHARDED_SESSIONS);
        let mut observed = facade_engine.runtime_with(SHARDED_SESSIONS);
        observed.attach_recorder(256);
        std::hint::black_box(batch_pass(&mut plain));
        std::hint::black_box(batch_pass(&mut observed));
        let mut plain_best = f64::INFINITY;
        let mut observed_best = f64::INFINITY;
        for _ in 0..5 {
            let start = Instant::now();
            std::hint::black_box(batch_pass(&mut plain));
            plain_best = plain_best.min(start.elapsed().as_nanos() as f64);
            let start = Instant::now();
            std::hint::black_box(batch_pass(&mut observed));
            observed_best = observed_best.min(start.elapsed().as_nanos() as f64);
        }
        observed_best / plain_best
    };
    println!("runtime_observed vs facade (paired): {observed_overhead:.3}x");
    assert!(
        observed_overhead <= 1.25,
        "observed runtime dispatch is {observed_overhead:.3}x the unobserved facade \
         (gate: <= 1.25x, paired passes at 64k sessions with a live flight recorder)"
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"machine\": \"{}\",", machine.name());
    let _ = writeln!(json, "  \"states\": {},", machine.state_count());
    let _ = writeln!(json, "  \"efsm_states\": {},", compiled_efsm.state_count());
    let _ = writeln!(json, "  \"trace_len\": {},", TRACE.len());
    let _ = writeln!(json, "  \"pool_sessions\": {POOL_SESSIONS},");
    let _ = writeln!(json, "  \"sharded_sessions\": {SHARDED_SESSIONS},");
    let _ = writeln!(
        json,
        "  \"hardware_threads\": {},",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let _ = writeln!(json, "  \"efsm_compiled_speedup\": {efsm_speedup:.3},");
    let _ = writeln!(json, "  \"hsm_flattened_vs_compiled\": {hsm_ratio:.3},");
    let _ = writeln!(
        json,
        "  \"hsm_guarded_vs_efsm_kernel\": {hsm_guarded_ratio:.3},"
    );
    let _ = writeln!(
        json,
        "  \"batched_kernel_vs_scalar\": {batched_kernel_ratio:.3},"
    );
    let _ = writeln!(json, "  \"efsm_kernel_vs_scalar\": {efsm_kernel_ratio:.3},");
    let _ = writeln!(
        json,
        "  \"hsm_guarded_flat_states\": {guarded_flat_states},"
    );
    let _ = writeln!(
        json,
        "  \"runtime_facade_vs_raw_compiled\": {facade_overhead:.3},"
    );
    let _ = writeln!(
        json,
        "  \"runtime_observed_vs_facade\": {observed_overhead:.3},"
    );
    let _ = writeln!(
        json,
        "  \"hsm_flat_states\": {},",
        compiled_lifecycle.state_count()
    );
    let _ = writeln!(
        json,
        "  \"hsm_minimized_states_before\": {},",
        ring_stats.states_before
    );
    let _ = writeln!(
        json,
        "  \"hsm_minimized_states_after\": {},",
        ring_stats.states_after
    );
    let _ = writeln!(
        json,
        "  \"hsm_minimized_vs_unminimized\": {minimized_ratio:.3},"
    );
    json.push_str("  \"tiers\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"ns_per_delivery\": {:.3}, \"speedup_vs_interpreted_name\": {:.3}, \"allocs_per_delivery\": {:.6}}}{}",
            r.name,
            r.ns_per_delivery,
            baseline / r.ns_per_delivery,
            r.allocs_per_delivery,
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine_tiers.json");
    std::fs::write(&path, &json).expect("write BENCH_engine_tiers.json");
    println!("wrote {}", path.display());
}
