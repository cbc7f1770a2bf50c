#!/usr/bin/env bash
# Repo verification: tier-1 gate plus lint, doc and benchmark gates.
#
#   scripts/verify.sh
#
# 1. builds the whole workspace in release mode, and the benchmark of
#    record (perfbench/, a workspace of its own), so a library API
#    change that breaks the benchmark fails verification;
# 2. runs every test (default-members covers all crates) — this
#    includes the HSM property suite (crates/core/tests/hsm_props.rs),
#    the guarded-statechart property suite
#    (crates/runtime/tests/hsm_guarded_props.rs: HsmInstance ≡
#    interpreted IR ≡ compiled EFSM ≡ Runtime on randomized guarded
#    statecharts), the flattening compiler's trace-equivalence gate,
#    and the runtime facade's cross-tier conformance suite
#    (crates/runtime/tests/conformance.rs);
# 3. lints the whole workspace (clippy, warnings denied), checks
#    formatting (rustfmt) and builds the docs with rustdoc warnings
#    denied (broken intra-doc links fail the gate);
# 4. regenerates BENCH_engine_tiers.json via the engine_tiers binary,
#    which also asserts the zero-allocation claims (including the new
#    hsm_guarded_flattened row: a guarded statechart on the
#    compiled-EFSM tier, 64k sessions, 0 allocs/delivery hard-asserted,
#    tracked within ~1.5x of the batched compiled-EFSM row), the batch
#    kernel gates — batched_kernel ≥ 1.25x the scalar pool walk and
#    efsm_kernel ≥ 1.4x the scalar EFSM walk, paired passes at 4096
#    sessions, 0 allocs/delivery (docs/KERNELS.md) — and the telemetry
#    overhead bounds — runtime_facade ≤ 1.10x raw compiled
#    dispatch with telemetry compiled in but disabled, and
#    runtime_observed (flight recorder + metrics on) ≤ 1.25x the
#    facade, both at 64k sessions / 0 allocs per delivery, paired
#    measurement — and BENCH_storage.json via storage_throughput
#    (end-to-end commit throughput on the EFSM-tier runtime-backed
#    peers, with commit-latency p99 per replication factor and
#    recovery-latency p50/p99 on the faulted row) — keeping the perf
#    trajectory tracked on every PR;
# 5. replays the chaos campaign's pinned seeds (loss + duplication +
#    reordering + a peer crash/restart recovering from its checkpoint,
#    full agreement asserted), the artifact corruption campaign's
#    pinned seeds (truncation at every prefix, every single-bit flip,
#    seeded multi-bit flips and cross-artifact splices — the loader
#    must reject, never panic) and the fleet-rollout campaign's pinned
#    seeds (drain-and-switch hot-swap with mid-swap crash recovery),
#    so the crash-safety and deployment guarantees are exercised on
#    every verification run, not just in CI roulette;
# 6. runs the static-analyzer corpus sweep at deny level: every model
#    machine in the workspace goes through `stategen-analysis` and none
#    may carry a deny-level finding, and minimization must stay
#    observation-equivalent and idempotent on the whole corpus (the
#    engine_tiers run additionally hard-gates the hsm_minimized row:
#    the ring quotient must be smaller, allocation-free, and no slower
#    than the unminimized original in paired passes);
# 7. fails if the benchmark artefacts are missing required rows
#    (including the runtime_facade, runtime_facade_sharded_4,
#    work_stealing_4, artifact_cold_load, hsm_minimized and
#    storage_faulted rows).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== cargo build perfbench (the benchmark of record builds against the library APIs) =="
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "== cargo test -q (includes the HSM property + facade conformance suites) =="
cargo test -q

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo doc --workspace --no-deps (rustdoc warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== engine_tiers (regenerates BENCH_engine_tiers.json) =="
cargo run --release -p repro-bench --bin engine_tiers

echo "== storage_throughput (regenerates BENCH_storage.json) =="
cargo run --release -p repro-bench --bin storage_throughput

echo "== chaos campaign: pinned-seed replay (crash/restart + full agreement) =="
cargo test -q --release -p asa-storage --test chaos chaos_pinned_seed

echo "== artifact corruption campaign: pinned-seed replay (loader rejects, never panics) =="
cargo test -q --release -p stategen-core --test artifact_props artifact_corruption_pinned

echo "== fleet-rollout campaign: pinned-seed replay (hot-swap + mid-swap crash recovery) =="
cargo test -q --release -p asa-storage --test rollout rollout_pinned_seed

echo "== analyzer corpus sweep: every model machine deny-clean, minimization equivalent =="
cargo test -q --release -p stategen-analysis --test corpus

echo "== benchmark artefact checks =="
for row in interpreted_name compiled hsm_flattened hsm_guarded_flattened \
           hsm_unminimized hsm_minimized \
           batched_pool batched_kernel efsm_pool efsm_kernel efsm_compiled \
           artifact_cold_load artifact_booted_pool \
           work_stealing_4 generated \
           runtime_facade runtime_facade_sharded_4 runtime_observed; do
    grep -q "\"name\": \"$row\"" BENCH_engine_tiers.json \
        || { echo "BENCH_engine_tiers.json is missing the $row row" >&2; exit 1; }
done
for r in 4 7 10; do
    grep -q "\"replication_factor\": $r" BENCH_storage.json \
        || { echo "BENCH_storage.json is missing the r=$r run" >&2; exit 1; }
done
grep -q '"storage_faulted"' BENCH_storage.json \
    || { echo "BENCH_storage.json is missing the storage_faulted row" >&2; exit 1; }

echo "verify.sh: all green"
