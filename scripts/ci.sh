#!/usr/bin/env sh
# Tier-1 gate for the Baryon reproduction.
#
# The workspace is hermetic: it has zero external dependencies, so every
# step below runs with `--offline` and must succeed on a machine with no
# network and an empty crates.io cache. Adding a dependency that breaks
# this is a build regression.
#
# Usage: scripts/ci.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo build --release --offline"
cargo build --release --workspace --offline

# The full suite includes two contracts worth naming:
#  - baryon-serve end-to-end (serve/tests/e2e.rs): an ephemeral-port
#    server must accept a job, backpressure a burst, and return results
#    byte-identical to a direct in-process run;
#  - chaos fault injection (core/tests/chaos_faults.rs): the controller
#    under aggressive seeded fault injection (transient flips + stuck cells
#    far beyond any real part). The seeds are fixed in the test source, so
#    a failure there is a real regression in the recovery path,
#    reproducible bit-for-bit — never flake.
echo "==> cargo test -q --offline"
cargo test -q --workspace --offline

# Fleet-core property gate: the coordinator's dispatch state machine
# (crates/fleet/src/fleet_core.rs) driven through 1024 arbitrary
# interleavings of admissions, cancels, pauses, quarantines, rollouts and
# a fake shard that settles, fails, loses, dies and finishes under a
# staged generation. Every admitted job must settle exactly once with the
# in-order gather of its cells, no rolled-back result may be gathered,
# queue depths, quotas and in-flight counts must stay exact, and no cell
# may reach a paused or quarantined shard. `cargo test` above runs the
# same suite at the default case count.
echo "==> fleet-core property gate (1024 interleavings)"
BARYON_PROP_CASES=1024 cargo test -q -p baryon-fleet --release --offline --test fleet_core_props

# Serve-core property gate: a shard's job state machine
# (crates/serve/src/serve_core.rs) driven through 1024 arbitrary
# interleavings of boot-time recovery, reservations that land, are refused
# or fail to journal, workers starting, publishing and finishing jobs,
# deadlines abandoning runners whose late results then arrive, cancels
# and a close. The queue must stay exactly the queued jobs in ID order,
# every job must settle exactly once with exactly one journaled Finish or
# Cancel, the counters must match the settles, retention must evict the
# oldest settle first, no settled job may keep a progress snapshot, and a
# closed, drained core must yield no work. `cargo test` above runs the
# same suite at the default case count.
echo "==> serve-core property gate (1024 interleavings)"
BARYON_PROP_CASES=1024 cargo test -q -p baryon-serve --release --offline --test serve_core_props

# Crash-recovery gate: SIGKILL a serving process mid-run (after its job
# has written a checkpoint into the journal directory), restart a server
# on the same journal, and require the recovered job to finish with the
# byte-identical result of an uninterrupted run. The harness is a single
# self-contained binary (it forks itself as the server child), so the
# gate needs no curl, fixed ports, or startup sleeps.
echo "==> serve kill-and-resume gate"
cargo run --release -p baryon-serve --bin kill_resume --offline

# Determinism gate: the `threads` knob is a pure host-side throughput
# lever. Runs with 8 worker threads must be byte-identical to the
# single-threaded run — full result JSON and non-span telemetry — and a
# checkpoint cut inside a parallel run must resume to the same bytes.
echo "==> parallel determinism gate (threads 1 vs 8)"
cargo test -q -p baryon-bench --release --offline --test parallel_determinism

# Hot-path oracle: every controller on every registry workload must hash
# to the goldens blessed before the data-oriented refactor. Any
# behaviour drift in the arena/memo/SoA structures fails here first.
echo "==> differential golden gate (10 controllers x 17 workloads)"
cargo test -q -p baryon-bench --release --offline --test differential_golden

# Figure oracle: every paper figure, run as its list of run specs through
# the one in-process runner and reduced to rows, must reproduce the CSV
# blessed in crates/bench/tests/fixtures/figures/.
echo "==> figure golden gate (every figure's CSV at small settings)"
cargo test -q -p baryon-bench --release --offline --test figure_goldens

# Figure command gate: every table and figure through `baryon-cli figure`
# at quick settings into a scratch directory. The rendered report.md must
# have no section left "not yet generated".
echo "==> figure command (every figure, quick settings)"
tmp=$(mktemp -d)
cargo run --release -q -p baryon-cli --offline -- figure --id all --quick true \
    --insts 3000 --warmup 500 --scale 2048 --out "$tmp" > "$tmp/figure.log"
if grep -q "not yet generated" "$tmp/report.md"; then
    echo "figure report has missing sections:" >&2
    grep -B4 "not yet generated" "$tmp/report.md" >&2
    exit 1
fi
rm -rf "$tmp"

# Fleet gate: one binary, three scenarios, each on a fresh coordinator
# over 3 real shard processes (the binary re-invoked as its own shards).
# No cell has a home shard: each runs on whichever shard's worker pulls it.
#  - kill: SIGKILL a shard while a batched grid sweep is in flight; the
#    supervisor must restart it, the gathered result must be byte-identical
#    to a single-process run, the event stream's progress monotonic, and
#    /v1/metrics must report every shard under its shard<i>. namespace.
#  - rollout: a bad policy is refused (400 invalid_config); a degraded-
#    but-valid one (1 ms job deadline) committed mid-sweep must fail its
#    canary and auto-roll back (409 rollout_failed, slot marked bad, zero
#    lost jobs, byte-identical gather); a benign policy must commit (its
#    generation stamped into results and every shard's metrics) and roll
#    back clean; a commit that fails mid-roll must quarantine the results
#    that landed during it and re-dispatch them byte-identical.
#  - chaos: seeded fault injection on every shard (torn/failed journal
#    appends, silent post-write corruption, read flips, fsync failures,
#    post-CRC response flips) plus a forced crash loop: one shard must be
#    quarantined and the quarantined shard's in-flight singles fail over
#    to the healthy shards, rotten checkpoint rotations
#    must be quarantined down the fallback ladder to a cold run, and an
#    8-cell sweep over the degraded fleet must lose zero jobs and gather
#    byte-identical to a fault-free run. To reproduce a failure exactly,
#    re-run with the same seed and rates, e.g.
#      BARYON_CHAOS_SEED=42 BARYON_CHAOS_CORRUPT_PPM=20000 ... fleet_gate chaos
#    (every BARYON_CHAOS_*_PPM knob honors the environment; all default
#    off outside this scenario, so nothing else in CI sees injected faults).
# Run one scenario with `fleet_gate <kill|rollout|chaos>`.
echo "==> fleet gate (kill, rollout, chaos; 3 shards each)"
cargo run --release -p baryon-fleet --bin fleet_gate --offline

# Benchmark gate: the perf/ workspace's fmt, clippy and tests, then a
# quick traced run of all four workloads. Its fleet-trivial workload
# checks that every job through a live 2-shard fleet is accepted,
# finishes, and equals the in-process execute.
echo "==> benchmark package (perf/check.sh)"
bash perf/check.sh

# Throughput + telemetry overhead gate: the sim-throughput harness runs
# a small workload matrix twice (spans off / spans on) and fails when
# enabling telemetry costs more than 5% aggregate wall-clock (override
# with BARYON_BENCH_MAX_OVERHEAD_PCT) or when any workload drops below
# its per-workload ops/sec regression floor (scale the floors with
# BARYON_BENCH_FLOOR_SCALE on slow hosts). It also refreshes the
# profiling document BENCH_sim_throughput.json at the repository root.
echo "==> bench: sim-throughput (regression floors + telemetry overhead gate)"
cargo run --release -p baryon-fleet --bin sim_throughput --offline

# Metadata footprint gate: runs the registry through baryon (flat remap
# table), hybrid2, and trimma (multi-level remap) with telemetry on,
# refreshes BENCH_metadata.json at the repository root (footprint bytes,
# remap-walk span time, hot-level hit latency/rate per workload), and
# fails when trimma's live footprint stops undercutting the flat table
# on a majority of workloads (override with BARYON_METADATA_MIN_WINS).
echo "==> bench: metadata footprint (trimma vs flat regression gate)"
cargo run --release -p baryon-bench --bin metadata_report --offline

echo "==> OK"
