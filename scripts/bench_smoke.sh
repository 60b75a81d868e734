#!/usr/bin/env bash
# Build Release, run the training-throughput bench for a few seconds,
# and leave BENCH_train_throughput.json at the repo root.
set -euo pipefail

cd "$(dirname "$0")/.."

cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j --target bench_train_throughput bench_serve

# No explicit iteration count: the bench auto-calibrates on the
# 1-thread batched row, so the whole run stays in the seconds range.
./build/bench_train_throughput BENCH_train_throughput.json

echo "bench_smoke: wrote $(pwd)/BENCH_train_throughput.json"
# Summary for CI logs: cores seen by the bench, the converged
# occupancy fraction, and the per-mode speedups, so flat thread
# scaling on a 1-core runner is visibly a host limitation rather than
# a regression.
grep '"hardware_concurrency"' BENCH_train_throughput.json
grep -o '"occupied_fraction": [0-9.]*' BENCH_train_throughput.json | sort -u
sed -n '/"speedups"/,/}/p' BENCH_train_throughput.json

# Regression gate: the sparse touched-entry optimizer must not be
# slower than the dense full-table-scan baseline on the converged-grid
# workload (steady-state value is ~2-3x on the CI container; 1.0 is
# the hard floor).
sparse=$(grep -o '"sparse_vs_dense_optimizer": [0-9.]*' \
             BENCH_train_throughput.json | awk '{print $2}')
awk -v s="$sparse" 'BEGIN {
    if (s == "" || s + 0 < 1.0) {
        print "bench_smoke: FAIL sparse_vs_dense_optimizer=" s " < 1.0"
        exit 1
    }
    print "bench_smoke: sparse_vs_dense_optimizer=" s " (>= 1.0 ok)"
}'

# Regression gate: the vectorized MLP forward-panel kernel must not
# lose to a copy of the per-sample reference loop timed in the bench
# (measured ~2x on the SSE2 baseline build; 1.0 is the hard floor).
# Parity is the tests' job: the batched kernels match the per-sample
# references bitwise without FMA and to 1e-5 relative with it
# (tests/test_kernels.cc).
simd=$(grep -o '"simd_vs_scalar_kernels": [0-9.]*' \
           BENCH_train_throughput.json | awk '{print $2}')
awk -v s="$simd" 'BEGIN {
    if (s == "" || s + 0 < 1.0) {
        print "bench_smoke: FAIL simd_vs_scalar_kernels=" s " < 1.0"
        exit 1
    }
    print "bench_smoke: simd_vs_scalar_kernels=" s " (>= 1.0 ok)"
}'
# Anchored to the block's own 2-space close so the nested one-line
# objects inside don't end the range early.
sed -n '/"kernels"/,/^  },/p' BENCH_train_throughput.json

# Render-serving bench: trains one tiny scene and measures the three
# serving ratio gates below. Serving latency under load is perfbench's
# job; the serving completion properties (degradation, failover under
# a shard crash, an overcommitted scene working set) are tier-1 tests.
./build/bench_serve BENCH_serve_latency.json

echo "bench_smoke: wrote $(pwd)/BENCH_serve_latency.json"

# Regression gate: the served pipeline must stay within 10% of the
# single-client renderImage rate at one worker (0.9 is the hard floor
# -- below that the serving layer is eating its batching win in
# scheduling overhead). The two arms run on strictly alternating
# frames and compare minimum frame times, so host drift hits both.
served=$(grep -o '"served_vs_renderImage_1t": [0-9.]*' \
             BENCH_serve_latency.json | awk '{print $2}')
awk -v s="$served" 'BEGIN {
    if (s == "" || s + 0 < 0.9) {
        print "bench_smoke: FAIL served_vs_renderImage_1t=" s " < 0.9"
        exit 1
    }
    print "bench_smoke: served_vs_renderImage_1t=" s " (>= 0.9 ok)"
}'
grep -E '"(baseline_renderimage|served_closed_loop)_1t"' \
    BENCH_serve_latency.json

# Regression gate: the orbiting Preview viewer on the coarse 1/64
# camera lattice must serve at least half its tiles from the
# cross-frame tile cache (measured ~0.7 on the CI container --
# consecutive frames collapse onto shared lattice cells and the
# speculative prefetcher fills the next cell during frame gaps).
# prefetch_hit_rate / prefetch_waste are recorded for trend-watching,
# not gated -- closed-loop pacing decides how much speculation lands.
orbit=$(grep -o '"orbit_preview_hit_rate": [0-9.]*' \
            BENCH_serve_latency.json | awk '{print $2}')
awk -v s="$orbit" 'BEGIN {
    if (s == "" || s + 0 < 0.5) {
        print "bench_smoke: FAIL orbit_preview_hit_rate=" s " < 0.5"
        exit 1
    }
    print "bench_smoke: orbit_preview_hit_rate=" s " (>= 0.5 ok)"
}'
grep -o '"prefetch_hit_rate": [0-9.]*' BENCH_serve_latency.json
grep -o '"prefetch_waste": [0-9]*' BENCH_serve_latency.json
sed -n '/"orbit"/,/^  },/p' BENCH_serve_latency.json

# Regression gate: the telemetry layer (metrics + span tracing) must
# cost at most 2% of closed-loop serving throughput against the same
# path with recording disabled (measured ~0% on the CI container --
# the disarmed/armed delta is a handful of relaxed atomics and a few
# span appends per request). The gated value is the median over
# blocks of alternating enabled/disabled frames; each block's value
# is recorded too. The block also records the mergeable histogram's
# p50/p95/p99 against the exact tracker over every enabled frame;
# within_one_bucket asserts the documented fidelity bound.
grep -q '"telemetry"' BENCH_serve_latency.json || {
    echo "bench_smoke: FAIL telemetry block missing"
    exit 1
}
telem=$(grep -o '"telemetry_overhead": [0-9.]*' \
            BENCH_serve_latency.json | awk '{print $2}')
awk -v s="$telem" 'BEGIN {
    if (s == "" || s + 0 > 0.02) {
        print "bench_smoke: FAIL telemetry_overhead=" s " > 0.02"
        exit 1
    }
    print "bench_smoke: telemetry_overhead=" s " (<= 0.02 ok)"
}'
grep -q '"within_one_bucket": true' BENCH_serve_latency.json || {
    echo "bench_smoke: FAIL histogram percentiles out of bucket bound"
    exit 1
}
sed -n '/"telemetry"/,/^  },/p' BENCH_serve_latency.json
