#!/usr/bin/env bash
# Benchmarks the async serving layer (uw-serve) against the batch rayon
# runner on an identical job set and records throughput (jobs/sec) and
# per-job latency percentiles (p50/p99, submit → terminal event) for
# several worker-pool sizes into BENCH_serve.json, next to
# BENCH_eval_matrix.json and BENCH_soak.json.
#
# Also runs the tenant-count × shard-count contention grid (I/O-waiting
# tenants, so shard counts separate on 1-core runners) and the fleet
# mode: 1200 simulated tenants over 16 loopback TCP connections and 4
# shards, asserting zero dropped jobs and byte-identical EvalReport
# reconstruction, and recording per-priority latency percentiles. The
# job set is 24 jobs of 4 rounds each; every size is a constant in
# crates/serve/src/bin/serve_bench.rs.
#
# Usage: ./scripts/serve_bench.sh [output.json]
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-BENCH_serve.json}"

cargo run --release -p uw-serve --bin serve_bench -- "$out"
