#!/usr/bin/env bash
# Fleet-scale fault soak: generates 200 fleets (single groups plus
# two-group fleets coupled by cross-network interference) with mixed
# scripted fault schedules, runs every cell with per-round invariant
# checks, re-runs each cell to confirm bitwise reproducibility from
# (seed, schedule), and writes BENCH_soak.json. Exits non-zero — failing
# CI — on any invariant violation; every violation prints a one-line
# repro command. Other plans: `uw_soak --fleets N --seed N`.
#
# Usage: ./scripts/soak.sh [report.json]
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-BENCH_soak.json}"

cargo run --release -p uw-eval --bin uw_soak -- \
    --fleets 200 --seed 1 --out "$out"

# The sabotage self-test: a deliberately injected NaN must be caught and
# reported (exit 1). This proves the invariant checker itself works.
if cargo run --release -q -p uw-eval --bin uw_soak -- \
    --fleets 3 --sabotage nan > /dev/null 2>&1; then
    echo "soak.sh: sabotage run was NOT caught — invariant checker is broken" >&2
    exit 1
fi
echo "sabotage self-test: injected NaN caught as expected"
