#!/usr/bin/env bash
# Benchmark regression gate: re-run the page-format experiment at the
# exact configuration of the committed baseline entry in
# results/dev/bench/data.js and fail when any metric shared with the
# newest committed entry slowed by more than 15%. `-exp batch` runs the
# DBLP D1-D10 joins over fixed pages (rows `.../fixed`) and over the
# default compressed pages (rows `.../batch`), both under the one set of
# slab join kernels. The committed file is copied to a scratch location
# first — CI never rewrites checked-in results — and pbibench appends
# the fresh run there before `-check` compares the two newest entries.
# Elapsed metrics are virtual disk time (deterministic page counts × a
# fixed per-access cost) plus wall CPU, and sub-100ms metrics are exempt
# from the gate (see internal/benchkit), so the check is stable across
# hosts: the D1-D10 mix aggregates carry it.
#
# Skips gracefully (exit 0 with a notice) when no baseline file exists
# yet, e.g. on a fresh fork. CI runs this via `make bench-regression`.
set -euo pipefail

baseline="results/dev/bench/data.js"
threshold="${BENCH_REGRESSION_PCT:-15}"

# These flags must match the ones the committed baseline was recorded
# with (they ride along in each entry's commit message): a
# buffer-constrained run where the virtual disk dominates elapsed time.
flags=(-exp batch -docscale 0.2 -buffer 128)

if [ ! -f "$baseline" ]; then
    echo "bench-regression: no baseline at $baseline — skipping (record one with: go run ./cmd/pbibench ${flags[*]} -json $baseline)"
    exit 0
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cp "$baseline" "$tmp/data.js"

echo "bench-regression: running pbibench ${flags[*]} against $baseline (threshold ${threshold}%)"
go run ./cmd/pbibench "${flags[@]}" -json "$tmp/data.js" -check "$threshold" >"$tmp/out.txt" || {
    status=$?
    tail -n 30 "$tmp/out.txt"
    exit "$status"
}
tail -n 3 "$tmp/out.txt"
