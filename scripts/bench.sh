#!/usr/bin/env bash
# Runs the key benchmarks, writes a machine-readable BENCH_PR<N>.json
# snapshot so the perf trajectory is tracked across PRs (earlier
# snapshots stay committed as baselines), and gates it with
# scripts/benchgate against the newest committed snapshot. CI and
# `make bench` run it.
#
#   ./scripts/bench.sh [OUT]
#
# The baseline is the committed BENCH_PR<N>.json with the highest N other
# than OUT; OUT defaults to BENCH_PR<N+1>.json. Nothing needs editing
# when a new snapshot is committed.
set -euo pipefail
cd "$(dirname "$0")/.."

snapshots() {
    { git ls-files 'BENCH_PR*.json' 2>/dev/null || ls BENCH_PR*.json; } |
        sed -n 's/^BENCH_PR\([0-9][0-9]*\)\.json$/\1/p' | sort -n
}
latest="$(snapshots | tail -n 1)"
if [ -z "$latest" ]; then
    echo "bench.sh: no committed BENCH_PR*.json baseline" >&2
    exit 1
fi
OUT="${1:-BENCH_PR$((latest + 1)).json}"
BASE="$(snapshots | sed 's/.*/BENCH_PR&.json/' | { grep -vxF "$OUT" || true; } | tail -n 1)"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

# Every bench runs -count=3 at a fixed -benchtime and the JSON keeps the
# FASTEST of the three samples per benchmark. Host noise on shared
# runners (CPU steal, scheduler jitter) is strictly additive — it only
# ever makes a sample slower — so min-of-N converges on the true cost
# while a single draw can land 30-60% high and trip the regression gate
# on untouched code. Holding -benchtime fixed keeps per-iteration
# amortization identical across snapshots; only the sampling changed.

# Full-stack scale and throughput benches (root package): one iteration
# each is enough — they are multi-second, domain-metric-reporting runs.
# RegionalDay is the multi-region deployment (internal/geo) with one
# outage, run as the regional experiment runs it.
go test -run '^$' -bench 'BenchmarkFluidMillionViewers$|BenchmarkFluid10MViewers|BenchmarkFluid100MViewers|BenchmarkEventParallelChannels|BenchmarkSweep3x3$|BenchmarkResilienceDay$|BenchmarkRegionalDay$' \
    -benchtime 1x -count=3 . | tee -a "$TMP"

# Solver benches are sub-millisecond: a single iteration is all warm-up
# jitter, so give them enough rounds for a stable ns/op. QueueingSolve
# runs at the paper's load and at a 100M-day peak channel's;
# DeriveDemand is the demand plane's per-channel derivation at the
# minute-interval control day's small loads; SizeForSojourn is the M/M/m
# sizing search alone at a = 10, 1e3, 1e5.
go test -run '^$' -bench 'BenchmarkQueueingSolve$|BenchmarkP2PSolve$|BenchmarkDeriveDemand$' \
    -benchtime 100x -count=3 . | tee -a "$TMP"
go test -run '^$' -bench 'BenchmarkSizeForSojourn$' -benchtime 20000x -count=3 ./internal/mathx | tee -a "$TMP"

# Hot-path micro benches: enough iterations for stable ns/op and the
# allocs/op guard to mean something.
go test -run '^$' -bench 'BenchmarkRebalancePeers$' -benchtime 2000x -count=3 ./internal/sim | tee -a "$TMP"
# ChannelClock is one channel's event queue in the control day's shape:
# eight pool-head timers, the arrival, the jump clock and a play-end lane.
go test -run '^$' -bench 'BenchmarkChannelClock$' -benchtime 200000x -count=3 ./internal/sim | tee -a "$TMP"
# FluidStep is the fluid kernel alone: one batch (900 s of steps at the
# engine's own step) of the 100M-viewer day's 48 channels at its
# evening-peak state, on the day's 8-chunk channel (J=8) and a 16-chunk
# one (J=16), with ns/chunk-step and ns/sim-s metrics.
go test -run '^$' -bench 'BenchmarkFluidStep$' -benchtime 50x -count=3 ./internal/fluid | tee -a "$TMP"

# Control-path benches: plans/s per provisioning policy and the billing
# ledger's accrual rate. PolicyPlan and ControlRound also record B/op and
# allocs/op: what a round allocates is what it hands out.
go test -run '^$' -bench 'BenchmarkPolicyPlan' -benchtime 200x -benchmem -count=3 ./internal/provision | tee -a "$TMP"
go test -run '^$' -bench 'BenchmarkLedgerAccrual$' -benchtime 5000x -count=3 ./internal/cloud | tee -a "$TMP"
# BrokerApply is the 100M-viewer day's cloud side: 25 hourly rounds on
# two 4.2M-VM clusters, each the one submit the controller issues, with
# an ns/submit metric.
go test -run '^$' -bench 'BenchmarkBrokerApply$' -benchtime 2000x -count=3 ./internal/cloud | tee -a "$TMP"
# ControlRound is one steady minute round of the control day's
# controller: snapshot, forecasts, derivation, hedged lookahead plan,
# apply.
go test -run '^$' -bench 'BenchmarkControlRound$' -benchtime 500x -benchmem -count=3 ./internal/core | tee -a "$TMP"
# DeriveDemandSteady is DeriveDemand on one reused deriver, the steady,
# allocation-free derivation the controller runs.
go test -run '^$' -bench 'BenchmarkDeriveDemandSteady$' -benchtime 2000x -count=3 ./internal/core | tee -a "$TMP"

# Convert `go test -bench` lines into JSON, keeping the fastest of the
# -count samples for each benchmark (see the noise note above):
#   BenchmarkX-8  20  713 ns/op  0 B/op  0 allocs/op  4.2 quality
# → {"name":"X","iterations":20,"metrics":{"ns/op":713,...}}
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
BEGIN { n = 0 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    sub(/^Benchmark/, "", name)
    ns = ""
    out = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"metrics\": {", name, $2)
    sep = ""
    for (i = 3; i + 1 <= NF; i += 2) {
        out = out sprintf("%s\"%s\": %s", sep, $(i + 1), $i)
        if ($(i + 1) == "ns/op") ns = $i + 0
        sep = ", "
    }
    out = out "}}"
    if (!(name in best)) {
        order[n++] = name
        best[name] = ns
        lines[name] = out
    } else if (ns != "" && ns < best[name]) {
        best[name] = ns
        lines[name] = out
    }
}
END {
    printf "{\n  \"generated\": \"%s\",\n  \"benchmarks\": [\n", date
    for (i = 0; i < n; i++) printf "%s%s\n", lines[order[i]], (i + 1 < n ? "," : "")
    printf "  ]\n}\n"
}' "$TMP" > "$OUT"

echo "wrote $OUT"

if [ -z "$BASE" ]; then
    echo "bench.sh: no baseline other than $OUT; gate skipped" >&2
    exit 0
fi
go run ./scripts/benchgate "$BASE" "$OUT"
