#!/usr/bin/env bash
# Smoke test for the live control plane: boots `cloudmedia serve`
# against a freshly generated trace at high time compression, scrapes
# /healthz and /metrics while the run is in flight, and requires a
# clean drain with a final report. About two real seconds of serving.
# Then pipes the same trace through the stdin line protocol at full
# speed, which must drain cleanly and report the run a -trace replay of
# that trace reports. Wired into CI; run locally as
# ./scripts/serve_smoke.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${SERVE_SMOKE_ADDR:-127.0.0.1:39510}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

go build -o "$WORK/cloudmedia" ./cmd/cloudmedia

"$WORK/cloudmedia" trace gen -kind diurnal -channels 3 -hours 6 -step 1800 -o "$WORK/trace.csv"

# 6 simulated hours at 10800x pace out in ~2 real seconds.
"$WORK/cloudmedia" serve -trace "$WORK/trace.csv" -hours 6 -fidelity fluid \
    -time-scale 10800 -metrics "$ADDR" > "$WORK/serve.log" &
SERVE_PID=$!

# The daemon needs a beat to bind; poll /healthz until it answers.
up=""
for _ in $(seq 1 50); do
    if curl -fsS "http://$ADDR/healthz" 2>/dev/null | grep -q ok; then
        up=1
        break
    fi
    sleep 0.1
done
if [ -z "$up" ]; then
    echo "serve_smoke: /healthz never came up on $ADDR" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
fi

# Scrape the exposition mid-run: the core gauges must be present and
# the clock must be moving.
curl -fsS "http://$ADDR/metrics" > "$WORK/metrics.txt"
for metric in cloudmedia_up cloudmedia_sim_seconds cloudmedia_viewers \
    cloudmedia_cost_usd_total cloudmedia_cost_usd_per_hour; do
    grep -q "^$metric" "$WORK/metrics.txt" || {
        echo "serve_smoke: $metric missing from /metrics" >&2
        exit 1
    }
done
curl -fsS "http://$ADDR/state" | grep -q '"sim_seconds"' || {
    echo "serve_smoke: /state did not return the live state" >&2
    exit 1
}

# The run must drain cleanly and report what it served.
wait "$SERVE_PID"
grep -q "served 6.00 sim-hours" "$WORK/serve.log" || {
    echo "serve_smoke: final report missing from output:" >&2
    cat "$WORK/serve.log" >&2
    exit 1
}

# The stdin ingress: the trace as a live feed, drained before a
# simulated-clock run, is the trace itself, so the run's report lines
# (rounds, quality, bill) must equal a -trace replay's.
for src in stdin trace; do
    args=(-trace "$WORK/trace.csv")
    [ "$src" = stdin ] && args=(-stdin -channels 3)
    "$WORK/cloudmedia" serve "${args[@]}" -clock simulated -fidelity fluid -hours 6 \
        < "$WORK/trace.csv" > "$WORK/$src.log"
    grep -q "served 6.00 sim-hours" "$WORK/$src.log" || {
        echo "serve_smoke: -$src run did not serve 6 sim-hours:" >&2
        cat "$WORK/$src.log" >&2
        exit 1
    }
done
if ! diff <(grep -E '^(intervals|bill)' "$WORK/stdin.log") <(grep -E '^(intervals|bill)' "$WORK/trace.log") >&2; then
    echo "serve_smoke: the stdin feed and the -trace replay of one trace reported different runs" >&2
    exit 1
fi

echo "serve_smoke: ok ($(grep '^served' "$WORK/serve.log"); stdin feed matches the -trace replay)"
