#!/bin/sh
# obs-smoke: the distributed-observability CI drill. dnsrun launches a
# four-process 2x2 DNS with tracing, a live endpoint and a status line, and
# so a fold of the world into rank 0, every two steps; while the run is in
# flight we scrape rank 0's /metrics and /status world dashboard and its
# /telemetry report, which must already cover all four ranks and carry a
# wire block. After the last step rank 0 folds in every
# rank's flight recorder and writes the one world trace, which must carry
# four rank tracks and cross-rank flow arrows and pass bench-validate -trace
# (per-track monotonicity plus flow referential integrity); no other rank
# writes one, and rank 0's report must carry the whole world's trace block.
set -eu
. scripts/lib.sh
smoke_init obs-smoke
$GO build -o "$dir/dns" ./cmd/dns
$GO build -o "$dir/dnsrun" ./cmd/dnsrun

# Enough steps that the run is still alive while we scrape mid-flight.
"$dir/dnsrun" -n 4 -bin "$dir/dns" -- -nx 16 -ny 17 -nz 16 -pa 2 -pb 2 \
    -steps 800 -listen 127.0.0.1:0 -stats-every 2 \
    -trace "$dir/dns.trace.json" -report "$dir/BENCH_obs.json" \
    > "$dir/run.out" 2>&1 &
pid=$!

# Rank 0 prints its live endpoint once it is listening.
endpoint_announced() {
    addr=$(sed -n 's|^\[rank 0\] telemetry endpoint: http://\([^/]*\)/.*|\1|p' "$dir/run.out")
    [ -n "$addr" ]
}
wait_for "telemetry endpoint" 300 "$dir/run.out" endpoint_announced

# Scrape the world dashboard mid-run: the first fold lands at the first
# status line, two steps in, so retry until per-rank step counters appear.
# Match an actual series sample ("{rank=...}"), not the # HELP line the
# endpoint serves before any rank has been heard.
rank_steps_scraped() {
    curl -sf "http://$addr/metrics" > "$dir/metrics.out" 2> /dev/null \
        && grep -q 'channeldns_rank_steps_total{' "$dir/metrics.out"
}
wait_for "rank step counters on /metrics" 300 "$dir/run.out" rank_steps_scraped
grep -q 'channeldns_world_size 4' "$dir/metrics.out"
grep -q 'channeldns_rank_wire_frames_out_total' "$dir/metrics.out"

curl -sf "http://$addr/status" > "$dir/status.out"
grep -q '"world": 4' "$dir/status.out"
grep -q '"heard": true' "$dir/status.out"

# Rank 0's live report covers the world mid-run: each fold carries every
# rank's collector and wire counters into rank 0's registry.
curl -sf "http://$addr/telemetry" > "$dir/telemetry.out"
grep -q '^  "ranks": 4,' "$dir/telemetry.out"
grep -q '^  "wire": {' "$dir/telemetry.out"

wait "$pid"

# One world file, written by rank 0 alone.
if ls "$dir"/dns.trace.json.rank* > /dev/null 2>&1; then
    echo "obs-smoke: a rank other than 0 wrote its own trace file" >&2
    exit 1
fi
tracks=$(grep -c '"name": "thread_name"' "$dir/dns.trace.json")
if [ "$tracks" -ne 4 ]; then
    echo "obs-smoke: world trace has $tracks rank tracks, want 4" >&2
    exit 1
fi
# At least one cross-rank flow arrow must have been linked.
grep -q '"ph": "s"' "$dir/dns.trace.json"
$GO run ./cmd/bench-validate -trace "$dir/dns.trace.json"

# The report's trace block covers the world: one slack entry per rank.
slack=$(sed -n '/"rank_slack_seconds": \[/,/\]/p' "$dir/BENCH_obs.json" | grep -c '^ *[0-9.e+-]*,\{0,1\}$')
if [ "$slack" -ne 4 ]; then
    echo "obs-smoke: report trace.rank_slack_seconds has $slack entries, want 4" >&2
    exit 1
fi
$GO run ./cmd/bench-validate "$dir/BENCH_obs.json"
echo "obs-smoke: ok"
