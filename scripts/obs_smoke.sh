#!/bin/sh
# obs-smoke: the distributed-observability CI drill. dnsrun launches a
# four-process 2x2 DNS with per-rank tracing, heartbeats and a live
# endpoint; while the run is in flight we scrape rank 0's /metrics and
# /status world dashboard off the wire. After the clean exit, trace-merge
# joins the four per-rank trace files into one aligned Perfetto timeline,
# which must self-validate, pass bench-validate -trace (per-track
# monotonicity plus flow referential integrity), and carry cross-rank
# flow arrows.
set -eu
. scripts/lib.sh
smoke_init obs-smoke
$GO build -o "$dir/dns" ./cmd/dns
$GO build -o "$dir/dnsrun" ./cmd/dnsrun
$GO build -o "$dir/trace-merge" ./cmd/trace-merge

# Enough steps that the run is still alive while we scrape mid-flight.
"$dir/dnsrun" -n 4 -bin "$dir/dns" -- -nx 16 -ny 17 -nz 16 -pa 2 -pb 2 \
    -steps 800 -listen 127.0.0.1:0 -heartbeat-every 2 \
    -trace "$dir/dns.trace.json" \
    > "$dir/run.out" 2>&1 &
pid=$!

# Rank 0 prints its live endpoint once it is listening.
endpoint_announced() {
    addr=$(sed -n 's|^\[rank 0\] telemetry endpoint: http://\([^/]*\)/.*|\1|p' "$dir/run.out")
    [ -n "$addr" ]
}
wait_for "telemetry endpoint" 300 "$dir/run.out" endpoint_announced

# Scrape the world dashboard mid-run: the first heartbeat gather lands
# after a couple of steps, so retry until per-rank step counters appear.
# Match an actual series sample ("{rank=...}"), not the # HELP line the
# endpoint serves before any heartbeat has been heard.
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

wait "$pid"

# Merge the four per-rank timelines (rank 0 wrote dns.trace.json, the
# rest dns.trace.json.rankN) and validate the world file.
"$dir/trace-merge" -o "$dir/merged.trace.json" -summary \
    "$dir/dns.trace.json" \
    "$dir/dns.trace.json.rank1" \
    "$dir/dns.trace.json.rank2" \
    "$dir/dns.trace.json.rank3" \
    > "$dir/merge.out"
grep -q 'merged 4 ranks' "$dir/merge.out"
# At least one cross-rank flow arrow must have been linked.
if grep -q 'merged 4 ranks, [0-9]* events, 0 flow arrows' "$dir/merge.out"; then
    echo "obs-smoke: merged trace carries no flow arrows" >&2
    cat "$dir/merge.out" >&2
    exit 1
fi
grep -q '"ph": "s"' "$dir/merged.trace.json"
$GO run ./cmd/bench-validate -trace "$dir/merged.trace.json"
echo "obs-smoke: ok"
