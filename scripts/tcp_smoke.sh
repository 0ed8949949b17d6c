#!/bin/sh
# tcp-smoke: the distributed-transport CI drill. dnsrun launches a
# four-process 2x2 DNS over real localhost sockets, the run checkpoints
# every few steps, we kill the whole world mid-flight once a committed
# checkpoint exists, then a two-process world resumes the latest good
# checkpoint (the elastic P=4 -> P=2 re-shard) and its telemetry report —
# merged across processes over the wire — must pass bench-validate.
set -eu
. scripts/lib.sh
smoke_init tcp-smoke
$GO build -o "$dir/dns" ./cmd/dns
$GO build -o "$dir/dnsrun" ./cmd/dnsrun

# Far more steps than we intend to run: the kill below is the exit path.
"$dir/dnsrun" -n 4 -bin "$dir/dns" -- -nx 16 -ny 17 -nz 16 -pa 2 -pb 2 \
    -steps 2000 -ckpt-dir "$dir/run.ckpt" -ckpt-every 2 \
    > "$dir/run.out" 2>&1 &
pid=$!

wait_for "the first checkpoint" 600 "$dir/run.out" have_manifest "$dir/run.ckpt"

kill "$pid" 2> /dev/null || true
wait "$pid" 2> /dev/null || true

# Elastic resume at half the world size. ResumeLatest skips any
# checkpoint the kill left unpublished.
"$dir/dnsrun" -n 2 -bin "$dir/dns" -- -nx 16 -ny 17 -nz 16 -pa 1 -pb 2 \
    -steps 2 -ckpt-dir "$dir/run.ckpt" -resume \
    -report "$dir/BENCH_tcp_resume.json" \
    > "$dir/resume.out" 2>&1
grep -q "resumed from step-" "$dir/resume.out"
$GO run ./cmd/bench-validate "$dir/BENCH_tcp_resume.json"
echo "tcp-smoke: ok"
