#!/bin/sh
# serve-smoke: the DNS-as-a-service CI drill. Start dnsserve, submit a
# throttled channel job and an isotropic job over the HTTP API, attach two
# stream watchers, and SIGKILL the server the moment the channel job's
# first checkpoint manifest is published. A fresh server on the same run
# store must rediscover the interrupted job from its on-disk record,
# auto-resume it from the checkpoint, and run every job to completion; the
# stored BENCH reports must pass bench-validate, the stream watchers must
# have seen live status events, the long-poll fallback must read the
# recovered job's status events, a finished job's SSE stream must replay and
# end with the end marker, and a final SIGTERM must drain cleanly.
set -eu
. scripts/lib.sh
smoke_init serve-smoke
$GO build -o "$dir/dnsserve" ./cmd/dnsserve

data="$dir/runs"

start_server() {
    rm -f "$dir/addr"
    "$dir/dnsserve" -listen localhost:0 -data "$data" -addr-file "$dir/addr" \
        > "$dir/server$1.log" 2>&1 &
    pid=$!
    wait_for "server $1 address" 100 "$dir/server$1.log" test -s "$dir/addr"
    addr=$(cat "$dir/addr")
}

# job_id FILE: pull the job id out of a submit response.
job_id() {
    sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' "$1" | head -n 1
}

# job_done ID: fetch one job's status; succeeds once it reports done, and
# fails the drill if the job went terminal any other way.
job_done() {
    curl -s "http://$addr/v1/jobs/$1" > "$dir/status.json"
    if grep -q '"state": *"failed"\|"state": *"cancelled"' "$dir/status.json"; then
        echo "serve-smoke: job $1 went terminal without finishing:" >&2
        cat "$dir/status.json" >&2
        exit 1
    fi
    grep -q '"state": *"done"' "$dir/status.json"
}

start_server 1

# A throttled channel job (the crash victim: slow enough that the SIGKILL
# lands mid-flight, checkpointing every 2 steps) and a quick isotropic job
# (exercises the registry's workload dispatch end to end).
curl -s -d '{"nx":16,"ny":24,"nz":16,"steps":30,"ckpt_every":2,"step_delay_ms":25}' \
    "http://$addr/v1/jobs" > "$dir/submit_channel.json"
curl -s -d '{"workload":"isotropic","nx":16,"ny":16,"nz":16,"re_tau":100,"steps":6,"ckpt_every":2}' \
    "http://$addr/v1/jobs" > "$dir/submit_iso.json"
chan=$(job_id "$dir/submit_channel.json")
iso=$(job_id "$dir/submit_iso.json")
if [ -z "$chan" ] || [ -z "$iso" ]; then
    echo "serve-smoke: submit failed" >&2
    cat "$dir/submit_channel.json" "$dir/submit_iso.json" >&2
    exit 1
fi

# Two live stream watchers on the channel job. They die with the SIGKILL;
# their captured output must show real status events.
curl -s -N "http://$addr/v1/jobs/$chan/stream" > "$dir/watch1.out" 2> /dev/null &
curl -s -N "http://$addr/v1/jobs/$chan/stream" > "$dir/watch2.out" 2> /dev/null &

# The first published checkpoint means the channel job is resumable. Then
# pull the plug, hard.
wait_for "the first checkpoint" 600 "$dir/server1.log" have_manifest "$data/$chan/ckpt"
kill -9 "$pid" 2> /dev/null || true
wait "$pid" 2> /dev/null || true

grep -q "^event: status" "$dir/watch1.out"
grep -q "^event: status" "$dir/watch2.out"

# Restart on the same store: recovery must re-enqueue the interrupted
# channel job (status.json still claims running/queued) and finish it.
start_server 2
wait_for "job $chan done" 600 "$dir/status.json" job_done "$chan"
wait_for "job $iso done" 600 "$dir/status.json" job_done "$iso"

# The recovered job really did resume from its checkpoint rather than
# restart from scratch.
curl -s "http://$addr/v1/jobs/$chan" > "$dir/final_channel.json"
grep -q '"resumes": *[1-9]' "$dir/final_channel.json"
grep -q '"step": *30' "$dir/final_channel.json"

# Both stream endpoints read the hub's ring, which the restarted server
# filled while finishing the channel job: long-poll from its start carries
# status events, and an SSE stream opened now replays them and ends with the
# end marker.
curl -s "http://$addr/v1/jobs/$chan/stream?after=0&wait=5s" > "$dir/poll.json"
grep -q '"type": *"status"' "$dir/poll.json"
curl -s -N "http://$addr/v1/jobs/$chan/stream" > "$dir/finished.out"
grep -q "^event: status" "$dir/finished.out"
[ "$(grep '^event: ' "$dir/finished.out" | tail -n 1)" = "event: end" ]

# Stored artifacts: every completed run's BENCH report must validate.
$GO run ./cmd/bench-validate "$data/$chan/report.json" "$data/$iso/report.json"

# The run-store listing tool sees both runs as done.
$GO run ./cmd/ckpt ls -runs "$data" > "$dir/ls_runs.out"
grep -q "$chan  done" "$dir/ls_runs.out"
grep -q "$iso  done" "$dir/ls_runs.out"

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$pid"
if ! wait "$pid"; then
    echo "serve-smoke: graceful shutdown exited non-zero" >&2
    cat "$dir/server2.log" >&2
    exit 1
fi
echo "serve-smoke: ok"
