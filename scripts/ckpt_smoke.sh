#!/bin/sh
# ckpt-smoke: the crash-restart CI drill. A tiny 2x2 run checkpoints every
# two steps; then one bit flips in the middle of the newest checkpoint's
# first shard, with its size and the manifest left as they were: the silent
# corruption a size check cannot see, so the shard's CRC32C must convict it.
# `ckpt verify` must name that checkpoint INVALID and pass the older one,
# and an auto-resume on a 1x2 grid must fall back to the older checkpoint,
# finish cleanly and write a report that passes bench-validate (the
# checkpoint-I/O accounting cross-check included).
set -eu
. scripts/lib.sh
smoke_init ckpt-smoke
$GO build -o "$dir/dns" ./cmd/dns
$GO build -o "$dir/ckpt" ./cmd/ckpt
store=$dir/run.ckpt

"$dir/dns" -nx 16 -ny 17 -nz 16 -steps 4 -pa 2 -pb 2 \
    -ckpt-dir "$store" -ckpt-every 2 > "$dir/run.out"
newest=step-0000000004
older=step-0000000002

# Flip bit 0 of the middle byte: read it with od, write back b ^ 1 with dd.
shard=$store/$newest/shard-0000.ckpt
size=$(wc -c < "$shard")
mid=$((size / 2))
b=$(od -An -tu1 -j "$mid" -N 1 "$shard" | tr -d ' ')
printf "\\$(printf '%03o' $((b ^ 1)))" |
    dd of="$shard" bs=1 seek="$mid" count=1 conv=notrunc 2> /dev/null
if [ "$(wc -c < "$shard")" -ne "$size" ]; then
    echo "ckpt-smoke: the bit flip changed the shard's size" >&2
    exit 1
fi

if "$dir/ckpt" verify -dir "$store" > "$dir/verify.out" 2>&1; then
    echo "ckpt-smoke: ckpt verify passed a store with a flipped bit" >&2
    cat "$dir/verify.out" >&2
    exit 1
fi
grep -q "^$newest  INVALID: .*CRC32C mismatch" "$dir/verify.out"
"$dir/ckpt" verify -dir "$store" "$older"
"$dir/ckpt" ls -dir "$store"

"$dir/dns" -nx 16 -ny 17 -nz 16 -steps 2 -pa 1 -pb 2 -ckpt-dir "$store" \
    -resume -report "$dir/BENCH_resume.json" > "$dir/resume.out"
grep -q "resumed from $older" "$dir/resume.out"
$GO run ./cmd/bench-validate "$dir/BENCH_resume.json"
echo "ckpt-smoke: ok"
