# Shared scaffolding of the smoke drills (sourced, not run): a scratch
# directory per drill and one poll loop for "start something in the
# background, wait until it shows a sign of life, fail loudly if it dies or
# stalls first". Each drill sets $pid to the background process it watches.

GO=${GO:-go}

# smoke_init NAME: name the drill and give it a fresh .NAME directory.
smoke_init() {
    smoke=$1
    dir=.$1
    rm -rf "$dir"
    mkdir -p "$dir"
}

# wait_for WHAT TRIES LOG CMD...: poll CMD every 0.1 s until it succeeds.
# If process $pid exits first, or TRIES polls pass, print LOG and fail.
# CMD runs in this shell, so a function may set variables for the caller.
wait_for() {
    what=$1
    tries=$2
    log=$3
    shift 3
    i=0
    until "$@"; do
        if ! kill -0 "$pid" 2> /dev/null; then
            echo "$smoke: process exited before $what" >&2
            cat "$log" >&2
            exit 1
        fi
        i=$((i + 1))
        if [ "$i" -gt "$tries" ]; then
            echo "$smoke: no $what after $((tries / 10))s" >&2
            kill "$pid" 2> /dev/null || true
            cat "$log" >&2
            exit 1
        fi
        sleep 0.1
    done
}

# have_manifest CKPT_DIR: a checkpoint is published by its MANIFEST.json
# rename, so the first manifest means a complete, resumable snapshot is on
# disk.
have_manifest() {
    ls "$1"/step-*/MANIFEST.json > /dev/null 2>&1
}
