# Developer entry points. `make ci` is what a pipeline should run: static
# checks, a full build, the whole test suite, and the race detector over
# the concurrency-bearing packages (wall-normal operators and FFT plans
# shared by every pool worker, worker pool, in-process MPI runtime, pencil
# transposes, the dealiased excursion whose pool workers each write their
# own runs of lines, and the statistics, whose walk over the local modes
# borrows each in-process rank's worker-0 scratch). vet runs twice, the second time for arm64: a
# cross-build's type check of every package and test at its cheapest. It
# also reads the arm64 assembly of internal/banded and fails if a method of
# the collocation operator (banded.Colloc) holds a fused multiply-add, which
# would round its products unlike amd64, where gc never fuses. vet
# and test also cover benchmark/, the regression ruler: it is its own module
# (its only requirement is replaced by ../, so no network), which `./...`
# skips, and an API break there would otherwise surface only in the
# pipeline.

GO ?= go

.PHONY: ci vet build test race fuzz bench bench-smoke ckpt-smoke tcp-smoke obs-smoke serve-smoke loc clean

ci: vet build test race fuzz bench-smoke ckpt-smoke tcp-smoke obs-smoke serve-smoke

vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	$(GO) -C benchmark vet .
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l . lists:"; gofmt -l .; exit 1; }
	@un=$$($(UNCALLED) | sort); test $$(echo "$$un" | grep -c .) -le $(UNCALLED_MAX) || { echo "more than $(UNCALLED_MAX) exported funcs or methods that no non-test line names:"; echo "$$un"; exit 1; }
	@! grep -rl --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark '"encoding/gob"' . || { echo "these import encoding/gob, an unbounded decoder of peer bytes"; exit 1; }
	@elf=$$(git ls-files -z | xargs -0 -r sh -c 'for f; do [ -f "$$f" ] && [ "$$(head -c 4 "$$f" | od -An -tx1 | tr -d " \n")" = 7f454c46 ] && echo "$$f"; done' sh); \
	test -z "$$elf" || { echo "these tracked files are ELF binaries:"; echo "$$elf"; exit 1; }
	@asm=$$(GOARCH=arm64 $(GO) build -gcflags=-S ./internal/banded 2>&1) || { echo "$$asm"; exit 1; }; \
	echo "$$asm" | grep -q '(\*Colloc)\.Mul.* STEXT' || { echo "no (*banded.Colloc).Mul* in the arm64 listing"; exit 1; }; \
	fused=$$(echo "$$asm" | awk '/ STEXT/ { fn = $$1 } /FN?M(ADD|SUB)D/ && fn ~ /\(\*Colloc\)\./ { print fn }' | sort -u); \
	test -z "$$fused" || { echo "fused multiply-adds on arm64, so these collocation kernels would round unlike amd64:"; echo "$$fused"; exit 1; }

build:
	$(GO) build ./...

test:
	$(GO) test ./...
	$(GO) -C benchmark test .

race:
	$(GO) test -race -short channeldns/internal/banded channeldns/internal/fft channeldns/internal/par channeldns/internal/mpi channeldns/internal/pencil channeldns/internal/parfft channeldns/internal/telemetry channeldns/internal/trace channeldns/internal/ckpt channeldns/internal/run channeldns/internal/server
	$(GO) test -race -run 'Workload|Registry|Isotropic|Scalar|CheckpointMultiRank|Forms|Convective|TrajectoryPinned|OperatorSetsShared|ExcursionInputsWritten|TelemetryPhaseCoverage|ResumeMatchesStraightRun' channeldns/internal/core
	$(GO) test -race -run 'AcrossRanks|Distributed' channeldns/internal/stats

# A few seconds of each fuzz target, one per decoder of bytes the process did
# not write: the TCP transport's frame reader against whatever a peer might
# send (no panic, no allocation on the word of a length field), the job-spec
# decoder behind POST /v1/jobs (nothing between body and queue panics; an
# accepted spec survives spec.json), the checkpoint shard parser (no panic;
# an accepted image re-encodes to the same bytes), the checkpoint manifest
# reader (no panic; an accepted manifest covers every mode exactly once). A
# TCP world's trace dumps ride the same frames as its other collectives,
# fixed-shape and length-checked, so they need no decoder of their own. The
# seeds alone run with every `go test`.
fuzz:
	$(GO) test -run xxx -fuzz FuzzReadFrame -fuzztime 5s channeldns/internal/mpi
	$(GO) test -run xxx -fuzz FuzzDecodeSpec -fuzztime 5s channeldns/internal/server
	$(GO) test -run xxx -fuzz FuzzParseShard -fuzztime 5s channeldns/internal/ckpt
	$(GO) test -run xxx -fuzz FuzzReadManifest -fuzztime 5s channeldns/internal/ckpt

# The micro-benchmarks that live beside their package. The paper tables
# come from cmd/bench and changes are gated by benchmark/
# (BENCHMARK.json), not by these. fft has BenchmarkLines, ns/line of the
# per-line entries at the workload line lengths, and BenchmarkBatch, the
# per-line entries against the batched ones at the channel-48 shapes; banded has the full-band N = 1024 systems
# of Table 1 and the DNS's own rows at ny = 49, whose zeros inside the band the
# former lack: BenchmarkCollocationMatVec (one B2*c of the collocation
# operator), BenchmarkCollocationMatVecPair (B0*c and B2*c of one line in one
# pass, as the time advance takes them), BenchmarkHelmholtzSolve and
# BenchmarkHelmholtzSolvePair;
# mpi has BenchmarkAlltoallvTCP, the wire path's ns/op, B/op and allocs/op at
# the two message sizes of the scalar step at 32x33x32 on 1x2 ranks; pencil
# has BenchmarkExcursionTransposes, the four transposes of one substep at the
# channel-48 shapes, at 1x1 on one and two workers and at 1x2, 2x1 and 2x2; parfft has
# BenchmarkExcursionPass, one whole SixProducts excursion at the channel-48
# shapes on 1x1 (one and two workers) and 1x2, its inputs refilled untimed (a
# pass leaves its products there), and MB-held, the bytes of its field pools
# and, on a one-rank CommA, of its workers' slab buffers;
# core has BenchmarkEnsureOps, one rebuild of a serial 48x49x48 channel's
# operator caches after a change of dt.
bench:
	$(GO) test -run xxx -bench Lines -benchtime 200x channeldns/internal/fft
	$(GO) test -run xxx -bench Batch -benchtime 20x channeldns/internal/fft
	$(GO) test -run xxx -bench ExcursionTransposes -benchtime 100x channeldns/internal/pencil
	$(GO) test -run xxx -bench ExcursionPass -benchtime 50x channeldns/internal/parfft
	$(GO) test -run xxx -bench EnsureOps -benchtime 20x channeldns/internal/core
	$(GO) test -run xxx -bench . -benchtime 200ms channeldns/internal/banded channeldns/internal/bspline channeldns/internal/mpi channeldns/internal/server

# Tiny end-to-end run of every experiment of cmd/bench that writes a report,
# validating the emitted BENCH_*.json artifacts against the
# channeldns/bench/v2 schema (including each report's declarative schedule
# block, cross-checked against its own comm table). Keeps the telemetry report
# path from bit-rotting without burning CI minutes. The last line is the
# model-vs-measured pass over the timestep report: measured phase seconds
# against the machine model of its schedule block, advisory only (drift
# warns, never fails).
SMALL = -nx 16 -ny 17 -nz 16
bench-smoke:
	rm -rf .bench-smoke && mkdir -p .bench-smoke
	$(GO) run ./cmd/bench -table 1 -n 128 -reps 1 -json .bench-smoke/BENCH_table1.json > /dev/null
	$(GO) run ./cmd/bench -table 2 -json .bench-smoke/BENCH_table2_3_4.json > /dev/null
	$(GO) run ./cmd/bench -table 5 -json .bench-smoke/BENCH_table5.json > /dev/null
	$(GO) run ./cmd/bench -table 6 -json .bench-smoke/BENCH_table6.json > /dev/null
	$(GO) run ./cmd/bench -table 9 $(SMALL) -steps 2 -json .bench-smoke/BENCH_table9.json -trace .bench-smoke/table9.trace.json > /dev/null
	$(GO) run ./cmd/dns $(SMALL) -steps 2 -pa 2 -pb 2 -trace .bench-smoke/dns.trace.json -report .bench-smoke/BENCH_dns.json > /dev/null
	$(GO) run ./cmd/dns -workload isotropic -nx 16 -ny 16 -nz 16 -steps 2 -pa 2 -pb 2 -report .bench-smoke/BENCH_dns_isotropic.json > /dev/null
	$(GO) run ./cmd/dns -workload scalar $(SMALL) -steps 2 -pa 2 -pb 2 -report .bench-smoke/BENCH_dns_scalar.json > /dev/null
	$(GO) run ./cmd/bench -table 9 $(SMALL) -schedule > /dev/null
	$(GO) run ./cmd/bench -table 9 -workload isotropic -nx 16 -ny 16 -nz 16 -schedule > /dev/null
	$(GO) run ./cmd/bench -table 9 -workload scalar $(SMALL) -schedule > /dev/null
	$(GO) run ./cmd/bench -table 5 -schedule > /dev/null
	$(GO) run ./cmd/bench -table 6 -schedule > /dev/null
	$(GO) run ./cmd/bench-validate .bench-smoke/BENCH_*.json
	$(GO) run ./cmd/bench-validate -trace .bench-smoke/*.trace.json
	$(GO) run ./cmd/bench-validate -q -model .bench-smoke/BENCH_table9.json

# Crash-restart drill: checkpoint a tiny multi-rank run every 2 steps,
# flip a bit mid-shard in the newest checkpoint (size and manifest left
# intact — the silent-corruption case), require `ckpt verify` to convict it
# by its CRC, and require the auto-resume to fall back to the previous good
# checkpoint and finish cleanly. The resume run's telemetry report must also
# pass the checkpoint-I/O accounting cross-check.
ckpt-smoke:
	sh scripts/ckpt_smoke.sh

# Distributed-transport drill: dnsrun spawns a four-process 2x2 run over
# localhost TCP, the script kills the world after its first committed
# checkpoint, a two-process world resumes it (elastic re-shard over the
# wire), and the resume's cross-process telemetry report must validate.
tcp-smoke:
	sh scripts/tcp_smoke.sh

# Distributed-observability drill: a four-process world with heartbeats
# and tracing; scrape the live /metrics + /status dashboard and rank 0's
# /telemetry report (four ranks, a wire block) mid-run, then validate the
# one world trace rank 0 writes from every rank's flight recorder (four
# tracks, flow arrows, no per-rank files) and its report's whole-world
# trace block.
obs-smoke:
	sh scripts/obs_smoke.sh

# DNS-as-a-service drill: start dnsserve, submit jobs over the HTTP API
# with stream watchers attached, SIGKILL the server after the first
# checkpoint, and require the restarted server to auto-resume the
# interrupted job and finish it; stored reports must bench-validate and a
# final SIGTERM must drain cleanly.
serve-smoke:
	sh scripts/serve_smoke.sh

# Line counts as the simplicity PRs quote them: non-test and test *.go lines
# per internal/* package, under cmd/ and cmd/bench/, and in total outside
# benchmark/; then the run descriptions: the fields of core.Config, of
# server.JobSpec (a line `Nx, Ny, Nz int` is three, a func-typed field one) and
# of server.Options (the service's own knobs), and the command-line flags
# defined under cmd/; then the binaries under cmd/, the `func Fuzz` targets,
# and the non-test `panic(` and `recover()` calls, all outside benchmark/; last
# the exported funcs and methods declared outside benchmark/ and tests whose
# name no other line of a non-test file names, benchmark/ included and
# comment lines and string literals not, so a panic message that names its
# own function is no call (grep-level: a method that only satisfies an
# interface counts too). That last count only goes down: `make vet` fails
# and lists them when it exceeds UNCALLED_MAX.
UNCALLED_MAX = 5
UNCALLED = find . -name '*.go' ! -name '*_test.go' | xargs awk ' \
	/^[ \t]*\/\// { next } \
	{ gsub(/"([^"\\]|\\.)*"|`[^`]*`/, "") } \
	FILENAME !~ /^\.\/benchmark\// && match($$0, /^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*/) { \
		s = substr($$0, RSTART, RLENGTH); sub(/.*[ )]/, "", s); decl[s]++ } \
	{ n = split($$0, tok, /[^A-Za-z0-9_]+/); for (i = 1; i <= n; i++) cnt[tok[i]]++ } \
	END { for (s in decl) if (cnt[s] <= decl[s]) print s }'
FIELDS = awk -v t=$(1) '$$0 ~ "^type " t " struct" {f = 1; next} f && /^}/ {exit} f {sub(/\/\/.*/, ""); sub(/`.*`/, ""); sub(/\(.*\)/, ""); if (NF) n += gsub(/,/, ",") + 1} END {print n}' $(2)
loc:
	@for d in internal/*/ cmd/ cmd/bench/; do printf '%-22s %6d %6d\n' $$d \
		$$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l) \
		$$(find $$d -name '*_test.go' | xargs cat /dev/null | wc -l); done
	@printf '%-22s %6d %6d\n' 'total (no benchmark/)' \
		$$(find . -name '*.go' ! -path './benchmark/*' ! -name '*_test.go' | xargs cat | wc -l) \
		$$(find . -name '*_test.go' ! -path './benchmark/*' | xargs cat | wc -l)
	@printf '%-22s %6d\n' 'core.Config fields' $$($(call FIELDS,Config,internal/core/config.go))
	@printf '%-22s %6d\n' 'server.JobSpec fields' $$($(call FIELDS,JobSpec,internal/server/spec.go))
	@printf '%-22s %6d\n' 'server.Options fields' $$($(call FIELDS,Options,internal/server/manager.go))
	@printf '%-22s %6d\n' 'flags under cmd/' \
		$$(grep -rhoE '\b(flag|fs)\.(String|Int|Int64|Bool|Float64|Duration)(Var)?\(' --include='*.go' --exclude='*_test.go' cmd | wc -l)
	@printf '%-22s %6d\n' 'binaries under cmd/' $$(grep -rl --include='*.go' '^package main$$' cmd | xargs -n1 dirname | sort -u | wc -l)
	@printf '%-22s %6d\n' 'func Fuzz targets' $$(grep -rhE --include='*_test.go' --exclude-dir=benchmark '^func Fuzz' . | wc -l)
	@printf '%-22s %6d\n' 'non-test panic(' $$(grep -rhoE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark '\bpanic\(' . | wc -l)
	@printf '%-22s %6d\n' 'non-test recover()' $$(grep -rhoE --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark '\brecover\(\)' . | wc -l)
	@printf '%-22s %6d\n' 'uncalled exports' $$($(UNCALLED) | wc -l)

clean:
	rm -rf .bench-smoke .ckpt-smoke .tcp-smoke .obs-smoke .serve-smoke
	rm -f *.trace.json
