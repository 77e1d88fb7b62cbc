GO ?= go

.PHONY: all build test race race-stress smoke fuzz vet bench bench-e2e bench-check bench-pairs des-diff fmt cover staticcheck govulncheck lint-metrics ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The timeout is per package binary, at 2x the slowest package under the
# race detector on a 2-vCPU host: internal/experiments, 89-119 s, whose
# blob detector reads every pixel through the race instrumentation
# (internal/core's DES suites take 21-32 s).
race:
	$(GO) test -race -timeout 4m ./...

# race-stress re-runs the concurrency suites (snapshot isolation and the
# WAL commit-failure path under a hammering reader, index-vs-scan
# equivalence beside a batched writer, batch writer pipelining under
# concurrent producers, interleaved reader/writer query stress, shutdown
# drains, fleet monitor ingest/sweep/federate, a frame client's buffer
# pool shared by concurrent senders) under the
# race detector with caching disabled, so an interleaving-dependent
# regression cannot hide behind a cached pass.
race-stress:
	$(GO) test -race -count=1 -run 'Concurrent|Snapshot|Stress' ./...

# smoke builds the six daemons and drives them as an operator would
# (cmd/cmd_test.go): every -h against the checked-in flag surface, then a
# loopback deployment of the five servers that must answer /healthz, exit 0
# on SIGTERM within the drain timeout and end on its closing log line.
smoke:
	$(GO) test -count=1 ./cmd/

# fuzz runs each codec fuzz target for a short while on top of its
# checked-in corpus (testdata/fuzz in each package): envelopes through
# Open (the old all-JSON form must be refused), frame records as the
# framestore reads them, detection events as the trajectory store's log
# records carry them, add_batch write batches as the trajectory-store
# server decodes them, whole
# trajectory-store logs through Open against the pre-apply validator,
# trajectory-store request frames through the server's op dispatch, the
# binary query answers a trajectory-store client decodes, a
# framestore camera's manifest and segment through OpenStore,
# arbitrary bytes through the record-log reader both stores open with, and
# -alert rule strings through the fleet monitor's rule parser.
# go test takes one -fuzz target per run. Minimizing each new input for the
# default 60 s would eat the whole budget, so it gets 1 s.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReadEnvelope$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/protocol/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrameRecord$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/protocol/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeDetectionEvent$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/protocol/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeTrajWrites$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/protocol/
	$(GO) test -run '^$$' -fuzz '^FuzzOpenWAL$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/trajstore/
	$(GO) test -run '^$$' -fuzz '^FuzzServeRequest$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/trajstore/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeAnswer$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/trajstore/
	$(GO) test -run '^$$' -fuzz '^FuzzOpenFrameStore$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/framestore/
	$(GO) test -run '^$$' -fuzz '^FuzzReplay$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/recordlog/
	$(GO) test -run '^$$' -fuzz '^FuzzParseRule$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/fleet/

vet:
	$(GO) vet ./...

bench:
	$(GO) test -run=NONE -bench=. -benchmem ./internal/obs/ ./internal/pipeline/
	$(GO) test -run=NONE -bench=BenchmarkTrajstoreWritePath -benchtime=2s .
	$(GO) test -run=NONE -bench=BenchmarkRPCMiddlewareOverhead -benchtime=1s -benchmem ./internal/transport/
	$(GO) test -run=NONE -bench=BenchmarkQueryPath -benchtime=2s -benchmem ./internal/trajstore/
	$(GO) test -run=NONE -bench=BenchmarkFramestore -benchtime=2s ./internal/framestore/
	$(GO) test -run=NONE -bench=BenchmarkFrameIntake -benchtime=2s -benchmem ./internal/framestore/
	$(GO) test -run=NONE -bench=BenchmarkReopenSegments -benchtime=2s -benchmem ./internal/framestore/
	$(GO) test -run=NONE -bench=BenchmarkSnapshotQueryBySize -benchtime=2s ./internal/trajstore/
	$(GO) test -run=NONE -bench=BenchmarkOpenReplay -benchtime=2s -benchmem ./internal/trajstore/
	$(GO) test -run=NONE -bench=BenchmarkMatchFullPool -benchtime=2s -benchmem ./internal/reid/

# bench-e2e runs the end-to-end ladder (bench/README.md): four workloads
# over the real loopback-TCP deployment, ~15 minutes, results in
# bench/out/results.json. bench-check compares that run with the checked-in
# baseline and exits 1 on a regression. Neither is part of ci: they time a
# shared host.
bench-e2e:
	$(GO) run ./bench

bench-check:
	$(GO) run ./bench -compare bench/baseline/results.json bench/out/results.json

# bench-pairs times the working tree against REV on one workload:
# PAIRS alternating pairs of untraced SECONDS-long runs (REV first on odd
# pairs), then median [q1-q3] per side, the median change and the win
# count for every end-to-end metric (scripts/bench-pairs.sh). Not part of
# ci: it times a shared host.
WORKLOAD ?= handoff_stream
PAIRS ?= 5
SECONDS ?= 25
bench-pairs:
	scripts/bench-pairs.sh $(REV) $(WORKLOAD) $(PAIRS) $(SECONDS)

# des-diff builds coral-sim at REV and from the working tree and checks
# that four seeded runs (fault injection, a camera failure, trace
# sampling and frame replication among them) print the same stdout and
# -trace-out spans byte for byte: the same-behaviour check for a refactor
# (scripts/des-diff.sh). Not part of ci: a behaviour change differs on
# purpose.
REV ?= HEAD
des-diff:
	scripts/des-diff.sh $(REV)

fmt:
	gofmt -l -w cmd internal examples

# cover runs the suite with coverage and then re-runs the goroutine-leak
# shutdown tests verbosely, failing if any of them was skipped (a skipped
# leak check must never pass CI silently).
cover:
	$(GO) test -cover ./...
	@out=$$($(GO) test -v -count=1 -run 'Leak' ./internal/transport/ ./internal/core/ ./internal/daemon/ 2>&1); \
	status=$$?; \
	echo "$$out"; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	if echo "$$out" | grep -q -e '--- SKIP' -e 'no tests to run'; then \
		echo 'goroutine-leak checks were skipped' >&2; exit 1; \
	fi

# staticcheck runs honnef.co/go/tools if the binary is on PATH and skips
# with a warning otherwise, so local ci works in environments that cannot
# install tools; the CI workflow installs it explicitly.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo 'staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)' >&2; \
	fi

# govulncheck scans dependencies (here: just the stdlib) for known
# vulnerabilities, with the same skip-if-not-installed escape hatch as
# staticcheck for offline environments.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo 'govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)' >&2; \
	fi

# lint-metrics enforces the metric naming conventions (coralpie_ prefix,
# _total/_seconds/_bytes suffixes, no reserved histogram suffixes) over
# the registries the system actually wires — see
# internal/obs/lint_wired_test.go, which boots a full monitored sim.
lint-metrics:
	$(GO) test -count=1 -run 'Lint' ./internal/obs/

ci: build vet staticcheck govulncheck lint-metrics race race-stress smoke fuzz cover
