GO ?= go

# The perf-gate benchmarks: the simulator's plane — the end-to-end
# fault-free pair (allocations and events/req are part of the contract) and
# the event-engine microbenches. The storage engine is gated by benchmark/
# instead (parent against change on one machine, per layer, exact
# allocation counts).
BENCH_PATTERN ?= FaultFree|Schedule
BENCH_PKGS ?= . ./internal/sim

# Static-analysis tool versions, pinned so lint results are reproducible;
# `go run pkg@version` fetches them on demand — no global install needed.
STATICCHECK_VERSION ?= v0.6.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build test race bench-smoke bench bench-save bench-diff store-chaos bench-harness fuzz nightly vet fmt-check fault-smoke lint cover verify clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole suite under the race detector, once: the parallel sweep driver
# and the -j commands, the observability stack (live telemetry server, span
# exporters, tracestat), the fault-injection stack, and the storage engine
# — concurrent clients through failure and rebuild, serial-vs-parallel
# byte equivalence, intent-log group commit, fan-out and overlap tests.
race:
	$(GO) test -race ./...

# One iteration of every benchmark — exercises each paper figure/table
# driver and the instrumentation overhead pair without the full timing run.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

bench:
	$(GO) test -run='^$$' -bench=. -benchmem .

# Record the perf-gate benchmarks as the next bench/BENCH_<n>.json baseline.
bench-save:
	$(GO) test -run='^$$' -bench='$(BENCH_PATTERN)' -benchmem $(BENCH_PKGS) | $(GO) run ./cmd/benchdiff -save

# Compare a fresh run against the latest baseline; fails on any metric more
# than 10% worse. Override the gate with BENCHDIFF_THRESHOLD (fraction, e.g.
# 0.5 on noisy shared runners) — benchdiff reads it as its default.
bench-diff:
	$(GO) test -run='^$$' -bench='$(BENCH_PATTERN)' -benchmem $(BENCH_PKGS) | $(GO) run ./cmd/benchdiff -diff

# The chaos invariants and the SIGKILL crash test under the race detector,
# verbosely: 12 workers against fault-injecting backends (transients, latent
# sector errors, torn writes, read corruption) while one disk (single
# parity) or two (P+Q) fail and rebuild mid-run; every acknowledged write
# must read back byte-for-byte and parity must end clean. `race` already
# runs these once, so this target is for replaying a failure:
# CHAOS_SEED=<seed> make store-chaos. Every run prints its seed; a failing
# one appends it to $STORE_CHAOS_DIR/<test name>.seed, which CI uploads.
store-chaos:
	$(GO) test -race -run 'TestChaos|TestCrash' -count=1 -v ./internal/store/

# The benchmark harness's own invariants (benchmark/ is its own module):
# exact access counts per op, the recorder's attribution, the quiet-tail
# estimator — on a tiny geometry, under the race detector.
bench-harness:
	cd benchmark && $(GO) test -race ./...

# The GF(2^8) slice kernels against the scalar field ops on generated
# inputs (differential, linearity, inverse round trip). A failing input is
# written to internal/gf256/testdata/fuzz/FuzzMulAddSlice/ and from then on
# replayed by plain `go test`; check it in with the fix.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzMulAddSlice -fuzztime=$(FUZZTIME) ./internal/gf256

# The nightly long-haul: property suites too slow to run on every push.
# Every two-disk failure pair must recover on the P+Q store, a rebuild
# must succeed from any mid-sweep failure point, the SIGKILL
# crash-recovery test runs twenty kills at fresh timing offsets, both
# chaos invariants run repeatedly under fresh seeds (each run prints its
# seed; failures replay with CHAOS_SEED=<seed>), the concurrency-shape
# tests (TestOverlap*: rendezvous backends that hang unless a batch is
# issued as wide as it should be) run twenty times to show they do not
# flake, the poisoned-pool and narrow-stripe byte comparisons (a parity sum
# is started by whichever term an overlapped gather lands first) run ten
# times, and the kernel fuzzer gets five minutes.
nightly:
	$(GO) test -race -run 'TestPQEveryTwoDisksRecover' -count=5 -v ./internal/store/
	$(GO) test -race -run 'TestRebuildAnyFailurePoint' -count=5 -v ./internal/store/
	$(GO) test -race -run 'TestCrashDuringWriteRecovers' -count=20 -v ./internal/store/
	$(GO) test -race -run 'TestChaosAcknowledged|TestChaos2F' -count=10 -v ./internal/store/
	$(GO) test -race -run 'TestOverlap' -count=20 ./internal/store/
	$(GO) test -race -run 'TestPoisonedPool|TestNarrowStripeErasures' -count=10 ./internal/store/
	$(MAKE) fuzz FUZZTIME=5m

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# A short end-to-end lifecycle run with media faults enabled: random disk
# failures, latent sector errors, transient timeouts, scrubbing, and true
# double failures. (The fault stack's race pass is part of `race`.)
fault-smoke:
	$(GO) run ./examples/continuous

# Pinned static analysis: staticcheck (bug-prone constructs, dead code,
# style drift) and govulncheck (known CVEs reachable from this module).
# Needs network access to fetch the pinned tools on first run.
lint:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# Coverage gate: total statement coverage must stay at or above the floor
# checked into .coverage-floor. Raise the floor when coverage improves;
# never lower it to make a failing build pass.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	floor=$$(cat .coverage-floor); \
	echo "coverage: total $$total% (floor $$floor%)"; \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { exit (t + 0 < f + 0) ? 1 : 0 }' || \
		{ echo "coverage $$total% fell below the $$floor% floor"; exit 1; }

# The full pre-merge gate: formatting, static checks, build, the whole test
# suite under the race detector (once — the storage chaos and crash tests
# included), the fault-injection lifecycle smoke, the benchmark harness's
# own tests, ten seconds of kernel fuzzing, and a benchmark smoke pass.
verify: fmt-check vet build race fault-smoke bench-harness fuzz bench-smoke
	@echo "verify: OK"

clean:
	$(GO) clean ./...
