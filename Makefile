GO ?= go

# Static-analysis tool versions, pinned so lint results are reproducible;
# `go run pkg@version` fetches them on demand — no global install needed.
STATICCHECK_VERSION ?= v0.6.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build test race bench-smoke bench store-chaos bench-harness fuzz nightly vet fmt-check portable fault-smoke lint cover verify clean

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

# The paper's figures and tables as benchmarks, plus the fault-free pair.
# Nothing is compared against a saved number: the simulator's exact counts
# (requests, engine events, allocations) are assertions in `go test .`, and
# its speed is judged parent against change on one host (DESIGN.md §6).
bench:
	$(GO) test -run='^$$' -bench=. -benchmem .

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
# estimator — on a tiny geometry, under the race detector. Then the ruler's
# link check: the benchmark binary holds the engine and nothing of the
# simulator. It imports internal/core for NewMapping only; a package-level
# value there that reaches a Run* function links array, disk and sim in, and
# that alone moved every mem-* metric by 3 % (results/pr23_one_run.md).
bench-harness:
	cd benchmark && $(GO) test -race ./...
	cd benchmark && $(GO) build -o ../.bench_build/linkcheck .
	@linked=$$($(GO) tool nm .bench_build/linkcheck | grep -E ' declust/internal/(array|disk|sim|telemetry|metrics|fault)\.' || true); \
	if [ -n "$$linked" ]; then \
		echo "the benchmark binary links simulator packages:"; echo "$$linked" | head; exit 1; \
	fi

# Every Fuzz target in the module, FUZZTIME each, found by asking the
# packages for their lists — a new target needs no edit here. Today: the
# GF(2^8) slice kernels against the scalar field ops and each dispatching
# kernel against its portable loop, and the store's three
# on-disk parsers (superblock, intent log, checksum trailer) against oracles
# the tests compute. A failing input is written to testdata/fuzz/<target>/
# beside the test and from then on replayed by plain `go test`; check it
# in with the fix. Minimizing an input is capped at a second: the default
# minute, spent on an input whose "new coverage" was a file-system retry
# path in the standard library, left FuzzSuperblock 29 executions of its
# ten seconds (44 000 with the cap).
FUZZTIME ?= 10s
fuzz:
	@set -e; list=$$($(GO) test -list '^Fuzz' ./...); \
	echo "$$list" | awk '/^Fuzz/ { t[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2, t[i]; n = 0 }' | \
	while read pkg target; do \
		echo "fuzz $$pkg $$target $(FUZZTIME)"; \
		$(GO) test -run='^$$' -fuzz="^$$target\$$" -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s $$pkg </dev/null; \
	done

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
# times, so do the store's write-plan access counts and the generated range
# ops against a flat reference (a fresh seed each repetition) and the
# enumeration of a rebuild's failure points (which access comes k-th over
# the forced-open store varies with scheduling), and every fuzz target gets
# five minutes.
nightly:
	$(GO) test -race -run 'TestPQEveryTwoDisksRecover' -count=5 -v ./internal/store/
	$(GO) test -race -run 'TestRebuildAnyFailurePoint' -count=5 -v ./internal/store/
	$(GO) test -race -run 'TestCrashDuringWriteRecovers' -count=20 -v ./internal/store/
	$(GO) test -race -run 'TestChaosAcknowledged|TestChaos2F' -count=10 -v ./internal/store/
	$(GO) test -race -run 'TestOverlap' -count=20 ./internal/store/
	$(GO) test -race -run 'TestPoisonedPool|TestNarrowStripeErasures' -count=10 ./internal/store/
	$(GO) test -race -run 'TestWritePlanAccessCounts|TestGeneratedRangeOps' -count=10 -v ./internal/store/
	$(GO) test -race -run 'TestRebuildEveryFailurePoint|TestFailedRebuildLeavesStoreDegraded' -count=10 ./internal/store/
	$(MAKE) fuzz FUZZTIME=5m

vet:
	$(GO) vet ./...

# internal/gf256 has two bodies per slice kernel: AVX2 assembly where the
# CPU has it, the pure-Go table loops everywhere else. A host with AVX2
# never runs the second unasked, so run it — the purego tag leaves the
# assembly out, and the store's suite on top shows the engine's bytes do
# not depend on which body made them (a P+Q small write then runs two
# portable fused passes, XorMulAddSlice, per written unit: its old
# contents and its new); the same tag gives the store's large
# writes the standard library's generic crypto/subtle.XORBytes loop in
# place of its vector body — and vet the package for a platform that has
# no assembly at all: that is exactly what fails when a fast-path function
# lacks its portable twin. Both work offline.
portable:
	$(GO) test -tags purego ./internal/gf256 ./internal/store
	GOARCH=arm64 $(GO) vet ./internal/gf256 ./internal/store

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
# included), the portable GF(2^8) kernels under the store's suite, the
# fault-injection lifecycle smoke, the benchmark harness's own tests, ten
# seconds of each fuzz target (four of them: 40 s), and a benchmark smoke
# pass.
verify: fmt-check vet build race portable fault-smoke bench-harness fuzz bench-smoke
	@echo "verify: OK"

clean:
	$(GO) clean ./...
