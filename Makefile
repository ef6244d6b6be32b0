GO ?= go

# Static-analysis tool versions, pinned so lint results are reproducible;
# `go run pkg@version` fetches them on demand — no global install needed.
STATICCHECK_VERSION ?= v0.6.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build test race bench-smoke bench bench-layers store-chaos bench-harness fuzz nightly vet fmt-check portable fault-smoke lint cover verify clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole suite under the race detector, once: the parallel sweep driver
# and the -j commands, the observability stack (live telemetry server, span
# exporters, tracestat), the fault-injection stack, and the storage engine
# — the lifecycle suite's concurrent clients through failure and rebuild
# under P and P+Q (TestLifecycle), serial-vs-parallel
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

# The store's layer probes, five counts each: what a 4 KiB unit operation
# is made of — the trailer's crc32c (stamp, verify), one XOR pass, the
# stripe lock with the intent mark's fast path, the whole ReadUnit and
# WriteUnit under P and P+Q at C = 21, G = 5 (the in-package twin of the
# benchmark module's store.*.healthy_ns) — and the byte kernels under them:
# the GF(2^8) slice kernels, and the crc32c of one 4 KiB unit by the
# package's kernel (/dispatch) beside hash/crc32's loop (/stdlib). Compare
# parent and change on one host, as for every time here.
bench-layers:
	$(GO) test -run='^$$' -bench='^Benchmark(Trailer|XORBytes|StripeLockIntent|UnitOp)$$' -benchmem -count 5 ./internal/store
	$(GO) test -run='^$$' -bench=. -benchmem -count 5 ./internal/gf256
	$(GO) test -run='^$$' -bench='^BenchmarkChecksum$$' -benchmem -count 5 ./internal/crc32c

# The chaos rows of the lifecycle suite and the SIGKILL crash test under the
# race detector, verbosely: 12 workers against fault-injecting backends
# (transients, latent sector errors on every disk, torn writes, read
# corruption) while one disk (TestLifecycle/chaos/P) or two
# (TestLifecycle/chaos/P+Q) fail and rebuild mid-run. Faults may collide: a
# stripe past the code's budget loses its units (Stats.LostUnits) and a
# client restores a lost unit from its ledger. No write may fail, no more
# units may be restored than were booked lost, every other read and the
# final read-back must match byte-for-byte, and parity must end clean.
# `race` already runs these once, so this target
# is for replaying a failure: CHAOS_SEED=<seed> make store-chaos. Every run
# prints its seed; a failing one appends it to $STORE_CHAOS_DIR/<test
# name>.seed, the subtest's slashes turned into underscores
# (TestLifecycle_chaos_P+Q.seed), which CI uploads.
store-chaos:
	$(GO) test -race -run 'TestLifecycle/chaos|TestCrash' -count=1 -v ./internal/store/

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
# packages for their lists — a new target needs no edit here. Today nine:
# the GF(2^8) slice kernels against the scalar field ops and each
# dispatching kernel against its portable loop, the crc32c kernel
# (FuzzUpdate) against hash/crc32's Castagnoli table, the layout's helpers that
# place data around parity (FuzzParityPositions) against a brute-force scan
# of one stripe, the stripe plan (FuzzStripePlan) against the rules it is
# drawn from, the store's two-erasure decode (FuzzDecode) against a
# byte-at-a-time solution, the crc32c a parity's trailer is derived from
# (FuzzTrailerSum) against crc32.Checksum of the units' XOR, and
# the store's three on-disk parsers (superblock, intent log, checksum
# trailer) against oracles the tests compute. A failing input is written to testdata/fuzz/<target>/
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
# Every failure set the code corrects must recover — each disk under P,
# each pair under P+Q (TestEveryFailureSetRecovers) — and a rebuild must
# succeed from any mid-sweep failure point; the SIGKILL crash-recovery test
# runs twenty kills at fresh timing offsets; both chaos rows of the
# lifecycle suite, whose latent errors land on every disk and so collide
# into counted losses, run ten times under fresh seeds (each run prints its
# seed; failures replay with CHAOS_SEED=<seed>, and FaultDisk's draws are
# keyed per unit access, so the n-th access to a unit meets the same fault in
# every replay, ten times shown by TestFaultDiskReplaysPerUnitAccess under two
# opposite goroutine start orders); the concurrency-shape tests
# (TestOverlap*: rendezvous backends that hang unless a batch is issued as
# wide as it should be) run twenty times to show they do not flake; ten
# times each: the store's write and read access counts (the rows of the one
# table both engines read, internal/testdata/costs.txt), a rebuild's reads
# against the layout's decode rule, one disk down and two under P+Q (its
# shards interleave differently each run) and the generated range ops against a flat reference (a fresh seed
# each repetition, in memory and on files); the enumeration of a rebuild's
# failure points (which access comes k-th over the forced-open store varies
# with scheduling), the backend-ownership table, a second failure racing
# a running rebuild's sweep (its progress must survive) and the loss tests
# (a stripe past its budget loses its units, not the rebuild, through a
# later hard error, a disk with no replacement and a reopen, and a loss
# that will not clear is reported); and the Scrub
# suite with the sweep pacing test (a scrub's counts are state its shards
# share, under one mutex) and the damage matrix (TestErasureBudget: every
# path that can meet a damaged unit, both codes, serial and overlapped);
# and TestPlanesAgree, the store held to the simulator on one seeded
# stream of reads, writes, failures, rebuilds and latent units, ten times,
# each with a fresh seed beside its fixed ones (printed; CHAOS_SEED=<seed>
# replays one, and a failing one is appended under $STORE_CHAOS_DIR).
# Every fuzz target gets five minutes.
nightly:
	$(GO) test -race -run 'TestEveryFailureSetRecovers' -count=5 -v ./internal/store/
	$(GO) test -race -run 'TestRebuildAnyFailurePoint' -count=5 -v ./internal/store/
	$(GO) test -race -run 'TestCrashDuringWriteRecovers' -count=20 -v ./internal/store/
	$(GO) test -race -run 'TestLifecycle/chaos|TestFaultDiskReplaysPerUnitAccess' -count=10 -v ./internal/store/
	$(GO) test -race -run 'TestOverlap' -count=20 ./internal/store/
	$(GO) test -race -run 'TestWritePlanAccessCounts|TestReadAccessCounts|TestRebuildReadsMatchLayout|TestGeneratedRangeOps' -count=10 -v ./internal/store/
	$(GO) test -race -run 'TestRebuildEveryFailurePoint|TestFailedRebuildLeavesStoreDegraded|TestSecondFailureKeepsRebuildProgress|TestRebuildLosesAUnitNotTheArray|TestLossThenFailedRebuild|TestLostUnitOnDownDiskRebuildsAsPoison|TestLossOutlivesReopen|TestLossThatWillNotClearIsReported|TestWritingAPoisonBlockIsRefused' -count=10 ./internal/store/
	$(GO) test -race -run 'TestScrub|TestErasureBudget|TestParityDoubtOutlivesDegradedScrub|TestSweepPacing' -count=10 ./internal/store/
	$(GO) test -race -run 'TestPlanesAgree' -count=10 -v ./internal/store/
	$(MAKE) fuzz FUZZTIME=5m

vet:
	$(GO) vet ./...

# internal/gf256 has two bodies per slice kernel: AVX2 assembly where the
# CPU has it, the pure-Go table loops everywhere else; internal/crc32c has
# an AVX-512 carry-less-multiply body where the CPU has AVX-512F and
# VPCLMULQDQ, and hash/crc32 everywhere else. A host with the features
# never runs the second body unasked, so run it — the purego tag leaves the
# assembly out, and the store's suite on top shows the engine's bytes do
# not depend on which body made them (a P+Q small write then runs one
# portable fused pass, XorMulAddSlice, per written unit, over its old
# contents XOR its new, and every trailer is stamped and verified by
# hash/crc32); the same tag gives every XOR pass in the
# store the standard library's generic crypto/subtle.XORBytes loop in
# place of its vector body — and vet the packages for a platform that has
# no assembly at all: that is exactly what fails when a fast-path function
# lacks its portable twin. Both work offline.
portable:
	$(GO) test -tags purego ./internal/gf256 ./internal/crc32c ./internal/store
	GOARCH=arm64 $(GO) vet ./internal/gf256 ./internal/crc32c ./internal/store

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
# included), the portable GF(2^8) and crc32c kernels under the store's
# suite, the fault-injection lifecycle smoke, the benchmark harness's own
# tests, ten seconds of each fuzz target (nine of them: 90 s), and a
# benchmark smoke pass.
verify: fmt-check vet build race portable fault-smoke bench-harness fuzz bench-smoke
	@echo "verify: OK"

clean:
	$(GO) clean ./...
