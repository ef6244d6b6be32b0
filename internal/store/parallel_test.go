package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"declust/internal/layout"
)

// The parallel fast path must be invisible in results: a store with
// IOWorkers>1 returns the same bytes, maintains the same parity, and
// honors the same crash contract as the serial engine. These tests pin
// that equivalence, the group-commit batching, and the error-aggregation
// contracts of Sync and Close.

// driveTwin applies the same seeded operation mix to the serial store and
// to every parallel one; any divergence in results or errors fails the
// test.
func driveTwin(t *testing.T, rng *rand.Rand, serial *Store, parallel []*Store, ops int) {
	t.Helper()
	us := int64(serial.UnitSize())
	total := serial.DataUnits()
	want := make([]byte, 8*us)
	got := make([]byte, 8*us)
	for i := 0; i < ops; i++ {
		kind := rng.Intn(4)
		units := int64(1)
		if kind >= 2 {
			units = 1 + rng.Int63n(8)
		}
		start := rng.Int63n(total - units + 1)
		span := want[:units*us]
		op := [...]string{"WriteUnit", "ReadUnit", "WriteRange", "ReadRange"}[kind]
		do := func(s *Store, buf []byte) error {
			switch kind {
			case 0:
				return s.WriteUnit(start, buf)
			case 1:
				return s.ReadUnit(start, buf)
			case 2:
				return s.WriteRange(start, buf)
			}
			return s.ReadRange(start, buf)
		}
		if kind%2 == 0 {
			for u := int64(0); u < units; u++ {
				fill(span[u*us:(u+1)*us], start+u, uint64(i))
			}
		}
		if err := do(serial, span); err != nil {
			t.Fatalf("op %d: serial %s(%d, %d units): %v", i, op, start, units, err)
		}
		for _, p := range parallel {
			buf := span
			if kind%2 == 1 {
				buf = got[:units*us]
			}
			if err := do(p, buf); err != nil {
				t.Fatalf("op %d: IOWorkers=%d %s(%d, %d units): %v", i, p.ioWorkers, op, start, units, err)
			}
			if !bytes.Equal(buf, span) {
				t.Fatalf("op %d: %s(%d, %d units) diverges between serial and IOWorkers=%d", i, op, start, units, p.ioWorkers)
			}
		}
	}
}

// compareStores asserts that every parallel store's disks hold, unit for
// unit and trailer included, the bytes the serial store's do, and that all
// of them pass CheckParity. Call it with no disk failed.
func compareStores(t *testing.T, serial *Store, parallel []*Store) {
	t.Helper()
	want := make([]byte, serial.physSize)
	got := make([]byte, serial.physSize)
	for _, p := range append([]*Store{serial}, parallel...) {
		if err := p.CheckParity(); err != nil {
			t.Fatalf("IOWorkers=%d CheckParity: %v", p.ioWorkers, err)
		}
	}
	for d, ref := range serial.st.Load().disks {
		for off := int64(0); off < serial.unitsPerDisk; off++ {
			if err := ref.ReadUnit(off, want); err != nil {
				t.Fatalf("serial disk %d unit %d: %v", d, off, err)
			}
			for _, p := range parallel {
				if err := p.st.Load().disks[d].ReadUnit(off, got); err != nil {
					t.Fatalf("IOWorkers=%d disk %d unit %d: %v", p.ioWorkers, d, off, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("disk %d unit %d differs on disk between serial and IOWorkers=%d", d, off, p.ioWorkers)
				}
			}
		}
	}
}

// TestParallelMatchesSerial drives a serial store (IOWorkers=1) and three
// parallel ones — IOWorkers 2, 8 and 64: one helper per batch, the usual
// width, and wider than any batch or nest of batches there is, with every
// batch forced through the fan-out — through the same seeded lifecycle:
// healthy ops, as many failures as the code corrects, degraded ops, the
// rebuilds, a scrub, healed ops, under P and under P+Q. Every read must
// return the serial store's bytes and, wherever no disk is failed, the
// on-disk images must be identical.
func TestParallelMatchesSerial(t *testing.T) { parallelMatchesSerial(t, New) }

// parallelMatchesSerial is the test over stores opened by open: New, or
// newPoisoned (poison_test.go).
func parallelMatchesSerial(t *testing.T, open func(Config) (*Store, error)) {
	forceOverlap(t)
	for _, code := range []struct {
		name string
		lay  layout.Layout
	}{
		{"P", testLayout(t, 7, 4)},
		{"P+Q", testPQLayout(t, 7, 4)},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", code.name, seed), func(t *testing.T) {
				lay := code.lay
				mk := func(io, rw int) *Store {
					s, err := open(Config{
						Layout: lay, UnitsPerDisk: 48, UnitSize: 512,
						IOWorkers: io, RebuildWorkers: rw,
					})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { s.Close() })
					return s
				}
				serial := mk(1, 1)
				parallel := []*Store{mk(2, 2), mk(8, 4), mk(64, 4)}
				all := append([]*Store{serial}, parallel...)
				rng := rand.New(rand.NewSource(seed))

				driveTwin(t, rng, serial, parallel, 200)
				compareStores(t, serial, parallel)

				for _, victim := range rng.Perm(lay.Disks())[:serial.Parities()] {
					for _, s := range all {
						if err := s.Fail(victim); err != nil {
							t.Fatalf("IOWorkers=%d Fail(%d): %v", s.ioWorkers, victim, err)
						}
					}
					driveTwin(t, rng, serial, parallel, 200)
				}
				for range serial.FailedDisks() {
					for _, s := range all {
						if err := s.Rebuild(NewMemDisk(48, 512)); err != nil {
							t.Fatalf("IOWorkers=%d rebuild: %v", s.ioWorkers, err)
						}
					}
					driveTwin(t, rng, serial, parallel, 100)
				}
				for _, s := range all {
					if res, err := s.Scrub(); err != nil || res.UnitRepairs+res.ParityRewrites != 0 {
						t.Fatalf("IOWorkers=%d scrub after the rebuilds: %+v, %v", s.ioWorkers, res, err)
					}
				}
				compareStores(t, serial, parallel)
				for _, p := range parallel {
					if st := p.Stats(); st.FanOuts == 0 {
						t.Fatalf("the IOWorkers=%d store never fanned out: %+v", p.ioWorkers, st)
					}
				}
			})
		}
	}
}

// TestIntentGroupCommit pins the group-commit window: while a leader's
// MarkBatch durability barrier is in flight, first-writers to other clean
// regions queue up and are drained by the leader as one batch — one
// barrier for all of them.
func TestIntentGroupCommit(t *testing.T) {
	// The log records every MarkBatch and holds the first until gate
	// closes, letting the test pile followers onto the group-commit queue.
	var (
		mu      sync.Mutex
		batches [][]int64
	)
	gate := make(chan struct{})
	il := &scriptedIntent{under: new(memIntent), hook: func(c call, pass func() error) error {
		if c.op != opMarkBatch {
			return pass()
		}
		mu.Lock()
		batches = append(batches, slices.Clone(c.regions))
		first := len(batches) == 1
		mu.Unlock()
		if first {
			<-gate
		}
		return pass()
	}}
	lay := testLayout(t, 7, 4)
	s := openStore(t, Config{
		Layout: lay, UnitsPerDisk: 512, UnitSize: 512,
		IOWorkers: 4, Intent: il,
	})
	regions := intentRegions(s.Stripes())
	const followers = 4
	if regions < followers+1 {
		t.Fatalf("store has %d intent regions, test needs %d", regions, followers+1)
	}
	// Logical unit landing in region r: first data unit of stripe r*64.
	unitIn := func(r int64) int64 { return r * intentRegionStripes * int64(lay.G()-1) }
	buf := make([]byte, 512)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // leader: first write into region 0, blocks in MarkBatch
		defer wg.Done()
		if err := s.WriteUnit(unitIn(0), buf); err != nil {
			t.Errorf("leader write: %v", err)
		}
	}()
	waitFor(t, "leader to enter MarkBatch", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(batches) == 1
	})
	wg.Add(followers)
	for i := 1; i <= followers; i++ {
		go func(r int64) { // followers: first writes into regions 1..4
			defer wg.Done()
			if err := s.WriteUnit(unitIn(r), buf); err != nil {
				t.Errorf("follower write region %d: %v", r, err)
			}
		}(int64(i))
	}
	waitFor(t, "followers to queue", func() bool {
		s.intentMu.Lock()
		defer s.intentMu.Unlock()
		return len(s.intentPend) == followers
	})
	close(gate)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(batches) != 2 {
		t.Fatalf("got %d MarkBatch calls, want 2 (leader + one coalesced batch): %v", len(batches), batches)
	}
	if len(batches[0]) != 1 || batches[0][0] != 0 {
		t.Fatalf("leader batch = %v, want [0]", batches[0])
	}
	got := map[int64]bool{}
	for _, r := range batches[1] {
		got[r] = true
	}
	if len(got) != followers {
		t.Fatalf("coalesced batch = %v, want regions 1..%d", batches[1], followers)
	}
	for r := int64(1); r <= followers; r++ {
		if !got[r] {
			t.Fatalf("coalesced batch %v is missing region %d", batches[1], r)
		}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIntentMarkFailureSurfaces pins error delivery through the group
// commit: every waiter whose region failed to mark gets the error, and a
// later writer retries the mark rather than trusting a phantom success.
// A clear that fails is Sync's error.
func TestIntentMarkFailureSurfaces(t *testing.T) {
	sentinel := errors.New("barrier torn")
	markErr, clearErr := sentinel, error(nil) // what MarkBatch and ClearBatch deliver instead of their work
	s := openStore(t, Config{
		Layout: testLayout(t, 7, 4), UnitsPerDisk: 48, UnitSize: 512,
		Intent: &scriptedIntent{under: new(memIntent), hook: func(c call, pass func() error) error {
			switch {
			case c.op == opMarkBatch && markErr != nil:
				return markErr
			case c.op == opClearBatch && clearErr != nil:
				return clearErr
			}
			return pass()
		}},
	})
	buf := make([]byte, 512)
	if err := s.WriteUnit(0, buf); !errors.Is(err, sentinel) {
		t.Fatalf("WriteUnit with failing intent log = %v, want %v", err, sentinel)
	}
	markErr = nil // log recovers; the next write must re-mark and succeed
	if err := s.WriteUnit(0, buf); err != nil {
		t.Fatalf("WriteUnit after intent log recovered: %v", err)
	}
	if !s.regionDirty[0].Load() {
		t.Fatal("region 0 not marked dirty after successful retry")
	}
	clearErr = sentinel
	if err := s.Sync(); !errors.Is(err, sentinel) {
		t.Fatalf("Sync with a failing ClearBatch = %v, want %v", err, sentinel)
	}
}

// TestSyncAggregatesBackendErrors pins the errors.Join contract: with two
// failing backends, Sync reports both, not just the first.
func TestSyncAggregatesBackendErrors(t *testing.T) {
	lay := testLayout(t, 7, 4)
	e2 := errors.New("disk 2 sync lost")
	e5 := errors.New("disk 5 sync lost")
	disks := scriptedDisks(lay.Disks(), 48, 512, failWith(opSync, map[int]error{2: e2, 5: e5}))
	disks[5] = embedded{disks[5]} // reached behind a wrapper too
	s := openStore(t, Config{Layout: lay, UnitsPerDisk: 48, UnitSize: 512, Disks: disks})
	err := s.Sync()
	if !errors.Is(err, e2) || !errors.Is(err, e5) {
		t.Fatalf("Sync = %v, want both backend errors joined", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "disk 2") || !strings.Contains(msg, "disk 5") {
		t.Fatalf("Sync error %q does not name both disks", msg)
	}
	// A replacement that a running rebuild writes is synced too, its error
	// joined with the members'.
	eR := errors.New("replacement sync lost")
	replFails := failWith(opSync, map[int]error{3: eR})
	var first sync.Once
	var during error
	syncOnFirstWrite := func(c call, pass func() error) error {
		if c.op == opWrite {
			first.Do(func() { during = s.Sync() })
		}
		return replFails(c, pass)
	}
	if err := s.Fail(3); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(&scriptedDisk{under: NewMemDisk(48, 512), slot: 3, hook: syncOnFirstWrite}); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(during, eR) || !errors.Is(during, e2) || !strings.Contains(fmt.Sprint(during), "sync replacement") {
		t.Fatalf("Sync during a rebuild = %v, want the replacement's error joined with the members'", during)
	}
}

// TestCloseAggregatesBackendErrors pins the same contract for Close, the
// intent log's error joined with the backends'.
func TestCloseAggregatesBackendErrors(t *testing.T) {
	lay := testLayout(t, 7, 4)
	e1 := errors.New("disk 1 will not close")
	e4 := errors.New("disk 4 will not close")
	eLog := errors.New("intent log will not close")
	closeFails := failWith(opClose, map[int]error{1: e1, 4: e4, -1: eLog})
	s, err := New(Config{Layout: lay, UnitsPerDisk: 48, UnitSize: 512,
		Disks:  scriptedDisks(lay.Disks(), 48, 512, closeFails),
		Intent: &scriptedIntent{under: new(memIntent), hook: closeFails}})
	if err != nil {
		t.Fatal(err)
	}
	err = s.Close()
	if !errors.Is(err, e1) || !errors.Is(err, e4) || !errors.Is(err, eLog) {
		t.Fatalf("Close = %v, want the backends' and the intent log's errors joined", err)
	}
}

// TestWorkerConfigValidation pins the IOWorkers/RebuildWorkers bounds and
// defaulting rules.
func TestWorkerConfigValidation(t *testing.T) {
	lay := testLayout(t, 7, 4)
	base := func() Config { return Config{Layout: lay, UnitsPerDisk: 48, UnitSize: 512} }

	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"negative IOWorkers", func(c *Config) { c.IOWorkers = -1 }},
		{"huge IOWorkers", func(c *Config) { c.IOWorkers = 2048 }},
		{"negative RebuildWorkers", func(c *Config) { c.RebuildWorkers = -3 }},
		{"huge RebuildWorkers", func(c *Config) { c.RebuildWorkers = 4096 }},
		{"negative Retries", func(c *Config) { c.Retries = -1 }},
		{"huge Retries", func(c *Config) { c.Retries = 17 }},
	} {
		cfg := base()
		tc.mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted invalid config", tc.name)
		}
	}

	s, err := New(func() Config { c := base(); c.IOWorkers = 6; return c }())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.ioWorkers != 6 || s.rebuildWorkers != 6 {
		t.Fatalf("IOWorkers=6 gave (io=%d, rebuild=%d), want RebuildWorkers to default to IOWorkers",
			s.ioWorkers, s.rebuildWorkers)
	}
}

// TestFanOutSerialFallback pins that a batch that is not overlapped (here:
// a store configured serial) runs in index order on the caller with
// first-error-wins, exactly the serial engine.
func TestFanOutSerialFallback(t *testing.T) {
	s := openStore(t, Config{Layout: testLayout(t, 7, 4), UnitsPerDisk: 48, UnitSize: 512, IOWorkers: 1})
	var order []int
	sentinel := errors.New("item 3 failed")
	err := s.fanOutFunc(6, func(i int) error {
		order = append(order, i) // no mutex: serial fallback must not spawn helpers
		if i == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("fanOut = %v, want %v", err, sentinel)
	}
	want := []int{0, 1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("serial fanOut ran items %v, want %v (abort after first error)", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("serial fanOut ran items %v, want %v", order, want)
		}
	}
}

// TestFanOutParallelFirstErrorWins pins that with helpers engaged the
// lowest-indexed error is the one returned.
func TestFanOutParallelFirstErrorWins(t *testing.T) {
	forceOverlap(t)
	s := openStore(t, Config{Layout: testLayout(t, 7, 4), UnitsPerDisk: 48, UnitSize: 512, IOWorkers: 8})
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for round := 0; round < 50; round++ {
		err := s.fanOutFunc(8, func(i int) error {
			switch i {
			case 2:
				return errLow
			case 6:
				time.Sleep(time.Microsecond)
				return errHigh
			}
			return nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("round %d: fanOut = %v, want lowest-indexed error %v", round, err, errLow)
		}
	}
}
