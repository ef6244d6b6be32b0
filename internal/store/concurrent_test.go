package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentClientsThroughFailureAndRebuild is the engine's
// continuous-operation acceptance test: 12 client goroutines read and
// write through the store while a disk fails, serves degraded traffic,
// and rebuilds onto a replacement — all under the race detector when run
// via `make race`. Each client owns a disjoint slice of the logical
// space and verifies every read against its own last write, so any
// corruption (including rebuild racing user writes on a stripe) is
// detected at the byte level. The main goroutine gates the rebuild on
// observed on-the-fly reconstructions, so the degraded window is
// provably exercised.
func TestConcurrentClientsThroughFailureAndRebuild(t *testing.T) {
	const workers = 12
	lay := testLayout(t, 7, 3)
	s, err := New(Config{
		Layout:       lay,
		UnitsPerDisk: 64,
		UnitSize:     512,
		// Slow the sweep so rebuild genuinely overlaps client traffic.
		RebuildThrottle: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	total := s.DataUnits()
	if total < workers {
		t.Fatalf("store too small: %d units for %d workers", total, workers)
	}
	per := total / workers

	var (
		stop    atomic.Bool
		wg      sync.WaitGroup
		mu      sync.Mutex
		failure error
	)
	report := func(err error) {
		mu.Lock()
		if failure == nil {
			failure = err
		}
		mu.Unlock()
		stop.Store(true)
	}

	// version[n] is the last version written to unit n, owned exclusively
	// by the worker owning n; read afterward by the final verify.
	version := make([]uint64, total)

	for w := 0; w < workers; w++ {
		lo := int64(w) * per
		hi := lo + per
		if w == workers-1 {
			hi = total
		}
		wg.Add(1)
		go func(w int, lo, hi int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			buf := make([]byte, s.UnitSize())
			want := make([]byte, s.UnitSize())
			for !stop.Load() {
				n := lo + rng.Int63n(hi-lo)
				if rng.Intn(2) == 0 || version[n] == 0 {
					version[n]++
					fill(buf, n, version[n])
					if err := s.WriteUnit(n, buf); err != nil {
						report(fmt.Errorf("worker %d: WriteUnit(%d): %w", w, n, err))
						return
					}
					continue
				}
				if err := s.ReadUnit(n, buf); err != nil {
					report(fmt.Errorf("worker %d: ReadUnit(%d): %w", w, n, err))
					return
				}
				fill(want, n, version[n])
				if !bytes.Equal(buf, want) {
					report(fmt.Errorf("worker %d: unit %d corrupted: read does not match version %d", w, n, version[n]))
					return
				}
			}
		}(w, lo, hi)
	}

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !cond() {
			if stop.Load() || time.Now().After(deadline) {
				stop.Store(true)
				wg.Wait()
				if failure != nil {
					t.Fatal(failure)
				}
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Let fault-free traffic flow, then pull a disk.
	waitFor("fault-free traffic", func() bool { st := s.Stats(); return st.Reads > 200 && st.Writes > 200 })
	if err := s.Fail(2); err != nil {
		t.Fatal(err)
	}
	// The degraded window must demonstrably serve reconstructed reads
	// and parity-folded writes before the rebuild may begin.
	waitFor("on-the-fly reconstructions", func() bool { return s.Stats().DegradedReads > 20 })
	waitFor("parity-folded writes", func() bool { return s.Stats().FoldedWrites > 0 })

	rebuildErr := make(chan error, 1)
	go func() { rebuildErr <- s.Rebuild(NewMemDisk(s.unitsPerDisk, s.UnitSize())) }()
	if err := <-rebuildErr; err != nil {
		stop.Store(true)
		wg.Wait()
		t.Fatal(err)
	}
	if got := s.Mode(); got != Healthy {
		t.Fatalf("mode %v after rebuild, want healthy", got)
	}
	// Traffic continues on the healed array before shutdown.
	post := s.Stats().Reads
	waitFor("post-heal traffic", func() bool { return s.Stats().Reads > post+100 })
	stop.Store(true)
	wg.Wait()
	if failure != nil {
		t.Fatal(failure)
	}

	// Quiesced: every unit equals its owner's last write, and every
	// stripe's parity equation balances — including the rebuilt disk.
	buf := make([]byte, s.UnitSize())
	want := make([]byte, s.UnitSize())
	for n := int64(0); n < total; n++ {
		if version[n] == 0 {
			continue
		}
		if err := s.ReadUnit(n, buf); err != nil {
			t.Fatalf("final ReadUnit(%d): %v", n, err)
		}
		fill(want, n, version[n])
		if !bytes.Equal(buf, want) {
			t.Fatalf("unit %d corrupted after rebuild: want version %d", n, version[n])
		}
	}
	if err := s.CheckParity(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.DegradedReads == 0 || st.Rebuilds != 1 || st.RebuiltUnits == 0 {
		t.Fatalf("stats do not show the scenario ran: %+v", st)
	}
	t.Logf("stats: %+v", st)
}

// TestConcurrentRangeWritersWithRebuild drives multi-unit range
// operations (large-write and partial-stripe paths) from several
// goroutines across a failure and rebuild.
func TestConcurrentRangeWritersWithRebuild(t *testing.T) {
	forceOverlap(t)
	const workers = 8
	lay := testLayout(t, 7, 3)
	s, err := New(Config{
		Layout:       lay,
		UnitsPerDisk: 64,
		UnitSize:     512,
		// Fan range-op stripe jobs and a sharded rebuild under -race.
		IOWorkers:       8,
		RebuildWorkers:  4,
		RebuildThrottle: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	total := s.DataUnits()
	per := total / workers
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		lo := int64(w) * per
		wg.Add(1)
		go func(w int, lo int64) {
			defer wg.Done()
			us := int64(s.UnitSize())
			span := per
			src := make([]byte, span*us)
			dst := make([]byte, span*us)
			for round := uint64(1); !stop.Load(); round++ {
				for i := int64(0); i < span; i++ {
					fill(src[i*us:(i+1)*us], lo+i, round)
				}
				if err := s.WriteRange(lo, src); err != nil {
					errs <- fmt.Errorf("worker %d: WriteRange: %w", w, err)
					return
				}
				if err := s.ReadRange(lo, dst); err != nil {
					errs <- fmt.Errorf("worker %d: ReadRange: %w", w, err)
					return
				}
				if !bytes.Equal(src, dst) {
					errs <- fmt.Errorf("worker %d: round %d: range read-back mismatch", w, round)
					return
				}
			}
		}(w, lo)
	}

	time.Sleep(20 * time.Millisecond)
	if err := s.Fail(5); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if err := s.Rebuild(NewMemDisk(s.unitsPerDisk, s.UnitSize())); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.CheckParity(); err != nil {
		t.Fatal(err)
	}
}
