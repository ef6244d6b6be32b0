package store

import (
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"

	"declust/internal/layout"
)

func TestScrubCleanStoreVerifiesEverything(t *testing.T) {
	s := newTestStore(t, 7, 3, 64, 512)
	fillAll(t, s, 1)
	res, err := s.Scrub()
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if res.Stripes != s.Stripes() || res.Skipped != 0 {
		t.Fatalf("scrubbed %d stripes (skipped %d), want %d (0)", res.Stripes, res.Skipped, s.Stripes())
	}
	if res.UnitRepairs != 0 || res.ParityRewrites != 0 || res.Unrecoverable != 0 {
		t.Fatalf("clean store needed repairs: %+v", res)
	}
	if s.Stats().Scrubs != 1 {
		t.Fatalf("Scrubs = %d, want 1", s.Stats().Scrubs)
	}
}

// TestScrubReadsEachUnitOnce pins a serial scrub's backend reads at C = 7,
// G = 4, 24 units per disk: every unit once, 168, and beside a rotted unit
// only its own re-reads — readPhys reads a unit whose trailer does not
// verify 1 + Retries times, 3 more — and nothing else. Within the budget
// the damaged units are solved from the units the pass read; past it the
// stripe is rewritten from the data units the pass read (loseStripe); and
// a parity whose write was dropped is recomputed from the pass's sum and
// the contents the pass read it with, not read again.
func TestScrubReadsEachUnitOnce(t *testing.T) {
	for _, tc := range []struct {
		name      string
		m, rotted int
		dropP     bool // a write of stripe 0's data unit 0 lands, and its P write is dropped
		reads     int64
	}{
		{"clean", 1, 0, false, 168},
		{"P/one-rotted", 1, 1, false, 171},
		{"P+Q/one-rotted", 2, 1, false, 171},
		{"P+Q/two-rotted", 2, 2, false, 174},
		{"P/two-rotted-lost", 1, 2, false, 174},
		{"P/lost-parity-write", 1, 0, true, 168},
		{"P+Q/lost-parity-write", 2, 0, true, 168},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lay := testLayout(t, 7, 4)
			if tc.m == 2 {
				lay = testPQLayout(t, 7, 4)
			}
			var reads atomic.Int64
			var drop atomic.Bool
			p := layout.ParityLocOf(lay, 0, 0)
			s := scriptedStore(t, Config{Layout: lay, UnitsPerDisk: 24, UnitSize: 512, IOWorkers: 1, RebuildWorkers: 1},
				func(c call, pass func() error) error {
					if c.op == opRead {
						reads.Add(1)
					}
					if c.op == opWrite && c.disk == p.Disk && c.off == p.Offset && drop.CompareAndSwap(true, false) {
						return nil // acknowledged, dropped
					}
					return pass()
				})
			fillAll(t, s, 1)
			for d := range tc.rotted {
				rot(t, s, lay.Unit(0, layout.DataPos(lay, 0, d)))
			}
			if tc.dropP {
				drop.Store(true)
				buf := make([]byte, s.UnitSize())
				fill(buf, 0, 2)
				if err := s.WriteUnit(0, buf); err != nil {
					t.Fatal(err)
				}
			}
			reads.Store(0)
			res, err := s.Scrub()
			if err != nil {
				t.Fatal(err)
			}
			if got := reads.Load(); got != tc.reads {
				t.Errorf("scrub read %d units, want %d", got, tc.reads)
			}
			lost := tc.rotted > tc.m
			if res.UnitRepairs != int64(b2i(tc.rotted > 0 && !lost)) || res.Unrecoverable != int64(b2i(lost)) || res.ParityRewrites != int64(b2i(tc.dropP)) {
				t.Errorf("scrub result %+v", res)
			}
			if err := s.CheckParity(); err != nil {
				t.Fatal(err)
			}
			for n := int64(0); n < s.DataUnits(); n++ {
				switch {
				case tc.dropP && n == 0:
					verifyUnit(t, s, n, 2)
				case !lost || n >= int64(tc.rotted):
					verifyUnit(t, s, n, 1)
				}
			}
		})
	}
}

func TestScrubDetectsLostParityWrite(t *testing.T) {
	lay := testLayout(t, 7, 3)
	// Drop the parity commit of one write: data goes down, parity stays
	// stale. The unit checksums all verify — only the parity equation
	// betrays the lost write, and the scrub resolves it in favor of data.
	n := int64(3)
	stripe, _ := lay.Locate(layout.DataLoc(lay, n))
	ploc := layout.ParityLoc(lay, stripe)
	var lose atomic.Bool
	s := scriptedStore(t, Config{Layout: lay, UnitsPerDisk: 64, UnitSize: 512}, func(c call, pass func() error) error {
		if c.op == opWrite && c.disk == ploc.Disk && c.off == ploc.Offset && lose.CompareAndSwap(true, false) {
			return nil // acknowledged, dropped
		}
		return pass()
	})
	fillAll(t, s, 1)
	lose.Store(true)
	buf := make([]byte, s.UnitSize())
	fill(buf, n, 2)
	if err := s.WriteUnit(n, buf); err != nil {
		t.Fatalf("WriteUnit with lost parity: %v", err)
	}
	if err := s.CheckParity(); err == nil {
		t.Fatal("CheckParity missed the stale parity unit")
	}
	res, err := s.Scrub()
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if res.ParityRewrites != 1 {
		t.Fatalf("ParityRewrites = %d, want 1", res.ParityRewrites)
	}
	if err := s.CheckParity(); err != nil {
		t.Fatalf("CheckParity after scrub: %v", err)
	}
	verifyUnit(t, s, n, 2)
}

func TestScrubSkipsDegradedStripes(t *testing.T) {
	s := newTestStore(t, 7, 3, 64, 512)
	fillAll(t, s, 1)
	if err := s.Fail(0); err != nil {
		t.Fatal(err)
	}
	res, err := s.Scrub()
	if err != nil {
		t.Fatalf("Scrub degraded: %v", err)
	}
	if res.Skipped == 0 {
		t.Fatal("degraded scrub skipped no stripes")
	}
	if res.Stripes+res.Skipped != s.Stripes() {
		t.Fatalf("scrubbed %d + skipped %d != %d stripes", res.Stripes, res.Skipped, s.Stripes())
	}
}

// TestParityDoubtOutlivesDegradedScrub pins the latch a failed commit sets:
// from the write that could not finish its stripe until a Scrub has
// verified every stripe, Sync clears no intent region. A sweep with a disk
// failed skips the stripes that disk touches — the one in doubt among them
// — and must leave the latch set; once the disk is rebuilt a clean sweep
// of the whole array releases it and the next Sync clears.
func TestParityDoubtOutlivesDegradedScrub(t *testing.T) {
	lay := testLayout(t, 7, 4)
	pLoc := layout.ParityLocOf(lay, 0, 0) // unit 0 is a data unit of stripe 0
	var planted atomic.Bool
	planted.Store(true)
	clears := 0
	s := scriptedStore(t, Config{Layout: lay, UnitsPerDisk: 48, UnitSize: 512, IOWorkers: 1,
		Intent: &scriptedIntent{under: new(memIntent), hook: func(c call, pass func() error) error {
			if c.op == opClearBatch {
				clears++
			}
			return pass()
		}}},
		func(c call, pass func() error) error {
			if c.op == opWrite && c.disk == pLoc.Disk && c.off == pLoc.Offset && planted.Load() {
				return errPlanted
			}
			return pass()
		})
	syncClears := func(when string, want int) {
		t.Helper()
		if err := s.Sync(); err != nil {
			t.Fatalf("Sync %s: %v", when, err)
		}
		if clears != want {
			t.Fatalf("%d ClearBatch calls %s, want %d", clears, when, want)
		}
	}

	buf := make([]byte, s.UnitSize())
	fill(buf, 0, 1)
	if err := s.WriteUnit(0, buf); !errors.Is(err, errPlanted) {
		t.Fatalf("WriteUnit over a failing parity write = %v, want %v", err, errPlanted)
	}
	planted.Store(false)
	if !s.parityDoubt.Load() {
		t.Fatal("a commit that failed mid-stripe did not latch parity doubt")
	}
	syncClears("after the failed write", 0)

	// The parity unit that missed its write goes with its disk, so the
	// rebuild recomputes it from the data that did land.
	if err := s.Fail(pLoc.Disk); err != nil {
		t.Fatal(err)
	}
	res, err := s.Scrub()
	if err != nil || res.Skipped == 0 || res.Unrecoverable != 0 {
		t.Fatalf("degraded scrub: %+v, %v", res, err)
	}
	if !s.parityDoubt.Load() {
		t.Fatal("a scrub that skipped the stripe in doubt released the latch")
	}
	syncClears("after a scrub that skipped stripes", 0)

	if err := s.Rebuild(NewMemDisk(48, 512)); err != nil {
		t.Fatal(err)
	}
	if res, err := s.Scrub(); err != nil || res.Skipped != 0 || res.ParityRewrites+res.UnitRepairs != 0 {
		t.Fatalf("scrub after the rebuild: %+v, %v", res, err)
	}
	if s.parityDoubt.Load() {
		t.Fatal("a clean scrub of every stripe left the latch set")
	}
	syncClears("after a clean scrub of the whole array", 1)
	if err := s.CheckParity(); err != nil {
		t.Fatal(err)
	}
}

// TestIntentRecoveryResyncsDirtyRegions simulates a crash by abandoning a
// file-backed store (no Close, so its intent log still has the written
// region marked) after dropping a parity commit, then reopens over the
// same files and expects the recovery pass to repair the stripe.
func TestIntentRecoveryResyncsDirtyRegions(t *testing.T) {
	dir := t.TempDir()
	lay := testLayout(t, 5, 5)
	usable := layout.UsableUnitsPerDisk(lay, 40)

	// Once armed, the next write of the unit at lose is acknowledged and
	// dropped.
	var (
		lose  layout.Loc
		armed atomic.Bool
	)
	open := func() *Store {
		disks, err := OpenFileDisks(dir, 5, usable, 512)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range disks {
			disks[i] = &scriptedDisk{under: d, slot: i, hook: func(c call, pass func() error) error {
				if c.op == opWrite && c.disk == lose.Disk && c.off == lose.Offset && armed.CompareAndSwap(true, false) {
					return nil
				}
				return pass()
			}}
		}
		s, err := New(Config{
			Layout:       lay,
			UnitsPerDisk: 40,
			UnitSize:     512,
			Disks:        disks,
			Intent:       OpenFileIntent(filepath.Join(dir, "intent.log")),
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	s1 := open()
	fillAll(t, s1, 1)
	if err := s1.Sync(); err != nil {
		t.Fatal(err)
	}
	// Re-dirty one region with a write whose parity commit is dropped.
	n := int64(2)
	loc := layout.DataLoc(s1.lay, n)
	stripe, _ := s1.lay.Locate(loc)
	lose = layout.ParityLoc(s1.lay, stripe)
	armed.Store(true)
	buf := make([]byte, 512)
	fill(buf, n, 2)
	if err := s1.WriteUnit(n, buf); err != nil {
		t.Fatal(err)
	}
	// "Crash": abandon s1 without Close or Sync. The region is still
	// marked in intent.log and the parity on disk is stale.

	s2 := open()
	defer s2.Close()
	st := s2.Stats()
	if st.ResyncedStripes == 0 {
		t.Fatal("reopen found no dirty regions to resync")
	}
	if st.ResyncRepairs == 0 {
		t.Fatal("recovery pass repaired nothing despite a stale parity unit")
	}
	if err := s2.CheckParity(); err != nil {
		t.Fatalf("CheckParity after recovery: %v", err)
	}
	verifyUnit(t, s2, n, 2)
	for u := int64(0); u < s2.DataUnits(); u++ {
		if u != n {
			verifyUnit(t, s2, u, 1)
		}
	}
}

// TestCleanCloseClearsIntent verifies the happy path pays no recovery:
// Sync+Close leave the intent log clean, so reopening resyncs nothing.
func TestCleanCloseClearsIntent(t *testing.T) {
	dir := t.TempDir()
	lay := testLayout(t, 5, 5)
	usable := layout.UsableUnitsPerDisk(lay, 40)
	open := func() *Store {
		disks, err := OpenFileDisks(dir, 5, usable, 512)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{
			Layout:       lay,
			UnitsPerDisk: 40,
			UnitSize:     512,
			Disks:        disks,
			Intent:       OpenFileIntent(filepath.Join(dir, "intent.log")),
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1 := open()
	fillAll(t, s1, 1)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := open()
	defer s2.Close()
	if got := s2.Stats().ResyncedStripes; got != 0 {
		t.Fatalf("clean reopen resynced %d stripes, want 0", got)
	}
	for u := int64(0); u < s2.DataUnits(); u++ {
		verifyUnit(t, s2, u, 1)
	}
}
