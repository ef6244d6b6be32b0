package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"declust/internal/layout"
)

// The loss tests: a stripe found past its erasure budget is rewritten whole
// with its lost data units as their poison blocks (loseStripe), and the
// operation that found it carries on. The poison block is data, so the
// mark must survive whatever data survives: a failed rebuild's undo, a
// decode through a disk with no replacement, a reopen and the resync at
// open.

// On the array most loss tests use, C = 7 and G = 3 under P, unit 5 of
// disk 3 is P of stripe 12 and unit 4 of disk 0 one of its data units.
var (
	lossP    = layout.Loc{Disk: 3, Offset: 5}
	lossData = layout.Loc{Disk: 0, Offset: 4}
)

// checkLossShape fails the test unless lossP and lossData are P and a data
// unit of one stripe of s.
func checkLossShape(t *testing.T, s *Store) {
	t.Helper()
	stripe, _ := s.lay.Locate(lossData)
	if layout.ParityLocOf(s.lay, stripe, 0) != lossP {
		t.Fatalf("%v is not P of %v's stripe %d", lossP, lossData, stripe)
	}
}

// readBackLost reads every unit of s: the units of lost read
// ErrUnrecoverable, every other unit version v.
func readBackLost(t *testing.T, s *Store, v uint64, lost ...layout.Loc) {
	t.Helper()
	buf := make([]byte, s.UnitSize())
	for n := int64(0); n < s.DataUnits(); n++ {
		err := s.ReadUnit(n, buf)
		if loc := layout.DataLoc(s.lay, n); slices.Contains(lost, loc) {
			if !errors.Is(err, ErrUnrecoverable) {
				t.Errorf("lost unit %d (%v) reads %v, want ErrUnrecoverable", n, loc, err)
			}
			continue
		}
		if err != nil || !patternMatches(buf, n, v) {
			t.Errorf("unit %d: %v, or not version %d", n, err, v)
		}
	}
}

// TestRebuildLosesAUnitNotTheArray: P of a stripe is latent when a disk of
// the same stripe fails, so the rebuild meets two erasures under one
// parity. One latent sector used to end the whole rebuild here. The stripe's two units are lost, not
// the rebuild: it returns nil and heals the store, d3:5 is rewritten clean,
// the data unit that was under rebuild alone reads ErrUnrecoverable, and
// parity checks.
func TestRebuildLosesAUnitNotTheArray(t *testing.T) {
	lat := new(latentUnits)
	s := scriptedStore(t, Config{Layout: testLayout(t, 7, 3), UnitsPerDisk: 40, UnitSize: 512}, lat.hook)
	checkLossShape(t, s)
	fillAll(t, s, 1)
	lat.add(lossP)
	if err := s.Fail(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(NewMemDisk(40, 512)); err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	if m := s.Mode(); m != Healthy {
		t.Fatalf("Mode after the rebuild = %v, want healthy", m)
	}
	if got := s.Stats().LostUnits; got != 2 {
		t.Errorf("LostUnits = %d, want 2 (%v and %v)", got, lossData, lossP)
	}
	if damagedOnBackend(s, lossP) {
		t.Errorf("%v is still damaged on its backend", lossP)
	}
	readBackLost(t, s, 1, lossData)
	if err := s.CheckParity(); err != nil {
		t.Fatal(err)
	}
}

// TestLossThenFailedRebuild: the sweep loses a unit, then a hard error later
// in the same sweep (the replacement refuses its last write) fails the
// rebuild, whose undo drops the replacement and the poison block written
// there. The block lives on in parity: the lost unit still reads
// ErrUnrecoverable through a degraded decode, and the rebuild retried onto
// a good disk decodes it again, books no new loss and heals the store.
func TestLossThenFailedRebuild(t *testing.T) {
	lat := new(latentUnits)
	s := scriptedStore(t, Config{Layout: testLayout(t, 7, 3), UnitsPerDisk: 40, UnitSize: 512, RebuildWorkers: 1}, lat.hook)
	checkLossShape(t, s)
	fillAll(t, s, 1)
	lat.add(lossP)
	if err := s.Fail(0); err != nil {
		t.Fatal(err)
	}
	last := layout.Loc{Disk: 0, Offset: s.unitsPerDisk - 1}
	dying := &scriptedDisk{under: NewMemDisk(40, 512), slot: 0, hook: failAt(opWrite, last)}
	if err := s.Rebuild(dying); !errors.Is(err, errPlanted) {
		t.Fatalf("Rebuild onto a replacement failing at %v = %v, want %v", last, err, errPlanted)
	}
	if m, lost := s.Mode(), s.Stats().LostUnits; m != Degraded || lost != 2 {
		t.Fatalf("after the failed rebuild: Mode %v, LostUnits %d; want degraded, 2", m, lost)
	}
	readBackLost(t, s, 1, lossData)
	if err := s.Rebuild(NewMemDisk(40, 512)); err != nil {
		t.Fatalf("retried Rebuild: %v", err)
	}
	if m, lost := s.Mode(), s.Stats().LostUnits; m != Healthy || lost != 2 {
		t.Fatalf("after the retried rebuild: Mode %v, LostUnits %d; want healthy, 2", m, lost)
	}
	readBackLost(t, s, 1, lossData)
	if err := s.CheckParity(); err != nil {
		t.Fatal(err)
	}
}

// TestLostUnitOnDownDiskRebuildsAsPoison: under P+Q with both data disks
// of a stripe down and its P latent, the first rebuild loses all three. The
// lost unit of the disk still down has no replacement to hold its poison
// block, so the block is folded into the recomputed parities; that disk's
// own rebuild decodes it and writes it, with a valid trailer, to its
// replacement.
func TestLostUnitOnDownDiskRebuildsAsPoison(t *testing.T) {
	lat := new(latentUnits)
	s := scriptedStore(t, Config{Layout: testPQLayout(t, 7, 4), UnitsPerDisk: 40, UnitSize: 512}, lat.hook)
	fillAll(t, s, 1)
	const stripe = 3
	a, b := layout.DataLoc(s.lay, stripe*s.dataPerStripe), layout.DataLoc(s.lay, stripe*s.dataPerStripe+1)
	lat.add(layout.ParityLocOf(s.lay, stripe, 0))
	for _, d := range []int{a.Disk, b.Disk} {
		if err := s.Fail(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Rebuild(NewMemDisk(40, 512)); err != nil {
		t.Fatalf("first Rebuild: %v", err)
	}
	if got := s.Stats().LostUnits; got != 3 {
		t.Fatalf("LostUnits = %d, want 3 (both data units and P)", got)
	}
	readBackLost(t, s, 1, a, b)
	repl := NewMemDisk(40, 512)
	if err := s.Rebuild(repl); err != nil {
		t.Fatalf("second Rebuild: %v", err)
	}
	phys := make([]byte, s.physSize)
	if err := repl.ReadUnit(b.Offset, phys); err != nil {
		t.Fatal(err)
	}
	if _, ok := verifyTrailer(phys, s.unitSize, b.Offset); !ok || !isPoisonBlock(stripe*s.dataPerStripe+1, phys[:s.unitSize]) {
		t.Fatalf("%v on its replacement: trailer valid %v, poison block %v; want both", b, ok, isPoisonBlock(stripe*s.dataPerStripe+1, phys[:s.unitSize]))
	}
	if m, lost := s.Mode(), s.Stats().LostUnits; m != Healthy || lost != 3 {
		t.Fatalf("Mode %v, LostUnits %d; want healthy, 3", m, lost)
	}
	readBackLost(t, s, 1, a, b)
	if err := s.CheckParity(); err != nil {
		t.Fatal(err)
	}
}

// TestLossOutlivesReopen: a file-backed store loses a unit in its rebuild
// and is closed; reopened, the unit still reads ErrUnrecoverable. Then a
// crash leaves a region dirty over a stripe with two rotted data units, and
// the resync at the next open loses that stripe too: New succeeds, both
// units read ErrUnrecoverable, and the region's flag is down with its log
// entry cleared, so the next write to it marks it again.
func TestLossOutlivesReopen(t *testing.T) {
	dir := t.TempDir()
	lay := testLayout(t, 7, 3)
	usable := layout.UsableUnitsPerDisk(lay, 40)
	open := func(h hook) *Store {
		t.Helper()
		disks, err := OpenFileDisks(dir, lay.Disks(), usable, 512)
		if err != nil {
			t.Fatal(err)
		}
		for i := range disks {
			disks[i] = &scriptedDisk{under: disks[i], slot: i, hook: h}
		}
		s, err := New(Config{Layout: lay, UnitsPerDisk: 40, UnitSize: 512, Disks: disks,
			Intent: OpenFileIntent(filepath.Join(dir, "intent.log"))})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	lat := new(latentUnits)
	s := open(lat.hook)
	checkLossShape(t, s)
	fillAll(t, s, 1)
	lat.add(lossP)
	if err := s.Fail(0); err != nil {
		t.Fatal(err)
	}
	repl, err := OpenFileDisk(filepath.Join(dir, "replacement.dat"), usable, 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(repl); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, "replacement.dat"), filepath.Join(dir, "disk0000.dat")); err != nil {
		t.Fatal(err)
	}

	s = open(nil)
	readBackLost(t, s, 1, lossData)
	if err := s.CheckParity(); err != nil {
		t.Fatal(err)
	}
	const stripe = 30
	x0, x1 := stripe*s.dataPerStripe, stripe*s.dataPerStripe+1
	buf := make([]byte, s.UnitSize())
	fill(buf, x0, 2)
	if err := s.WriteUnit(x0, buf); err != nil {
		t.Fatal(err)
	}
	rot(t, s, layout.DataLoc(s.lay, x0))
	rot(t, s, layout.DataLoc(s.lay, x1))
	// The crash: the backends and the log close with the region dirty.
	for _, d := range s.adopted {
		d.Close()
	}
	s.intent.Close()

	s = open(nil)
	t.Cleanup(func() { s.Close() })
	r := stripe / intentRegionStripes
	if st := s.Stats(); st.ResyncRepairs == 0 || st.LostUnits != 2 || s.regionDirty[r].Load() {
		t.Fatalf("after the resync at open: %d repairs, LostUnits %d, region %d flagged %v; want ≥ 1, 2, false",
			st.ResyncRepairs, st.LostUnits, r, s.regionDirty[r].Load())
	}
	readBackLost(t, s, 1, lossData, layout.DataLoc(s.lay, x0), layout.DataLoc(s.lay, x1))
	if err := s.CheckParity(); err != nil {
		t.Fatal(err)
	}
}

// TestLossThatWillNotClearIsReported: P of a degraded stripe is latent and
// its disk drops every rewrite of it, so each loss leaves the stripe past
// its budget. A read and a write of the stripe each lose it maxLosses
// times, then return ErrUnrecoverable instead of holding its lock for ever.
func TestLossThatWillNotClearIsReported(t *testing.T) {
	lat := new(latentUnits)
	var dropping atomic.Bool
	var pReads atomic.Int64
	s := scriptedStore(t, Config{Layout: testLayout(t, 7, 3), UnitsPerDisk: 40, UnitSize: 512},
		func(c call, pass func() error) error {
			if dropping.Load() && c.disk == lossP.Disk && c.off == lossP.Offset {
				if c.op == opWrite {
					return nil
				}
				pReads.Add(1)
			}
			return lat.hook(c, pass)
		})
	checkLossShape(t, s)
	fillAll(t, s, 1)
	lat.add(lossP)
	dropping.Store(true)
	if err := s.Fail(0); err != nil {
		t.Fatal(err)
	}
	stripe, j := s.lay.Locate(lossData)
	n, first := layout.DataIndex(s.lay, stripe, j), stripe*s.dataPerStripe
	other := first + (first + 1 - n) // the stripe's other data unit
	buf := make([]byte, s.UnitSize())
	if err := s.ReadUnit(n, buf); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("ReadUnit = %v, want ErrUnrecoverable", err)
	}
	fill(buf, other, 2)
	if err := s.WriteUnit(other, buf); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("WriteUnit = %v, want ErrUnrecoverable", err)
	}
	// Each rewrite loses the unit on the failed disk and P.
	if got := s.Stats().LostUnits; got != 4*maxLosses {
		t.Fatalf("LostUnits = %d, want %d: two units at each of %d rewrites, twice", got, 4*maxLosses, maxLosses)
	}
	// Each run reads P again, under a record forgotten since the rewrite:
	// that read is what finds the rewrite dropped. The read's decode read
	// it once more, under the read lock.
	if got := pReads.Load(); got != 1+2*maxLosses {
		t.Errorf("P read %d times, want %d: once under the read lock, then once per run of the read and of the write", got, 1+2*maxLosses)
	}
}

// TestRangeReadReadsPastALoss: a range read whose first stripe is past its
// budget (a data unit and P latent) still reads, returns and heals every
// stripe after it — at one I/O worker, where the stripes run in order, and
// at four with every batch overlapped — and only then returns
// ErrUnrecoverable, naming the lost unit: the third stripe's latent unit is
// healed and its bytes are in dst.
func TestRangeReadReadsPastALoss(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			if workers > 1 {
				forceOverlap(t)
			}
			lat := new(latentUnits)
			s := scriptedStore(t, Config{Layout: testLayout(t, 7, 3), UnitsPerDisk: 40, UnitSize: 512, IOWorkers: workers}, lat.hook)
			fillAll(t, s, 1)
			lat.add(layout.DataLoc(s.lay, 0))
			lat.add(layout.ParityLocOf(s.lay, 0, 0))
			lat.add(layout.DataLoc(s.lay, 2*s.dataPerStripe)) // the third stripe's first data unit
			healed := s.Stats().HealedUnits
			us := int64(s.UnitSize())
			buf := make([]byte, 3*s.dataPerStripe*us)
			err := s.ReadRange(0, buf)
			if !errors.Is(err, ErrUnrecoverable) || !strings.Contains(err.Error(), "data unit 0 ") {
				t.Fatalf("ReadRange = %v, want ErrUnrecoverable for data unit 0", err)
			}
			for n := int64(1); n < 3*s.dataPerStripe; n++ {
				if !patternMatches(buf[n*us:(n+1)*us], n, 1) {
					t.Errorf("unit %d is not in dst", n)
				}
			}
			if got := s.Stats().HealedUnits - healed; got != 1 {
				t.Errorf("HealedUnits grew by %d, want 1: the third stripe's latent unit", got)
			}
		})
	}
}

// TestWritingAPoisonBlockIsRefused: a unit's poison block is the one content
// no write may store, so a read can tell a lost unit from data. The
// refusal, by WriteUnit or inside a WriteRange, leaves the unit as it was;
// another unit's block is ordinary data.
func TestWritingAPoisonBlockIsRefused(t *testing.T) {
	s := newTestStore(t, 7, 3, 40, 512)
	fillAll(t, s, 1)
	us := int64(s.UnitSize())
	buf := make([]byte, 3*us)
	poisonBlock(5, buf[:us])
	if err := s.WriteUnit(5, buf[:us]); err == nil {
		t.Fatal("WriteUnit of unit 5's poison block succeeded")
	}
	fill(buf[:us], 4, 2)
	poisonBlock(5, buf[us:2*us])
	fill(buf[2*us:], 6, 2)
	if err := s.WriteRange(4, buf); err == nil {
		t.Fatal("WriteRange carrying unit 5's poison block succeeded")
	}
	verifyUnit(t, s, 4, 1)
	verifyUnit(t, s, 5, 1)
	poisonBlock(6, buf[:us])
	if err := s.WriteUnit(5, buf[:us]); err != nil {
		t.Fatalf("WriteUnit of unit 6's poison block to unit 5: %v", err)
	}
	got := make([]byte, us)
	if err := s.ReadUnit(5, got); err != nil || !isPoisonBlock(6, got) {
		t.Fatalf("ReadUnit(5) = %v, or not unit 6's poison block", err)
	}
	if err := s.CheckParity(); err != nil {
		t.Fatal(err)
	}
}
