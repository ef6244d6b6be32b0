package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"declust/internal/layout"
)

// A stripe update is one of two plans (commitStripeLocked), and which one
// runs is visible from outside as accesses: the delta reads what it
// overwrites and the parities, from scratch reads what the span leaves
// alone. TestWritePlanAccessCounts pins the count of every row of the rule
// — the store's twin of the simulator's table of the same name in
// internal/array — and TestGeneratedRangeOps pins that, whichever plan ran,
// the bytes are those of a flat array.

// accessCount is shared by the disks of an array, replacements included.
type accessCount struct{ reads, writes atomic.Int64 }

type countedDisk struct {
	Disk
	n *accessCount
}

func (d countedDisk) ReadUnit(off int64, p []byte) error {
	d.n.reads.Add(1)
	return d.Disk.ReadUnit(off, p)
}

func (d countedDisk) WriteUnit(off int64, p []byte) error {
	d.n.writes.Add(1)
	return d.Disk.WriteUnit(off, p)
}

// planUnits sizes every store in this file, with units of 64 bytes or
// fewer: small enough that comparing the whole array after each step costs
// nothing.
const planUnits = 20

// flatStore is a store beside the flat byte array it must read as.
type flatStore struct {
	*Store
	cfg Config
	n   *accessCount
	ref []byte
	// reconWrites is Stats.ReconstructWrites of the stores closed by reopen:
	// the counter lives on the Store, and a reopen builds a new one.
	reconWrites int64
}

func openFlat(t *testing.T, lay layout.Layout, ioWorkers, unitSize int) *flatStore {
	t.Helper()
	f := &flatStore{n: new(accessCount)}
	f.cfg = Config{Layout: lay, UnitsPerDisk: planUnits, UnitSize: unitSize, IOWorkers: ioWorkers}
	f.cfg.Disks = make([]Disk, lay.Disks())
	for i := range f.cfg.Disks {
		f.cfg.Disks[i] = f.blank()
	}
	f.open(t)
	f.ref = make([]byte, f.DataUnits()*int64(unitSize))
	t.Cleanup(func() { f.Close() })
	return f
}

func (f *flatStore) blank() Disk {
	return countedDisk{Disk: NewMemDisk(planUnits, f.cfg.UnitSize), n: f.n}
}

// units is the window of ref that holds units [start, start+n).
func (f *flatStore) units(start, n int64) []byte {
	us := int64(f.cfg.UnitSize)
	return f.ref[start*us : (start+n)*us]
}

func (f *flatStore) open(t *testing.T) {
	t.Helper()
	s, err := New(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Store = s
}

// reopen closes the store (no disk may be failed) and opens it again over
// the disks it had, rebuilt replacements in their slots.
func (f *flatStore) reopen(t *testing.T) {
	t.Helper()
	f.cfg.Disks = f.st.Load().disks
	f.reconWrites += f.Stats().ReconstructWrites
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	f.open(t)
}

// write sends fresh random contents for units [start, start+n) through put
// — WriteRange, or WriteUnit when n is 1 — and into ref.
func (f *flatStore) write(t *testing.T, rng *rand.Rand, put func(int64, []byte) error, start, n int64) {
	t.Helper()
	span := f.units(start, n)
	rng.Read(span)
	if err := put(start, span); err != nil {
		t.Fatalf("write of units [%d,%d): %v", start, start+n, err)
	}
}

// check compares every unit with ref and, when no disk is failed, verifies
// parity — with one failed, the comparison is the parity check: each lost
// unit read back is decoded from it.
func (f *flatStore) check(t *testing.T, when string) {
	t.Helper()
	got := make([]byte, f.cfg.UnitSize)
	for u := int64(0); u < f.DataUnits(); u++ {
		if err := f.ReadUnit(u, got); err != nil {
			t.Fatalf("%s: ReadUnit(%d): %v", when, u, err)
		}
		if !bytes.Equal(got, f.units(u, 1)) {
			t.Fatalf("%s: unit %d (stripe %d) differs from the flat reference", when, u, u/f.dataPerStripe)
		}
	}
	if f.Mode() == Healthy {
		if err := f.CheckParity(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
}

// heal rebuilds every failed disk onto a blank one.
func (f *flatStore) heal(t *testing.T) {
	t.Helper()
	for f.Mode() != Healthy {
		if err := f.Rebuild(f.blank()); err != nil {
			t.Fatalf("Rebuild: %v", err)
		}
	}
}

// Which units of the written stripe a row loses before it writes.
const (
	loseWritten   = "written"   // the first written data unit
	loseUnwritten = "unwritten" // the first data unit past the span
	loseP         = "P"
	loseQ         = "Q"
)

// TestWritePlanAccessCounts: one WriteRange of j units from the start of a
// stripe, per row; backend reads and writes counted exactly, and whether
// Stats.ReconstructWrites moved. The rows for j = 1 are the paper's small
// write and hold at any commit: four accesses, six under P+Q.
func TestWritePlanAccessCounts(t *testing.T) {
	pLay, pqLay := testLayout, testPQLayout
	rows := []struct {
		lay           func(testing.TB, int, int) layout.Layout
		c, g, j       int
		lose          []string
		reads, writes int64
		reconstruct   bool
	}{
		// G = 5, single parity, four data units: the simulator's rule.
		{pLay, 11, 5, 1, nil, 2, 2, false},
		{pLay, 11, 5, 2, nil, 2, 3, true},
		{pLay, 11, 5, 3, nil, 1, 4, true},
		{pLay, 11, 5, 4, nil, 0, 5, false}, // large write
		// G = 5, P+Q, three data units.
		{pqLay, 11, 5, 1, nil, 3, 3, false},
		{pqLay, 11, 5, 2, nil, 1, 4, true},
		{pqLay, 11, 5, 3, nil, 0, 5, false},
		// Two data units: a one-unit write is half the stripe and the
		// simulator would reconstruct; the store's small write is a delta in
		// every geometry.
		{pqLay, 7, 4, 1, nil, 3, 3, false},
		{pLay, 7, 3, 1, nil, 2, 2, false},
		// An unwritten unit lost: from scratch would have to decode it, so
		// the delta, which never needs it, even for the majority span.
		{pLay, 11, 5, 3, []string{loseUnwritten}, 4, 4, false},
		{pLay, 11, 5, 2, []string{loseUnwritten}, 3, 3, false},
		{pqLay, 11, 5, 2, []string{loseUnwritten}, 4, 4, false},
		// A written unit lost: the fold-forward — the survivors the span
		// leaves alone, and no write for the lost unit.
		{pLay, 11, 5, 1, []string{loseWritten}, 3, 1, false},
		{pLay, 11, 5, 2, []string{loseWritten}, 2, 2, false},
		{pqLay, 11, 5, 1, []string{loseWritten}, 2, 2, false},
		// …and beside it a lost unwritten one, decoded first: one survivor
		// gathered, then the decode's own three reads.
		{pqLay, 11, 5, 1, []string{loseWritten, loseUnwritten}, 4, 2, false},
		// A parity lost: not read, not written, and no say in the rule.
		{pLay, 11, 5, 2, []string{loseP}, 0, 2, false}, // no parity left: data alone
		{pqLay, 11, 5, 1, []string{loseP}, 2, 2, false},
		{pqLay, 11, 5, 2, []string{loseP}, 1, 3, true},
		{pqLay, 11, 5, 1, []string{loseQ}, 2, 2, false},
		{pqLay, 11, 5, 2, []string{loseQ}, 1, 3, true},
	}
	for _, ioWorkers := range []int{1, 4} {
		for _, r := range rows {
			lay := r.lay(t, r.c, r.g)
			code := [...]string{1: "P", 2: "P+Q"}[lay.Parities()]
			t.Run(fmt.Sprintf("io%d/%s-G%d/j%d/lost%v", ioWorkers, code, r.g, r.j, r.lose), func(t *testing.T) {
				forceOverlap(t)
				rng := rand.New(rand.NewSource(int64(r.g*100 + r.j)))
				f := openFlat(t, lay, ioWorkers, 64)
				f.write(t, rng, f.WriteRange, 0, f.DataUnits())
				const stripe = 3
				start := stripe * f.dataPerStripe
				for _, what := range r.lose {
					var loc layout.Loc
					switch what {
					case loseWritten:
						loc = f.mapper.Loc(start)
					case loseUnwritten:
						loc = f.mapper.Loc(start + int64(r.j))
					case loseP:
						loc = layout.ParityLocOf(f.lay, stripe, 0)
					case loseQ:
						loc = layout.ParityLocOf(f.lay, stripe, 1)
					}
					if err := f.Fail(loc.Disk); err != nil {
						t.Fatal(err)
					}
				}
				before := f.Stats().ReconstructWrites
				f.n.reads.Store(0)
				f.n.writes.Store(0)
				f.write(t, rng, f.WriteRange, start, int64(r.j))
				reads, writes := f.n.reads.Load(), f.n.writes.Load()
				if reads != r.reads || writes != r.writes {
					t.Errorf("%d of %d data units written: %d reads and %d writes, want %d and %d",
						r.j, f.dataPerStripe, reads, writes, r.reads, r.writes)
				}
				want := int64(0)
				if r.reconstruct {
					want = 1
				}
				if got := f.Stats().ReconstructWrites - before; got != want {
					t.Errorf("Stats.ReconstructWrites grew by %d, want %d", got, want)
				}
				f.check(t, "after the write")
				f.heal(t)
				f.check(t, "rebuilt")
			})
		}
	}
}

// TestOverlapReconstructWriteIsTwoRounds: three of a stripe's four data
// units written is one read — the fourth — and then four writes in flight
// at once. A delta would be four reads, and hold four meetings of one.
func TestOverlapReconstructWriteIsTwoRounds(t *testing.T) {
	lay := testLayout(t, 11, 5)
	s, sm := stripeMeetStore(t, lay, 40, Config{IOWorkers: 4})
	const spans = 12
	us := int64(s.UnitSize())
	buf := make([]byte, 3*us)
	sm.arm(1, 4)
	for i := int64(0); i < spans; i++ {
		for u := int64(0); u < 3; u++ {
			fill(buf[u*us:(u+1)*us], i*4+u, 2)
		}
		if err := s.WriteRange(i*4, buf); err != nil {
			t.Fatalf("WriteRange(%d): %v", i*4, err)
		}
	}
	if got := sm.met(); got != 2*spans {
		t.Fatalf("%d three-unit writes held %d rounds, want one read and one batch of four writes each", spans, got)
	}
	if got := s.Stats().ReconstructWrites; got != spans {
		t.Fatalf("Stats.ReconstructWrites = %d after %d reconstruct-writes", got, spans)
	}
	sm.arm(0, 0)
	for n := int64(0); n < 4*spans; n++ {
		version := uint64(2)
		if n%4 == 3 {
			version = 1
		}
		verifyUnit(t, s, n, version)
	}
	if err := s.CheckParity(); err != nil {
		t.Fatal(err)
	}
}

// TestGeneratedRangeOps drives random range and unit ops of up to three
// stripes — so every head and tail the rule distinguishes — through
// failures (two under P+Q), rebuilds, scrubs and reopens, serially and with
// every batch overlapped, and compares the whole array with a flat
// reference after every step. Units are 64 bytes, and 40: one 32-byte step
// of a vector kernel and an 8-byte tail. The seed is printed; CHAOS_SEED
// replays it.
func TestGeneratedRangeOps(t *testing.T) {
	seed := chaosSeed(t)
	recordChaosSeed(t, seed)
	for _, code := range []struct {
		name string
		lay  layout.Layout
	}{
		{"P", testLayout(t, 11, 5)},
		{"P+Q", testPQLayout(t, 11, 5)},
	} {
		for _, ioWorkers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/io%d", code.name, ioWorkers), func(t *testing.T) {
				for _, us := range []int{64, 40} {
					t.Run(fmt.Sprintf("unit=%d", us), func(t *testing.T) {
						generatedRangeOps(t, code.lay, ioWorkers, us, seed)
					})
				}
			})
		}
	}
}

// generatedRangeOps is one configuration of TestGeneratedRangeOps.
func generatedRangeOps(t *testing.T, lay layout.Layout, ioWorkers, unitSize int, seed int64) {
	forceOverlap(t)
	rng := rand.New(rand.NewSource(seed))
	f := openFlat(t, lay, ioWorkers, unitSize)
	f.write(t, rng, f.WriteRange, 0, f.DataUnits())
	got := make([]byte, 3*f.dataPerStripe*int64(unitSize))
	for step := 0; step < 200; step++ {
		n := 1 + rng.Int63n(3*f.dataPerStripe)
		start := rng.Int63n(f.DataUnits() - n + 1)
		what := fmt.Sprintf("step %d: ", step)
		switch p := rng.Intn(100); {
		case p < 45:
			what += fmt.Sprintf("WriteRange(%d, %d units)", start, n)
			f.write(t, rng, f.WriteRange, start, n)
		case p < 55:
			what += fmt.Sprintf("WriteUnit(%d)", start)
			f.write(t, rng, f.WriteUnit, start, 1)
		case p < 75:
			what += fmt.Sprintf("ReadRange(%d, %d units)", start, n)
			span := got[:n*int64(unitSize)]
			if err := f.ReadRange(start, span); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if !bytes.Equal(span, f.units(start, n)) {
				t.Fatalf("%s differs from the flat reference", what)
			}
		case p < 85:
			// As many failures as the code corrects, on disks
			// still in service.
			failed := f.FailedDisks()
			if len(failed) == f.Parities() {
				continue
			}
			d := rng.Intn(f.Disks())
			if len(failed) == 1 && d == failed[0] {
				continue
			}
			what += fmt.Sprintf("Fail(%d)", d)
			if err := f.Fail(d); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case p < 92:
			if f.Mode() == Healthy {
				continue
			}
			what += "Rebuild"
			if err := f.Rebuild(f.blank()); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case p < 96:
			what += "Scrub"
			if res, err := f.Scrub(); err != nil || res.UnitRepairs+res.ParityRewrites > 0 {
				t.Fatalf("%s found work on a store no fault was injected into: %+v, %v", what, res, err)
			}
		default:
			if f.Mode() != Healthy {
				continue
			}
			what += "reopen"
			f.reopen(t)
		}
		f.check(t, what)
	}
	f.heal(t)
	f.check(t, "healed at the end")
	if f.reconWrites+f.Stats().ReconstructWrites == 0 {
		t.Error("200 generated steps took no reconstruct-write")
	}
}
