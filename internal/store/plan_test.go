package store

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"declust/internal/layout"
	"declust/internal/testdata"
)

// A stripe access runs the plan layout.PlanStripe makes of it
// (commitStripeLocked, readStripeSpan), and which plan ran is visible from
// outside as accesses: the delta reads what it overwrites and the
// parities, from scratch reads what the span leaves alone, a read that
// holds the lost unit reads its decode's sources.
// TestWritePlanAccessCounts pins the count of every row of the rule, and
// TestReadAccessCounts of every read, from the table the simulator's tests
// of the same names in internal/array read too, and internal/layout's
// TestPlanMatchesCosts holds the plan itself to;
// TestRebuildReadsMatchLayout pins a rebuild's reads to the layout's decode
// rule, which the simulator follows; and TestGeneratedRangeOps pins that,
// whichever plan ran, the bytes are those of a flat array.

// accessCount is shared by the disks of an array, replacements included.
type accessCount struct{ reads, writes atomic.Int64 }

// hook counts every unit read and write.
func (n *accessCount) hook(c call, pass func() error) error {
	switch c.op {
	case opRead:
		n.reads.Add(1)
	case opWrite:
		n.writes.Add(1)
	}
	return pass()
}

// planUnits sizes every flat store (one allocation period of its layout,
// where that is longer), with units of 64 bytes or fewer: small enough that
// comparing the whole array after each step costs nothing.
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
	// dir, when set, holds one file per disk and the intent log; paths
	// names each disk's file.
	dir   string
	paths map[Disk]string
}

// openFlat opens a flat store over memory disks, or, with dir set, over
// file disks and a file intent log under dir.
func openFlat(t *testing.T, lay layout.Layout, ioWorkers, unitSize int, dir string) *flatStore {
	t.Helper()
	f := &flatStore{n: new(accessCount), dir: dir, paths: map[Disk]string{}}
	units := max(planUnits, lay.UnitsPerDiskPerPeriod())
	f.cfg = Config{Layout: lay, UnitsPerDisk: units, UnitSize: unitSize, IOWorkers: ioWorkers}
	f.cfg.Disks = make([]Disk, lay.Disks())
	for i := range f.cfg.Disks {
		f.cfg.Disks[i] = f.blank(t)
	}
	f.open(t)
	f.ref = make([]byte, f.DataUnits()*int64(unitSize))
	t.Cleanup(func() { f.Close() })
	return f
}

// blank returns a fresh disk: in memory, or a new file under dir.
func (f *flatStore) blank(t *testing.T) Disk {
	t.Helper()
	if f.dir == "" {
		return &scriptedDisk{under: NewMemDisk(f.cfg.UnitsPerDisk, f.cfg.UnitSize), hook: f.n.hook}
	}
	return f.openFile(t, filepath.Join(f.dir, fmt.Sprintf("disk%04d.dat", len(f.paths))))
}

// openFile opens (or formats) the file disk at path.
func (f *flatStore) openFile(t *testing.T, path string) Disk {
	t.Helper()
	d, err := OpenFileDisk(path, f.cfg.UnitsPerDisk, f.cfg.UnitSize)
	if err != nil {
		t.Fatal(err)
	}
	cd := &scriptedDisk{under: d, hook: f.n.hook}
	f.paths[cd] = path
	return cd
}

// units is the window of ref that holds units [start, start+n).
func (f *flatStore) units(start, n int64) []byte {
	us := int64(f.cfg.UnitSize)
	return f.ref[start*us : (start+n)*us]
}

func (f *flatStore) open(t *testing.T) {
	t.Helper()
	if f.dir != "" {
		f.cfg.Intent = OpenFileIntent(filepath.Join(f.dir, "intent.log"))
	}
	s, err := New(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Store = s
}

// reopen closes the store (no disk may be failed) and opens it again over
// the disks it had, rebuilt replacements in their slots. File disks are
// opened again from their paths, so each goes through its superblock and
// New's geometry check, and the intent log through Init.
func (f *flatStore) reopen(t *testing.T) {
	t.Helper()
	f.cfg.Disks = f.st.Load().disks
	f.reconWrites += f.Stats().ReconstructWrites
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if f.dir != "" {
		for i, d := range f.cfg.Disks {
			f.cfg.Disks[i] = f.openFile(t, f.paths[d])
		}
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
		if err := f.Rebuild(f.blank(t)); err != nil {
			t.Fatalf("Rebuild: %v", err)
		}
	}
}

// costRows returns the rows of internal/testdata/costs.txt that price op
// (R or W) on the store.
func costRows(t *testing.T, op string) []testdata.Cost {
	t.Helper()
	all, err := testdata.Costs()
	if err != nil {
		t.Fatal(err)
	}
	var rows []testdata.Cost
	for _, r := range all {
		if r.For(op, "store") {
			rows = append(rows, r)
		}
	}
	return rows
}

// playCosts plays each row at 1 and 4 I/O workers on a flat store written
// in full: it fails the disks holding the units the row's lost column names
// in stripe 3, then counts the backend reads and writes of access, the
// row's one access of k units from the stripe's first data unit, and checks
// whether Stats.ReconstructWrites moved. It ends with the whole array
// against the flat reference, before and after a rebuild.
func playCosts(t *testing.T, rows []testdata.Cost, access func(t *testing.T, f *flatStore, rng *rand.Rand, start int64, k int)) {
	for _, ioWorkers := range []int{1, 4} {
		for _, r := range rows {
			lay := testLayout(t, r.C, r.G)
			if r.M == 2 {
				lay = testPQLayout(t, r.C, r.G)
			}
			var lose []string
			if r.Lost != "-" {
				lose = strings.Fields(r.Lost)
			}
			code := [...]string{1: "P", 2: "P+Q"}[r.M]
			t.Run(fmt.Sprintf("io%d/%s-G%d/j%d/lost%v", ioWorkers, code, r.G, r.K, lose), func(t *testing.T) {
				forceOverlap(t)
				rng := rand.New(rand.NewSource(int64(r.G*100 + r.K)))
				f := openFlat(t, lay, ioWorkers, 64, "")
				f.write(t, rng, f.WriteRange, 0, f.DataUnits())
				const stripe = 3
				start := stripe * f.dataPerStripe
				for _, what := range lose {
					var loc layout.Loc
					switch what {
					case "written", "read":
						loc = layout.DataLoc(f.lay, start)
					case "unwritten", "unread":
						loc = layout.DataLoc(f.lay, start+int64(r.K))
					case "P", "Q":
						loc = layout.ParityLocOf(f.lay, stripe, strings.Index("PQ", what))
					}
					if err := f.Fail(loc.Disk); err != nil {
						t.Fatal(err)
					}
				}
				before := f.Stats().ReconstructWrites
				f.n.reads.Store(0)
				f.n.writes.Store(0)
				access(t, f, rng, start, r.K)
				reads, writes := f.n.reads.Load(), f.n.writes.Load()
				if reads != int64(r.Reads) || writes != int64(r.Writes) {
					t.Errorf("%d of %d data units: %d reads and %d writes, want %d and %d",
						r.K, f.dataPerStripe, reads, writes, r.Reads, r.Writes)
				}
				want := int64(0)
				if r.Reconstruct == "yes" {
					want = 1
				}
				if got := f.Stats().ReconstructWrites - before; got != want {
					t.Errorf("Stats.ReconstructWrites grew by %d, want %d", got, want)
				}
				f.check(t, "after the access")
				f.heal(t)
				f.check(t, "rebuilt")
			})
		}
	}
}

// TestWritePlanAccessCounts: one WriteRange of k units from the start of a
// stripe, per row; backend reads and writes counted exactly, and whether
// Stats.ReconstructWrites moved. The rows for k = 1 of a stripe with two or
// more data units are the paper's small write and hold at any commit: four
// accesses, six under P+Q.
func TestWritePlanAccessCounts(t *testing.T) {
	rows := append(costRows(t, "W"),
		// Two units lost at once, past the simulator's single-failure
		// model: the unwritten one decoded first (the plan's Decode), and
		// the survivor the span leaves alone not read again, since the
		// decode read it under the same lock hold — at G = 5 the decode's
		// three reads are all, at G = 6 its four, one of them the written
		// unit's old contents.
		testdata.Cost{C: 11, G: 5, M: 2, Lost: "written unwritten", K: 1, Reads: 3, Writes: 2, Reconstruct: "no"},
		testdata.Cost{C: 11, G: 6, M: 2, Lost: "written unwritten", K: 2, Reads: 4, Writes: 3, Reconstruct: "no"},
	)
	playCosts(t, rows, func(t *testing.T, f *flatStore, rng *rand.Rand, start int64, k int) {
		f.write(t, rng, f.WriteRange, start, int64(k))
	})
}

// TestReadAccessCounts: one ReadRange of k units from the start of a
// stripe, per row, checked against the flat reference; backend reads and
// writes counted exactly. A read of the stripe's lost unit decodes it from
// the survivors layout.RebuildSources names, beside the span's other units.
func TestReadAccessCounts(t *testing.T) {
	rows := append(costRows(t, "R"),
		// Two units lost at once, past the simulator's single-failure
		// model: the lost unit read decodes from the three survivors.
		testdata.Cost{C: 11, G: 5, M: 2, Lost: "read unread", K: 1, Reads: 3, Writes: 0, Reconstruct: "no"},
	)
	playCosts(t, rows, func(t *testing.T, f *flatStore, _ *rand.Rand, start int64, k int) {
		got := make([]byte, k*f.cfg.UnitSize)
		if err := f.ReadRange(start, got); err != nil {
			t.Fatalf("ReadRange(%d, %d units): %v", start, k, err)
		}
		if !bytes.Equal(got, f.units(start, int64(k))) {
			t.Errorf("ReadRange(%d, %d units) differs from the flat reference", start, k)
		}
	})
}

// TestRebuildReadsMatchLayout is the rebuild half of the cost table: a real
// Rebuild of each disk in turn of a C = 21, G = 5 array, P and P+Q, reads
// for every lost unit exactly the survivors layout.RebuildSources names — the
// layout's one decode rule, which the simulator's sweep and repairs follow.
// Under P+Q with two disks down, the first Rebuild reads for each stripe it
// touches the sources of that stripe's erasure set: all G−2 others where
// both disks hold a unit, the lone-erasure set elsewhere. Reads are grouped
// by stripe, so the order the shards issue them in does not matter.
func TestRebuildReadsMatchLayout(t *testing.T) {
	pq := testPQLayout(t, 21, 5)
	for _, lay := range []layout.Layout{testLayout(t, 21, 5), pq} {
		for _, workers := range []int{1, 4} {
			code := [...]string{1: "P", 2: "P+Q"}[lay.Parities()]
			t.Run(fmt.Sprintf("%s/workers%d", code, workers), func(t *testing.T) {
				rebuild := rebuildReads(t, lay, workers)
				for f := 0; f < lay.Disks(); f++ {
					rebuild(f, -1)
				}
			})
		}
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("P+Q-two-failed/workers%d", workers), func(t *testing.T) {
			for f := 0; f < pq.Disks(); f += 4 {
				rebuildReads(t, pq, workers)(f, (f+1+f/4)%pq.Disks())
			}
		})
	}
}

// rebuildReads opens a store on lay, fills it, and returns a check that
// fails disk f — and then disk second, unless it is negative — rebuilds
// f, and compares the reads of every stripe f has a unit in with
// layout.RebuildSources of its erasures (f's unit and second's, if any).
// A stripe f has no unit in must read nothing.
func rebuildReads(t *testing.T, lay layout.Layout, workers int) func(f, second int) {
	forceOverlap(t)
	units := lay.UnitsPerDiskPerPeriod() * int64(lay.G()) // a full parity rotation
	// reads records every unit the disks are asked to read.
	var (
		mu    sync.Mutex
		reads []layout.Loc
	)
	logReads := func(c call, pass func() error) error {
		if c.op == opRead {
			mu.Lock()
			reads = append(reads, layout.Loc{Disk: c.disk, Offset: c.off})
			mu.Unlock()
		}
		return pass()
	}
	s := scriptedStore(t, Config{Layout: lay, UnitsPerDisk: units, UnitSize: 64,
		IOWorkers: workers, RebuildWorkers: workers}, logReads)
	data := make([]byte, s.DataUnits()*64)
	rand.New(rand.NewSource(int64(workers))).Read(data)
	if err := s.WriteRange(0, data); err != nil {
		t.Fatal(err)
	}
	return func(f, second int) {
		for _, d := range []int{f, second} {
			if d < 0 {
				continue
			}
			if err := s.Fail(d); err != nil {
				t.Fatal(err)
			}
		}
		reads = nil
		if err := s.Rebuild(&scriptedDisk{under: NewMemDisk(units, 64), slot: f, hook: logReads}); err != nil {
			t.Fatal(err)
		}
		byStripe := map[int64][]layout.Loc{}
		for _, u := range reads {
			stripe, _ := lay.Locate(u)
			byStripe[stripe] = append(byStripe[stripe], u)
		}
		double := 0 // stripes with two erasures
		for off := int64(0); off < units; off++ {
			lost := layout.Loc{Disk: f, Offset: off}
			stripe, _ := lay.Locate(lost)
			erased := []layout.Loc{lost}
			for j := 0; j < lay.G(); j++ {
				if u := lay.Unit(stripe, j); u.Disk == second {
					erased = append(erased, u)
					double++
				}
			}
			got, want := sortedLocs(byStripe[stripe]), sortedLocs(layout.RebuildSources(lay, erased...))
			delete(byStripe, stripe)
			if !slices.Equal(got, want) {
				t.Errorf("disk %d rebuilt, %v erased: stripe %d read %v, want layout.RebuildSources %v", f, erased, stripe, got, want)
			}
		}
		for stripe, got := range byStripe {
			t.Errorf("disk %d rebuilt: stripe %d, which lost no unit, read %v", f, stripe, got)
		}
		if second >= 0 && double == 0 {
			t.Errorf("disks %d and %d share no stripe; the two-erasure rule went untested", f, second)
		}
	}
}

func sortedLocs(locs []layout.Loc) []layout.Loc {
	slices.SortFunc(locs, func(a, b layout.Loc) int {
		return cmp.Or(cmp.Compare(a.Disk, b.Disk), cmp.Compare(a.Offset, b.Offset))
	})
	return locs
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
// of a vector kernel and an 8-byte tail. The disks are in memory, or files
// beside a file intent log, which every reopen opens again by path. The
// seed is printed; CHAOS_SEED replays it.
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
		for _, backend := range []string{"io1", "io4", "file"} {
			t.Run(code.name+"/"+backend, func(t *testing.T) {
				for _, us := range []int{64, 40} {
					t.Run(fmt.Sprintf("unit=%d", us), func(t *testing.T) {
						ioWorkers, dir := 4, ""
						if backend == "io1" {
							ioWorkers = 1
						} else if backend == "file" {
							dir = t.TempDir()
						}
						generatedRangeOps(t, code.lay, ioWorkers, us, dir, seed)
					})
				}
			})
		}
	}
}

// generatedRangeOps is one configuration of TestGeneratedRangeOps.
func generatedRangeOps(t *testing.T, lay layout.Layout, ioWorkers, unitSize int, dir string, seed int64) {
	forceOverlap(t)
	rng := rand.New(rand.NewSource(seed))
	f := openFlat(t, lay, ioWorkers, unitSize, dir)
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
			if err := f.Rebuild(f.blank(t)); err != nil {
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
