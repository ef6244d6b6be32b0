package array

import (
	"fmt"
	"strings"
	"testing"

	"declust/internal/blockdesign"
	"declust/internal/disk"
	"declust/internal/drive"
	"declust/internal/layout"
	"declust/internal/sim"
	"declust/internal/testdata"
)

// arrayOf builds a 21-disk declustered array with parity stripe size g and
// m parity units per stripe (1: P; 2: P+Q over the same unit placement),
// on the 1/100-scale drives testArray uses.
func arrayOf(t *testing.T, g, m int, mutate func(*Config)) (*sim.Engine, *Array) {
	return arrayOn(t, 21, g, m, mutate)
}

// arrayOn is arrayOf on c disks.
func arrayOn(t *testing.T, c, g, m int, mutate func(*Config)) (*sim.Engine, *Array) {
	t.Helper()
	sel, err := blockdesign.Select(c, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	var l layout.Layout
	if l, err = layout.NewDeclustered(sel.Design); err == nil && m == 2 {
		l, err = layout.NewDualParity(l)
	}
	if err != nil {
		t.Fatal(err)
	}
	if l.G() != g {
		t.Fatalf("no %d-disk layout with G = %d", c, g)
	}
	cfg := Config{
		Layout:      l,
		Geom:        drive.IBM0661().Scaled(100),
		UnitSectors: 8,
		ReconProcs:  1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	eng := sim.New()
	a, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, a
}

// lostRole says which unit of the written stripe sits on the failed disk.
type lostRole int

const (
	lostNone lostRole = iota
	lostData
	lostP
)

// unitWithLost returns a data unit whose stripe has the given role on disk
// d (and, for a lost parity, is itself elsewhere).
func unitWithLost(t *testing.T, a *Array, d int, role lostRole) int64 {
	t.Helper()
	if role == lostData {
		n, _ := dataUnitOn(t, a, d)
		return n
	}
	for n := int64(0); n < a.DataUnits(); n++ {
		s, _ := a.lay.Locate(a.mapper.Loc(n))
		if layout.ParityLoc(a.lay, s).Disk == d {
			return n
		}
	}
	t.Fatalf("no data unit whose stripe has parity on disk %d", d)
	return -1
}

// costRows returns the rows of internal/testdata/costs.txt that price op
// (R or W) on the simulator.
func costRows(t *testing.T, op string) []testdata.Cost {
	t.Helper()
	all, err := testdata.Costs()
	if err != nil {
		t.Fatal(err)
	}
	var rows []testdata.Cost
	for _, r := range all {
		if r.For(op, "array") {
			rows = append(rows, r)
		}
	}
	return rows
}

// tableArray builds row r's array and fails the disk that holds the unit r
// says is lost, of the stripe the row's access starts; first is the
// stripe's first data unit.
func tableArray(t *testing.T, r testdata.Cost) (eng *sim.Engine, a *Array, first int64) {
	t.Helper()
	eng, a = arrayOn(t, r.C, r.G, r.M, nil)
	const stripe = 3
	// Stripe-index mapping: a stripe's data units are consecutive.
	first = stripe * int64(layout.DataPerStripe(a.lay))
	lost := layout.Loc{Disk: -1}
	switch r.Lost {
	case "written", "read":
		lost = a.mapper.Loc(first)
	case "unwritten", "unread":
		lost = a.mapper.Loc(first + int64(r.K))
	case "P", "Q":
		lost = layout.ParityLocOf(a.lay, stripe, strings.Index("PQ", r.Lost))
	}
	if lost.Disk >= 0 {
		if err := a.Fail(lost.Disk); err != nil {
			t.Fatal(err)
		}
	}
	return eng, a, first
}

// code names a row's parity code in its subtest.
var code = [...]string{1: "P", 2: "PQ"}

// TestWritePlanAccessCounts pins the write-plan table (DESIGN.md §2): for
// each stripe condition the planner distinguishes, how many reads and writes
// one user write costs — the counts behind every response-time figure of the
// paper's §6–§8. The first rows are the table the store's test of the same
// name reads too; the ones below them are the simulator's own. Each row then
// checks the array stayed consistent and that the written units read back.
func TestWritePlanAccessCounts(t *testing.T) {
	for _, r := range costRows(t, "W") {
		t.Run(code[r.M]+"/"+r.Name, func(t *testing.T) {
			eng, a, first := tableArray(t, r)
			checkAccess(t, eng, a, r.Reads, r.Writes, func() { a.WriteRange(first, r.K, func() {}) })
			checkReadBack(t, eng, a, first, r.K)
		})
	}
	const failed = 2
	rows := []struct {
		name     string
		g, m     int
		lost     lostRole
		replaced bool // a replacement is installed for the failed disk
		alg      ReconAlgorithm
		reads    int
		writes   int
	}{
		// One unit on 21 disks: the paper's small write (§6), and a stripe of
		// three units (§6's α = 0.1 exception) or of two (mirroring).
		{name: "P/rmw", g: 5, m: 1, reads: 2, writes: 2},
		{name: "P/small-write", g: 3, m: 1, reads: 1, writes: 2},
		{name: "P/mirror", g: 2, m: 1, reads: 0, writes: 2},
		{name: "P/mirror-twin-lost", g: 2, m: 1, lost: lostP, reads: 0, writes: 1},
		{name: "P/mirror-fold", g: 2, m: 1, lost: lostData, reads: 0, writes: 1},
		{name: "PQ/rmw", g: 5, m: 2, reads: 3, writes: 3},
		// The reconstruction algorithms (§8): with a replacement installed,
		// all but Baseline also send a folded write to it.
		{name: "P/fold-baseline-replaced", g: 5, m: 1, lost: lostData, replaced: true, reads: 3, writes: 1},
		{name: "P/fold-redirected", g: 5, m: 1, lost: lostData, replaced: true, alg: UserWrites, reads: 3, writes: 2},
		{name: "PQ/fold-redirected", g: 5, m: 2, lost: lostData, replaced: true, alg: RedirectPiggyback, reads: 2, writes: 3},
	}
	for _, r := range rows {
		r := r
		t.Run(r.name, func(t *testing.T) {
			eng, a := arrayOf(t, r.g, r.m, func(c *Config) {
				c.Algorithm = r.alg
			})
			first := int64(17)
			if r.lost != lostNone {
				if err := a.Fail(failed); err != nil {
					t.Fatal(err)
				}
				if r.replaced {
					if err := a.Replace(); err != nil {
						t.Fatal(err)
					}
				}
				first = unitWithLost(t, a, failed, r.lost)
			}
			checkAccess(t, eng, a, r.reads, r.writes, func() { a.WriteRange(first, 1, func() {}) })
			checkReadBack(t, eng, a, first, 1)
		})
	}
}

// TestReadAccessCounts pins the read half of the table: a read of k units
// costs k accesses unless it covers its stripe's lost unit, which it decodes
// on the fly from the survivors (§7). The first rows are the table the
// store's test of the same name reads too; the ones below them are the
// simulator's own, a lost unit read with a replacement installed under
// each kind of algorithm (§8). Every row checks the values read.
func TestReadAccessCounts(t *testing.T) {
	for _, r := range costRows(t, "R") {
		t.Run(code[r.M]+"/"+r.Name, func(t *testing.T) {
			eng, a, first := tableArray(t, r)
			got := make([]uint64, r.K)
			checkAccess(t, eng, a, r.Reads, r.Writes, func() { a.ReadRange(first, got, func() {}) })
			checkValues(t, a, first, got)
		})
	}
	const failed = 2
	for _, r := range []struct {
		name    string
		m       int
		alg     ReconAlgorithm
		rebuilt bool // a redirected write has rebuilt the unit on the replacement first
		reads   int
		writes  int
	}{
		// Baseline decodes the lost unit, and so does every algorithm
		// before the unit is rebuilt; the piggyback also writes the value
		// it decoded to the replacement, after the user has it.
		{name: "P/otf-baseline-replaced", m: 1, reads: 4},
		{name: "P/otf-piggyback", m: 1, alg: RedirectPiggyback, reads: 4, writes: 1},
		{name: "PQ/otf-piggyback", m: 2, alg: RedirectPiggyback, reads: 3, writes: 1},
		// A rebuilt unit is read from the replacement under the Redirect
		// algorithms, and decoded still under the others.
		{name: "P/redirected", m: 1, alg: Redirect, rebuilt: true, reads: 1},
		{name: "P/otf-rebuilt-user-writes", m: 1, alg: UserWrites, rebuilt: true, reads: 4},
	} {
		r := r
		t.Run(r.name, func(t *testing.T) {
			eng, a := arrayOf(t, 5, r.m, func(c *Config) { c.Algorithm = r.alg })
			if err := a.Fail(failed); err != nil {
				t.Fatal(err)
			}
			if err := a.Replace(); err != nil {
				t.Fatal(err)
			}
			unit := unitWithLost(t, a, failed, lostData)
			if r.rebuilt {
				a.WriteRange(unit, 1, func() {})
				eng.Run()
			}
			got := make([]uint64, 1)
			checkAccess(t, eng, a, r.reads, r.writes, func() { a.ReadRange(unit, got, func() {}) })
			checkValues(t, a, unit, got)
		})
	}
}

// checkAccess plays one user access, issued by access, and checks its
// reads and writes, then the array's consistency after it.
func checkAccess(t *testing.T, eng *sim.Engine, a *Array, wantReads, wantWrites int, access func()) {
	t.Helper()
	// Count the access's transfers through a fault hook that never fails
	// one: it sees every transfer that reaches the arm, and these drives
	// have no read-ahead buffer to serve any other way.
	var reads, writes int
	probe := func(_ int64, _ int, write bool) disk.Status {
		if write {
			writes++
		} else {
			reads++
		}
		return disk.OK
	}
	for i := 0; i < a.lay.Disks(); i++ {
		a.Disk(i).SetFaultHook(probe, 1)
	}
	access()
	eng.Run()
	if reads != wantReads || writes != wantWrites {
		t.Errorf("access used %d reads + %d writes, want %d + %d", reads, writes, wantReads, wantWrites)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// checkReadBack reads units [first, first+count) back and checks each
// holds the value last written to it.
func checkReadBack(t *testing.T, eng *sim.Engine, a *Array, first int64, count int) {
	t.Helper()
	got := make([]uint64, count)
	a.ReadRange(first, got, func() {})
	eng.Run()
	checkValues(t, a, first, got)
}

// bothCodes runs a test body once per code: single parity and P+Q.
func bothCodes(t *testing.T, body func(t *testing.T, m int)) {
	for m := 1; m <= 2; m++ {
		m := m
		t.Run(fmt.Sprintf("parities=%d", m), func(t *testing.T) { body(t, m) })
	}
}

// TestMultiUnitFoldRebuildsItsLostUnit: a two-unit write to a stripe whose
// second data unit written is lost, under Redirect with a replacement
// installed, is one fold — it reads the two data units it leaves alone and
// writes the live one, P, and the lost one to the replacement — and marks
// that lost unit reconstructed, not the first unit it writes: a read of it
// afterwards is one direct access to the replacement, not a decode.
func TestMultiUnitFoldRebuildsItsLostUnit(t *testing.T) {
	const failed = 2
	eng, a := arrayOf(t, 5, 1, func(c *Config) { c.Algorithm = Redirect })
	if err := a.Fail(failed); err != nil {
		t.Fatal(err)
	}
	if err := a.Replace(); err != nil {
		t.Fatal(err)
	}
	dps := int64(layout.DataPerStripe(a.lay))
	lost := int64(-1)
	for n := int64(0); n < a.DataUnits() && lost < 0; n++ {
		if n%dps != 0 && a.mapper.Loc(n).Disk == failed {
			lost = n
		}
	}
	if lost < 0 {
		t.Fatalf("no data unit on disk %d past the first of its stripe", failed)
	}
	checkAccess(t, eng, a, 2, 3, func() { a.WriteRange(lost-1, 2, func() {}) })
	if off := a.mapper.Loc(lost).Offset; !a.reconDone[off] {
		t.Fatalf("the fold left unit %d (d%d:%d) unreconstructed", lost, failed, off)
	}
	got := make([]uint64, 1)
	checkAccess(t, eng, a, 1, 0, func() { a.ReadRange(lost, got, func() {}) })
	checkValues(t, a, lost, got)
}
