package array

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"declust/internal/blockdesign"
	"declust/internal/disk"
	"declust/internal/layout"
	"declust/internal/sim"
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
		Geom:        disk.IBM0661().Scaled(1, 100),
		UnitSectors: 8,
		CvscanBias:  0.2,
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

// planRow is one row of internal/testdata/write_plans.txt; its header says
// what the columns mean.
type planRow struct {
	plane, lost, reconstruct, name string
	c, g, m, k, reads, writes      int
}

// writePlans returns the table's rows for plane and for both. A key (C G m
// lost k) must have one both row, or one array row and then one store row.
func writePlans(t *testing.T, plane string) []planRow {
	t.Helper()
	text, err := os.ReadFile(filepath.Join("..", "testdata", "write_plans.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []planRow
	planes := map[string]string{}
	for _, line := range strings.Split(string(text), "\n") {
		if line = strings.TrimSpace(line); line == "" || line[0] == '#' {
			continue
		}
		var r planRow
		if _, err := fmt.Sscan(line, &r.plane, &r.c, &r.g, &r.m, &r.lost, &r.k, &r.reads, &r.writes, &r.reconstruct, &r.name); err != nil {
			t.Fatalf("write_plans.txt: %q: %v", line, err)
		}
		key := fmt.Sprint(r.c, r.g, r.m, r.lost, r.k)
		planes[key] += " " + r.plane
		if r.plane == plane || r.plane == "both" {
			rows = append(rows, r)
		}
	}
	for key, p := range planes {
		if p != " both" && p != " array store" {
			t.Errorf("write_plans.txt: key %s has rows%s; want both, or array then store", key, p)
		}
	}
	return rows
}

// TestWritePlanAccessCounts pins the write-plan table (DESIGN.md §2): for
// each stripe condition the planners distinguish, how many reads and writes
// one user write costs — the counts behind every response-time figure of the
// paper's §6–§8. The range writes are the rows of the table the store's test
// of the same name reads too; the unit writes below them are the simulator's
// own. Each row then checks the array stayed consistent and that the written
// units read back.
func TestWritePlanAccessCounts(t *testing.T) {
	code := [...]string{1: "P", 2: "PQ"}
	for _, r := range writePlans(t, "array") {
		r := r
		t.Run(code[r.m]+"/"+r.name, func(t *testing.T) {
			eng, a := arrayOn(t, r.c, r.g, r.m, nil)
			const stripe = 3
			// Stripe-index mapping: a stripe's data units are consecutive.
			first := stripe * int64(layout.DataPerStripe(a.lay))
			lost := layout.Loc{Disk: -1}
			switch r.lost {
			case "written":
				lost = a.mapper.Loc(first)
			case "unwritten":
				lost = a.mapper.Loc(first + int64(r.k))
			case "P", "Q":
				lost = layout.ParityLocOf(a.lay, stripe, strings.Index("PQ", r.lost))
			}
			if lost.Disk >= 0 {
				if err := a.Fail(lost.Disk); err != nil {
					t.Fatal(err)
				}
			}
			checkWrite(t, eng, a, first, r.k, r.reads, r.writes, func() { a.WriteRange(first, r.k, func() {}) })
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
		// One unit through Write, whose planner has no range rule: the
		// paper's small write (§6), and a stripe of three units (§6's α = 0.1
		// exception) or of two (mirroring).
		{name: "P/rmw", g: 5, m: 1, reads: 2, writes: 2},
		{name: "P/small-write", g: 3, m: 1, reads: 1, writes: 2},
		{name: "P/mirror", g: 2, m: 1, reads: 0, writes: 2},
		{name: "P/mirror-twin-lost", g: 2, m: 1, lost: lostP, reads: 0, writes: 1},
		{name: "P/mirror-fold", g: 2, m: 1, lost: lostData, reads: 0, writes: 1},
		{name: "PQ/rmw", g: 5, m: 2, reads: 3, writes: 3},
		{name: "PQ/one-data-unit-rmw", g: 3, m: 2, reads: 3, writes: 3},
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
			checkWrite(t, eng, a, first, 1, r.reads, r.writes, func() { a.Write(first, func() {}) })
		})
	}
}

// checkWrite plays one user write, issued by write, of units [first,
// first+count) and checks its reads and writes, the array's consistency
// after it, and that the units read back.
func checkWrite(t *testing.T, eng *sim.Engine, a *Array, first int64, count, wantReads, wantWrites int, write func()) {
	t.Helper()
	// Count the write's transfers through a fault hook that never fails
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
	write()
	eng.Run()
	if reads != wantReads || writes != wantWrites {
		t.Errorf("write used %d reads + %d writes, want %d + %d", reads, writes, wantReads, wantWrites)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	for n := first; n < first+int64(count); n++ {
		n := n
		a.Read(n, func(v uint64) {
			if v != a.ExpectedValue(n) {
				t.Errorf("unit %d reads back %#x, want %#x", n, v, a.ExpectedValue(n))
			}
		})
	}
	eng.Run()
}

// bothCodes runs a test body once per code: single parity and P+Q.
func bothCodes(t *testing.T, body func(t *testing.T, m int)) {
	for m := 1; m <= 2; m++ {
		m := m
		t.Run(fmt.Sprintf("parities=%d", m), func(t *testing.T) { body(t, m) })
	}
}
