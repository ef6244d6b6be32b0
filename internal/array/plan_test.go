package array

import (
	"fmt"
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
	t.Helper()
	sel, err := blockdesign.Select(21, g, 0)
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
	lostQ
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
		if layout.ParityLocOf(a.lay, s, int(role-lostP)).Disk == d {
			return n
		}
	}
	t.Fatalf("no data unit whose stripe has parity %d on disk %d", role-lostP, d)
	return -1
}

// TestWritePlanAccessCounts pins every row of the write-plan table (DESIGN.md
// §2): for each stripe condition the planner distinguishes, how many reads
// and writes one user write costs — the counts behind every response-time
// figure of the paper's §6–§8. Each row then checks the array stayed
// consistent and that the written units read back.
func TestWritePlanAccessCounts(t *testing.T) {
	const failed = 2
	rows := []struct {
		name     string
		g, m     int
		lost     lostRole
		replaced bool // a replacement is installed for the failed disk
		alg      ReconAlgorithm
		k        int // units written: one through Write, or k > 0 through WriteRange
		reads    int
		writes   int
	}{
		// Single parity, one unit (§6, §7).
		{name: "P/rmw", g: 5, m: 1, reads: 2, writes: 2},
		{name: "P/parity-lost", g: 5, m: 1, lost: lostP, reads: 0, writes: 1},
		{name: "P/fold", g: 5, m: 1, lost: lostData, reads: 3, writes: 1},
		{name: "P/fold-baseline-replaced", g: 5, m: 1, lost: lostData, replaced: true, reads: 3, writes: 1},
		{name: "P/fold-redirected", g: 5, m: 1, lost: lostData, replaced: true, alg: UserWrites, reads: 3, writes: 2},
		{name: "P/small-write", g: 3, m: 1, reads: 1, writes: 2},
		{name: "P/mirror", g: 2, m: 1, reads: 0, writes: 2},
		{name: "P/mirror-twin-lost", g: 2, m: 1, lost: lostP, reads: 0, writes: 1},
		{name: "P/mirror-fold", g: 2, m: 1, lost: lostData, reads: 0, writes: 1},
		// P+Q, one unit.
		{name: "PQ/rmw", g: 5, m: 2, reads: 3, writes: 3},
		{name: "PQ/P-lost", g: 5, m: 2, lost: lostP, reads: 2, writes: 2},
		{name: "PQ/Q-lost", g: 5, m: 2, lost: lostQ, reads: 2, writes: 2},
		{name: "PQ/fold", g: 5, m: 2, lost: lostData, reads: 2, writes: 2},
		{name: "PQ/fold-redirected", g: 5, m: 2, lost: lostData, replaced: true, alg: RedirectPiggyback, reads: 2, writes: 3},
		{name: "PQ/one-data-unit-rmw", g: 3, m: 2, reads: 3, writes: 3},
		{name: "PQ/one-data-unit-fold", g: 3, m: 2, lost: lostData, reads: 0, writes: 2},
		// Range writes within one fault-free stripe: read-modify-write
		// 2(k+m), reconstruct-write G, large write G.
		{name: "P/range-rmw", g: 5, m: 1, k: 1, reads: 2, writes: 2},
		{name: "P/range-reconstruct-2", g: 5, m: 1, k: 2, reads: 2, writes: 3},
		{name: "P/range-reconstruct-3", g: 5, m: 1, k: 3, reads: 1, writes: 4},
		{name: "P/range-large", g: 5, m: 1, k: 4, reads: 0, writes: 5},
		{name: "PQ/range-reconstruct-1", g: 5, m: 2, k: 1, reads: 2, writes: 3},
		{name: "PQ/range-reconstruct-2", g: 5, m: 2, k: 2, reads: 1, writes: 4},
		{name: "PQ/range-large", g: 5, m: 2, k: 3, reads: 0, writes: 5},
		{name: "PQ/range-rmw-1", g: 10, m: 2, k: 1, reads: 3, writes: 3},
		{name: "PQ/range-rmw-3", g: 10, m: 2, k: 3, reads: 5, writes: 5},
		{name: "PQ/range-reconstruct-4", g: 10, m: 2, k: 4, reads: 4, writes: 6},
		{name: "PQ/range-large-8", g: 10, m: 2, k: 8, reads: 0, writes: 10},
	}
	for _, r := range rows {
		r := r
		t.Run(r.name, func(t *testing.T) {
			eng, a := arrayOf(t, r.g, r.m, func(c *Config) {
				c.Algorithm = r.alg
			})
			first, count := int64(17), 1
			if r.k > 0 {
				// Stripe-index mapping: stripe 1's data units come first.
				first, count = int64(layout.DataPerStripe(a.lay)), r.k
			}
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
			// Count the write's transfers through a fault hook that never
			// fails one: it sees every transfer that reaches the arm, and
			// these drives have no read-ahead buffer to serve any other way.
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
			if r.k > 0 {
				a.WriteRange(first, count, func() {})
			} else {
				a.Write(first, func() {})
			}
			eng.Run()
			if reads != r.reads || writes != r.writes {
				t.Errorf("write used %d reads + %d writes, want %d + %d", reads, writes, r.reads, r.writes)
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
		})
	}
}

// bothCodes runs a test body once per code: single parity and P+Q.
func bothCodes(t *testing.T, body func(t *testing.T, m int)) {
	for m := 1; m <= 2; m++ {
		m := m
		t.Run(fmt.Sprintf("parities=%d", m), func(t *testing.T) { body(t, m) })
	}
}
