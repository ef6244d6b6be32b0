package layout

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"declust/internal/blockdesign"
	"declust/internal/testdata"
)

// TestPlanMatchesCosts holds the stripe plan to internal/testdata/costs.txt
// with no engine at all: every both and store row's reads, writes and
// reconstruct-write are the plan's, on the row's layout with the row's unit
// lost. A plan's writes are its Writes bar the lost ones: with no
// replacement installed, a fold writes its lost unit into the parities
// alone. The one array row must be the simulator's G = 3 small write, the
// one rule it plays over the plan.
func TestPlanMatchesCosts(t *testing.T) {
	rows, err := testdata.Costs()
	if err != nil {
		t.Fatal(err)
	}
	var array []string
	for _, r := range rows {
		if r.Plane == "array" {
			array = append(array, r.Name)
			if r.Op != "W" || r.G != 3 || r.M != 1 || r.K != 1 || r.Lost != "-" {
				t.Errorf("array row %s is not §6's G = 3 small write", r.Name)
			}
			continue
		}
		t.Run(fmt.Sprintf("%s/%s/C%d-G%d-m%d/%s", r.Op, r.Plane, r.C, r.G, r.M, r.Name), func(t *testing.T) {
			l := costLayout(t, r.C, r.G, r.M)
			const stripe = 3
			span := make([]int, r.K)
			for d := range span {
				span[d] = DataPos(l, stripe, d)
			}
			var erased []int
			switch r.Lost {
			case "written", "read":
				erased = []int{span[0]}
			case "unwritten", "unread":
				erased = []int{DataPos(l, stripe, r.K)}
			case "P", "Q":
				erased = []int{l.ParityPos(stripe, strings.Index("PQ", r.Lost))}
			}
			p := NewPlan(l.G())
			PlanStripe(&p, l, stripe, r.Op == "W", span, erased)
			writes := 0
			for _, j := range p.Writes {
				if !slices.Contains(erased, j) {
					writes++
				}
			}
			reconstruct := "no"
			if p.FromScratch && len(p.Reads) > 0 && r.Lost != "written" {
				reconstruct = "yes"
			}
			if len(p.Reads) != r.Reads || writes != r.Writes || reconstruct != r.Reconstruct {
				t.Errorf("plan %+v: %d reads, %d writes, reconstruct %s; the table says %d, %d, %s",
					p, len(p.Reads), writes, reconstruct, r.Reads, r.Writes, r.Reconstruct)
			}
		})
	}
	if len(array) != 1 {
		t.Errorf("array rows %v, want the G = 3 small write alone", array)
	}
}

// costLayout builds the C-disk declustered layout of stripe width g that
// both engines' cost tests build, wrapped in DualParity for m = 2.
func costLayout(t *testing.T, c, g, m int) Layout {
	t.Helper()
	sel, err := blockdesign.Select(c, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	var l Layout
	if l, err = NewDeclustered(sel.Design); err == nil && m == 2 {
		l, err = NewDualParity(l)
	}
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// FuzzStripePlan checks PlanStripe's lists against the rules they are
// drawn from, on RAID 5 stripes of G = 2 to 13 units, single parity or P+Q
// (G ≥ 3): a read or a write of a span of data units, with an erasure set
// of up to m positions. No position is listed twice in a round; no lost unit
// is read and no lost parity written; a write writes every live unit it
// covers and every live parity; it is from scratch exactly when a live
// parity is left and a unit it writes is lost, or FromScratch says so and
// no unit it leaves alone is lost; and a read reads its span's live units,
// never more than those and RebuildSources of the erasure set, and decodes
// exactly its span's lost units.
func FuzzStripePlan(f *testing.F) {
	// G − 2, dual, stripe, first data unit, span length − 1, erasure count,
	// the erasures' positions, write. RAID 5 puts P last, Q before it.
	f.Add(uint8(1), false, int64(3), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), true)  // G = 3: the small write, a delta here
	f.Add(uint8(3), false, int64(3), uint8(0), uint8(1), uint8(1), uint8(2), uint8(0), true)  // a lost unwritten unit: the delta
	f.Add(uint8(3), false, int64(3), uint8(0), uint8(1), uint8(1), uint8(0), uint8(0), true)  // a lost written unit: the fold
	f.Add(uint8(3), true, int64(3), uint8(0), uint8(1), uint8(2), uint8(0), uint8(2), true)   // both: a decode before the gather
	f.Add(uint8(3), true, int64(3), uint8(0), uint8(1), uint8(1), uint8(4), uint8(0), true)   // P lost: the reconstruct-write
	f.Add(uint8(4), false, int64(7), uint8(0), uint8(3), uint8(1), uint8(1), uint8(0), false) // a read of the lost unit
	f.Add(uint8(8), true, int64(9), uint8(1), uint8(4), uint8(2), uint8(3), uint8(9), false)  // a read of a lost unit, Q lost too
	f.Fuzz(func(t *testing.T, g uint8, dual bool, stripe int64, first, n, ne, e0, e1 uint8, write bool) {
		r5, err := NewRaid5(2 + int(g)%12)
		if err != nil {
			t.Fatal(err)
		}
		var l Layout = r5
		if dual {
			if l, err = NewDualParity(r5); err != nil {
				return // G = 2 carries no P+Q
			}
		}
		s, dps := stripe&0xffff, DataPerStripe(l)
		lo := int(first) % dps
		span := make([]int, 1+int(n)%(dps-lo))
		for i := range span {
			span[i] = DataPos(l, s, lo+i)
		}
		var erased []int
		for _, e := range []uint8{e0, e1}[:int(ne)%(l.Parities()+1)] {
			if j := int(e) % l.G(); !slices.Contains(erased, j) {
				erased = append(erased, j)
			}
		}
		p := NewPlan(l.G())
		PlanStripe(&p, l, s, write, span, erased)
		what := fmt.Sprintf("%T G=%d stripe %d, write %v of %v, %v erased: %+v", l, l.G(), s, write, span, erased, p)

		for _, round := range [][]int{p.Reads, p.Decode, p.Writes} {
			for i, j := range round {
				if j < 0 || j >= l.G() || slices.Contains(round[:i], j) {
					t.Fatalf("%s: position %d out of range or listed twice in a round", what, j)
				}
			}
		}
		for _, j := range p.Reads {
			if slices.Contains(erased, j) {
				t.Fatalf("%s: reads lost position %d", what, j)
			}
		}
		var liveParity []int
		for k := range l.Parities() {
			j := l.ParityPos(s, k)
			if slices.Contains(erased, j) {
				if slices.Contains(p.Writes, j) {
					t.Fatalf("%s: writes lost parity %d", what, j)
				}
			} else {
				liveParity = append(liveParity, j)
			}
		}
		lost := func(j int) bool { return slices.Contains(erased, j) }
		if !write {
			decode := slices.DeleteFunc(slices.Clone(span), func(j int) bool { return !lost(j) })
			allowed := slices.Clone(span)
			if len(decode) > 0 {
				locs := make([]Loc, len(erased))
				for i, j := range erased {
					locs[i] = l.Unit(s, j)
				}
				for _, u := range RebuildSources(l, locs...) {
					_, j := l.Locate(u)
					allowed = append(allowed, j)
				}
			}
			switch {
			case !slices.Equal(p.Decode, decode) || len(p.Writes) > 0 || p.FromScratch:
				t.Fatalf("%s: a read decodes %v and writes nothing", what, decode)
			case slices.ContainsFunc(p.Reads, func(j int) bool { return !slices.Contains(allowed, j) }):
				t.Fatalf("%s: reads more than the span and RebuildSources: %v", what, allowed)
			case slices.ContainsFunc(span, func(j int) bool { return !lost(j) && !slices.Contains(p.Reads, j) }):
				t.Fatalf("%s: a live span unit is not read", what)
			}
			return
		}
		for _, j := range append(slices.Clone(span), liveParity...) {
			if !lost(j) && !slices.Contains(p.Writes, j) {
				t.Fatalf("%s: live position %d is not written", what, j)
			}
		}
		writtenLost, leftLost := false, false
		for _, j := range erased {
			if !IsParityPos(l, s, j) {
				writtenLost = writtenLost || slices.Contains(span, j)
				leftLost = leftLost || !slices.Contains(span, j)
			}
		}
		want := len(liveParity) > 0 && (writtenLost || FromScratch(dps, len(span)) && !leftLost)
		if p.FromScratch != want {
			t.Fatalf("%s: from scratch %v, want %v", what, p.FromScratch, want)
		}
		if len(p.Decode) > 0 && !(writtenLost && leftLost) {
			t.Fatalf("%s: decodes with no lost unit beside a lost written one", what)
		}
	})
}
