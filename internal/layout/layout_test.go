package layout

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"declust/internal/blockdesign"
)

func paperLayout(t *testing.T, g int) *Declustered {
	t.Helper()
	d, err := blockdesign.PaperDesign(g)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewDeclustered(d)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func allLayouts(t *testing.T) map[string]Layout {
	t.Helper()
	ls := map[string]Layout{}
	for _, g := range []int{3, 4, 5, 6, 10} {
		ls[string(rune('0'+g))+"-declustered"] = paperLayout(t, g)
	}
	r5, err := NewRaid5(21)
	if err != nil {
		t.Fatal(err)
	}
	ls["raid5"] = r5
	return ls
}

func TestRaid5MatchesFigure2_1(t *testing.T) {
	// Figure 2-1 of the paper, C = 5: rows are offsets, columns disks.
	r, err := NewRaid5(5)
	if err != nil {
		t.Fatal(err)
	}
	// Parity locations: P0..P4 on disks 4,3,2,1,0 at offsets 0..4.
	for s := int64(0); s < 5; s++ {
		want := Loc{Disk: int(4 - s), Offset: s}
		if got := ParityLoc(r, s); got != want {
			t.Errorf("P%d at %v, want %v", s, got, want)
		}
	}
	// Spot-check data units from the figure: D1.1 on disk 0 offset 1,
	// D2.0 on disk 3 offset 2, D4.0 on disk 1 offset 4.
	cases := []struct {
		stripe int64
		j      int
		want   Loc
	}{
		{1, 1, Loc{0, 1}},
		{2, 0, Loc{3, 2}},
		{4, 0, Loc{1, 4}},
		{0, 2, Loc{2, 0}},
	}
	for _, c := range cases {
		if got := r.Unit(c.stripe, c.j); got != c.want {
			t.Errorf("D%d.%d at %v, want %v", c.stripe, c.j, got, c.want)
		}
	}
}

func TestRaid5MeetsAllCriteria(t *testing.T) {
	r, _ := NewRaid5(5)
	c, err := Check(r)
	if err != nil {
		t.Fatal(err)
	}
	if !c.SingleFailureCorrecting || !c.DistributedReconstruction || !c.DistributedParity {
		t.Fatalf("left-symmetric RAID 5 fails core criteria: %+v", c)
	}
	if !c.LargeWriteOptimization || !c.MaximalParallelism {
		t.Fatalf("left-symmetric RAID 5 fails data-mapping criteria: %+v", c)
	}
}

func TestRaid5Alpha(t *testing.T) {
	r, _ := NewRaid5(21)
	if r.Alpha() != 1 {
		t.Fatalf("RAID 5 α = %v, want 1", r.Alpha())
	}
}

func TestNewRaid5Rejects(t *testing.T) {
	if _, err := NewRaid5(1); err == nil {
		t.Fatal("1-disk RAID 5 accepted")
	}
}

func TestDeclusteredCoreCriteriaAllPaperDesigns(t *testing.T) {
	for _, g := range blockdesign.PaperG {
		if g == 18 && testing.Short() {
			continue
		}
		l := paperLayout(t, g)
		if err := MustMeetCore(l); err != nil {
			t.Errorf("G=%d: %v", g, err)
		}
	}
}

func TestDeclusteredCriteriaDetail(t *testing.T) {
	l := paperLayout(t, 5)
	c, err := Check(l)
	if err != nil {
		t.Fatal(err)
	}
	p := l.Params()
	// Over one full table, pair count is λ·G and parity per disk is r.
	if c.PairCount != p.Lambda*p.K {
		t.Errorf("pair count %d, want λG=%d", c.PairCount, p.Lambda*p.K)
	}
	if c.ParityPerDisk != p.R {
		t.Errorf("parity per disk %d, want r=%d", c.ParityPerDisk, p.R)
	}
	// Large-write optimization holds for the stripe-index data mapping;
	// maximal parallelism does not (paper §4.2 end).
	if !c.LargeWriteOptimization {
		t.Error("large-write optimization violated")
	}
	if c.MaximalParallelism {
		t.Error("declustered layout unexpectedly satisfies maximal parallelism (paper says it does not)")
	}
}

func TestDeclusteredMatchesFigure2_3(t *testing.T) {
	// Figure 2-3 (and the top of Figure 4-2) lays out the complete
	// design of Figure 4-1 on C=5, G=4: stripes 0..4 use tuples
	// (0,1,2,3), (0,1,2,4), (0,1,3,4), (0,2,3,4), (1,2,3,4) with parity
	// in the last position.
	d, err := blockdesign.Complete(5, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewDeclustered(d)
	if err != nil {
		t.Fatal(err)
	}
	// Check against the figure's first table: offsets column by column.
	// Figure 2-3: disk0 rows: D0.0 D1.0 D2.0 D3.0; disk3 rows: P0 D2.2
	// D3.2 D4.2; disk4 rows: P1 P2 P3 P4.
	cases := []struct {
		stripe int64
		j      int
		want   Loc
	}{
		{0, 0, Loc{0, 0}}, {0, 1, Loc{1, 0}}, {0, 2, Loc{2, 0}}, {0, 3, Loc{3, 0}}, // tuple 0,1,2,3
		{1, 0, Loc{0, 1}}, {1, 1, Loc{1, 1}}, {1, 2, Loc{2, 1}}, {1, 3, Loc{4, 0}},
		{2, 0, Loc{0, 2}}, {2, 1, Loc{1, 2}}, {2, 2, Loc{3, 1}}, {2, 3, Loc{4, 1}},
		{3, 0, Loc{0, 3}}, {3, 1, Loc{2, 2}}, {3, 2, Loc{3, 2}}, {3, 3, Loc{4, 2}},
		{4, 0, Loc{1, 3}}, {4, 1, Loc{2, 3}}, {4, 2, Loc{3, 3}}, {4, 3, Loc{4, 3}},
	}
	for _, c := range cases {
		if got := l.Unit(c.stripe, c.j); got != c.want {
			t.Errorf("unit(%d,%d) = %v, want %v", c.stripe, c.j, got, c.want)
		}
	}
	// First table places parity at position G−1 (disk column of the
	// tuple's last element), as in the figure.
	for s := int64(0); s < 5; s++ {
		if l.ParityPos(s, 0) != 3 {
			t.Errorf("stripe %d parity position %d, want 3", s, l.ParityPos(s, 0))
		}
	}
	// Second table copy (stripes 5..9) rotates parity to position 2.
	if l.ParityPos(5, 0) != 2 {
		t.Errorf("stripe 5 parity position %d, want 2", l.ParityPos(5, 0))
	}
}

func TestLocateRoundTrip(t *testing.T) {
	for name, l := range allLayouts(t) {
		l := l
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			stripe := rng.Int63n(10 * l.StripesPerPeriod() * int64(l.G()))
			j := rng.Intn(l.G())
			loc := l.Unit(stripe, j)
			s2, j2 := l.Locate(loc)
			return s2 == stripe && j2 == j
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestOffsetsDenseAndDisjoint(t *testing.T) {
	// Over one full table every disk offset in range is owned by exactly
	// one (stripe, position): the layout wastes no units and never
	// double-books.
	for name, l := range allLayouts(t) {
		full := l.StripesPerPeriod() * int64(l.G())
		perDisk := l.UnitsPerDiskPerPeriod() * int64(l.G())
		seen := make(map[Loc]bool)
		for s := int64(0); s < full; s++ {
			for j := 0; j < l.G(); j++ {
				loc := l.Unit(s, j)
				if loc.Offset < 0 || loc.Offset >= perDisk {
					t.Fatalf("%s: stripe %d pos %d at offset %d outside [0,%d)", name, s, j, loc.Offset, perDisk)
				}
				if seen[loc] {
					t.Fatalf("%s: location %v assigned twice", name, loc)
				}
				seen[loc] = true
			}
		}
		if int64(len(seen)) != int64(l.Disks())*perDisk {
			t.Fatalf("%s: %d units mapped, want %d", name, len(seen), int64(l.Disks())*perDisk)
		}
	}
}

func TestDataLocRoundTrip(t *testing.T) {
	for name, l := range allLayouts(t) {
		l := l
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := rng.Int63n(DataUnits(l, 5*l.UnitsPerDiskPerPeriod()*int64(l.G())))
			loc := DataLoc(l, n)
			s, j := l.Locate(loc)
			if j == l.ParityPos(s, 0) {
				return false // data mapped onto parity
			}
			return DataIndex(l, s, j) == n
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestDataIndexPanicsOnParity(t *testing.T) {
	l := paperLayout(t, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for DataIndex of parity position")
		}
	}()
	DataIndex(l, 0, l.ParityPos(0, 0))
}

// TestRebuildSources: a lone erasure reads G−1 survivors under P and G−2
// under P+Q, each on its own disk, and never Q — a data unit and P decode
// through P, and Q through its own equation, over the data alone.
func TestRebuildSources(t *testing.T) {
	l := paperLayout(t, 5)
	pq, err := NewDualParity(l)
	if err != nil {
		t.Fatal(err)
	}
	for _, lay := range []Layout{l, pq} {
		for j := 0; j < lay.G(); j++ {
			loc := lay.Unit(7, j)
			sv := RebuildSources(lay, loc)
			if want := lay.G() - lay.Parities(); len(sv) != want {
				t.Fatalf("m=%d, position %d lost: %d sources, want %d", lay.Parities(), j, len(sv), want)
			}
			disks := map[int]bool{loc.Disk: true}
			for _, u := range sv {
				if disks[u.Disk] {
					t.Fatalf("m=%d, position %d lost: disk %d read twice, or the lost unit read", lay.Parities(), j, u.Disk)
				}
				disks[u.Disk] = true
				if _, i := lay.Locate(u); IsParityPos(lay, 7, i) && i != lay.ParityPos(7, 0) {
					t.Errorf("m=%d, position %d lost: reads Q", lay.Parities(), j)
				}
			}
		}
	}
}

// TestRebuildSourcesErasureSets: the decode rule over an erasure set of a
// G = 5 stripe, named by role (d0..d3 its data units in order, P, Q). A lone
// erasure skips the equation it does not use; a set that fills the code's
// budget reads every other unit; past the budget there is no decode.
func TestRebuildSourcesErasureSets(t *testing.T) {
	l := paperLayout(t, 5)
	pq, err := NewDualParity(l)
	if err != nil {
		t.Fatal(err)
	}
	const stripe = 7
	for _, c := range []struct {
		lay          Layout
		erased, want []string
	}{
		{l, []string{"d1"}, []string{"d0", "d2", "d3", "P"}},
		{l, []string{"P"}, []string{"d0", "d1", "d2", "d3"}},
		{l, []string{"d1", "d2"}, nil},
		{l, []string{"d0", "P"}, nil},
		{l, nil, nil},
		{pq, []string{"d1"}, []string{"d0", "d2", "P"}},
		{pq, []string{"P"}, []string{"d0", "d1", "d2"}},
		{pq, []string{"Q"}, []string{"d0", "d1", "d2"}},
		{pq, []string{"d0", "d2"}, []string{"d1", "P", "Q"}},
		{pq, []string{"d1", "P"}, []string{"d0", "d2", "Q"}},
		{pq, []string{"Q", "d0"}, []string{"d1", "d2", "P"}},
		{pq, []string{"P", "Q"}, []string{"d0", "d1", "d2"}},
		{pq, []string{"d0", "d1", "d2"}, nil},
		{pq, []string{"d0", "P", "Q"}, nil},
	} {
		role := map[string]Loc{"P": ParityLocOf(c.lay, stripe, 0)}
		if c.lay.Parities() == 2 {
			role["Q"] = ParityLocOf(c.lay, stripe, 1)
		}
		for d := 0; d < DataPerStripe(c.lay); d++ {
			role[fmt.Sprintf("d%d", d)] = DataLoc(c.lay, stripe*int64(DataPerStripe(c.lay))+int64(d))
		}
		locs := func(names []string) []Loc {
			var out []Loc
			for _, n := range names {
				out = append(out, role[n])
			}
			return out
		}
		got, want := RebuildSources(c.lay, locs(c.erased)...), locs(c.want)
		slices.SortFunc(got, func(a, b Loc) int { return a.Disk - b.Disk })
		slices.SortFunc(want, func(a, b Loc) int { return a.Disk - b.Disk })
		if !slices.Equal(got, want) {
			t.Errorf("m=%d, %v erased: sources %v, want %v (%v)", c.lay.Parities(), c.erased, got, c.want, want)
		}
	}
}

// RebuildSources of a set that spans two stripes is a caller's bug.
func TestRebuildSourcesPanicsAcrossStripes(t *testing.T) {
	pq, err := NewDualParity(paperLayout(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for erasures in two stripes")
		}
	}()
	RebuildSources(pq, pq.Unit(0, 0), pq.Unit(1, 0))
}

func TestReconstructionWorkloadBalance(t *testing.T) {
	// The declustering promise: when disk f fails, each surviving disk
	// contributes exactly λ units per table toward reconstruction, i.e.
	// reads α fraction of itself, not all of itself. Under P+Q a lone
	// erasure reads G−2 survivors, skipping the parity its decode does not
	// use, and the load is uneven: the bound below is today's worst case
	// over every failed disk, a ratchet for the balanced rule to lower.
	l := paperLayout(t, 5)
	pq, err := NewDualParity(l)
	if err != nil {
		t.Fatal(err)
	}
	p := l.Params()
	perTable := l.UnitsPerDiskPerPeriod() * int64(l.G()) // a full parity rotation
	for f := 0; f < l.Disks(); f++ {
		for _, lay := range []Layout{l, pq} {
			load := make(map[int]int)
			total := 0
			for off := int64(0); off < perTable; off++ {
				for _, u := range RebuildSources(lay, Loc{Disk: f, Offset: off}) {
					load[u.Disk]++
					total++
				}
			}
			if len(load) != 20 {
				t.Fatalf("m=%d, failed disk %d: %d disks loaded, want 20", lay.Parities(), f, len(load))
			}
			if lay == pq {
				lo, hi := total, 0
				for _, n := range load {
					lo, hi = min(lo, n), max(hi, n)
				}
				if want := int(perTable) * (lay.G() - 2); total != want || 3*hi > 4*lo {
					t.Errorf("P+Q, failed disk %d: %d reads/table, survivors %d to %d; want %d, max ÷ min ≤ 4/3",
						f, total, lo, hi, want)
				}
				continue
			}
			for d, n := range load {
				if n != p.Lambda*p.K {
					t.Errorf("failed disk %d: disk %d reads %d units/table, want λG=%d", f, d, n, p.Lambda*p.K)
				}
			}
		}
	}
}

func TestRaid5ReconstructionTouchesAllDisksEqually(t *testing.T) {
	r, _ := NewRaid5(21)
	load := make(map[int]int)
	for off := int64(0); off < 21; off++ {
		for _, u := range RebuildSources(r, Loc{Disk: 4, Offset: off}) {
			load[u.Disk]++
		}
	}
	if len(load) != 20 {
		t.Fatalf("%d disks loaded, want 20", len(load))
	}
	for d, n := range load {
		if n != 21 {
			t.Errorf("disk %d reads %d, want every unit (21)", d, n)
		}
	}
}

func TestUsableStripesTruncation(t *testing.T) {
	l := paperLayout(t, 5) // b=21, r=5
	// 23 units per disk -> 4 whole periods of r=5 -> 20 units, 84 stripes.
	if got := UsableStripes(l, 23); got != 4*21 {
		t.Fatalf("UsableStripes = %d, want 84", got)
	}
	if got := UsableUnitsPerDisk(l, 23); got != 20 {
		t.Fatalf("UsableUnitsPerDisk = %d, want 20", got)
	}
	if got := DataUnits(l, 23); got != 84*4 {
		t.Fatalf("DataUnits = %d, want %d", got, 84*4)
	}
}

func TestParityRotationCoversAllPositions(t *testing.T) {
	l := paperLayout(t, 4)
	seen := map[int]bool{}
	b := l.StripesPerPeriod()
	for m := int64(0); m < int64(l.G()); m++ {
		seen[l.ParityPos(m*b, 0)] = true
	}
	if len(seen) != l.G() {
		t.Fatalf("parity rotation covers %d positions, want %d", len(seen), l.G())
	}
}

func TestDeclusteredRejectsInvalidDesign(t *testing.T) {
	bad := &blockdesign.Design{V: 4, K: 2, Tuples: [][]int{{0, 1}, {0, 2}, {0, 3}}}
	if _, err := NewDeclustered(bad); err == nil {
		t.Fatal("unbalanced design accepted")
	}
}

func TestUnitPanicsOutOfRange(t *testing.T) {
	l := paperLayout(t, 5)
	for _, f := range []func(){
		func() { l.Unit(0, -1) },
		func() { l.Unit(0, 5) },
		func() { l.Unit(-1, 0) },
		func() { l.Locate(Loc{Disk: 99, Offset: 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic on invalid argument")
				}
			}()
			f()
		}()
	}
}
