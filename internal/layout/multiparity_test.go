package layout

import (
	"testing"
)

func dualLayouts(t *testing.T) map[string]*DualParity {
	t.Helper()
	out := map[string]*DualParity{}
	for name, l := range allLayouts(t) {
		d, err := NewDualParity(l)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = d
	}
	return out
}

func fullCycle(l Layout) int64 {
	if fc, ok := l.(FullCycler); ok {
		return fc.FullCycleStripes()
	}
	return l.StripesPerPeriod() * int64(l.G())
}

func TestNewDualParityValidation(t *testing.T) {
	if _, err := NewDualParity(nil); err == nil {
		t.Error("nil inner: no error")
	}
	// G = 2 (mirroring) leaves no data position beside P and Q.
	r2, err := NewRaid5(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDualParity(r2); err == nil {
		t.Error("G=2: no error")
	}
	// Dual-parity layouts cannot be wrapped again.
	r5, err := NewRaid5(5)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := NewDualParity(r5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDualParity(dp); err == nil {
		t.Error("double wrap: no error")
	}
}

// TestDualParityPositions: P and Q are distinct positions, P matches the
// inner layout, Q sits one position before P mod G, and IsParityPos agrees.
func TestDualParityPositions(t *testing.T) {
	for name, l := range dualLayouts(t) {
		g := l.G()
		if l.Parities() != 2 {
			t.Fatalf("%s: Parities() != 2", name)
		}
		for s := int64(0); s < fullCycle(l); s++ {
			p := l.ParityPos(s, 0)
			q := l.ParityPos(s, 1)
			if p != l.Inner().ParityPos(s, 0) {
				t.Fatalf("%s stripe %d: P position %d != inner %d", name, s, p, l.Inner().ParityPos(s, 0))
			}
			if q == p {
				t.Fatalf("%s stripe %d: Q collides with P at %d", name, s, p)
			}
			if want := (p + g - 1) % g; q != want {
				t.Fatalf("%s stripe %d: Q at %d, want %d", name, s, q, want)
			}
			for j := 0; j < g; j++ {
				if got, want := IsParityPos(l, s, j), j == p || j == q; got != want {
					t.Fatalf("%s stripe %d pos %d: IsParityPos = %v, want %v", name, s, j, got, want)
				}
			}
		}
	}
}

// TestDualParityBalance: over a full parity-rotation cycle every disk
// carries the same number of P units and the same number of Q units —
// criterion 3 holds for each parity unit separately, not just their sum.
func TestDualParityBalance(t *testing.T) {
	for name, l := range dualLayouts(t) {
		pCount := make([]int, l.Disks())
		qCount := make([]int, l.Disks())
		for s := int64(0); s < fullCycle(l); s++ {
			pCount[ParityLocOf(l, s, 0).Disk]++
			qCount[ParityLocOf(l, s, 1).Disk]++
		}
		for d := 1; d < l.Disks(); d++ {
			if pCount[d] != pCount[0] || qCount[d] != qCount[0] {
				t.Fatalf("%s: disk %d has %d P / %d Q per cycle, disk 0 has %d / %d",
					name, d, pCount[d], qCount[d], pCount[0], qCount[0])
			}
		}
	}
}

// TestDataPosOrdinalRoundTrip: DataPos and DataOrdinal invert each other
// and enumerate exactly the non-parity positions in ascending order.
func TestDataPosOrdinalRoundTrip(t *testing.T) {
	for name, l := range dualLayouts(t) {
		dp := DataPerStripe(l)
		if dp != l.G()-2 {
			t.Fatalf("%s: DataPerStripe = %d, want G-2 = %d", name, dp, l.G()-2)
		}
		for s := int64(0); s < fullCycle(l); s++ {
			prev := -1
			for d := 0; d < dp; d++ {
				j := DataPos(l, s, d)
				if IsParityPos(l, s, j) {
					t.Fatalf("%s stripe %d: DataPos(%d) = %d is parity", name, s, d, j)
				}
				if j <= prev {
					t.Fatalf("%s stripe %d: DataPos not ascending at d=%d", name, s, d)
				}
				prev = j
				if back := DataOrdinal(l, s, j); back != d {
					t.Fatalf("%s stripe %d: DataOrdinal(DataPos(%d)) = %d", name, s, d, back)
				}
			}
		}
	}
}

// TestDataOrdinalPanicsOnParity: DataOrdinal rejects both parity positions.
func TestDataOrdinalPanicsOnParity(t *testing.T) {
	r5, err := NewRaid5(5)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewDualParity(r5)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{l.ParityPos(0, 0), l.ParityPos(0, 1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("DataOrdinal(position %d): no panic", j)
				}
			}()
			DataOrdinal(l, 0, j)
		}()
	}
}

// TestDualDataLocIndexRoundTrip: DataLoc/DataIndex stay inverses under
// dual parity and never land on a parity unit.
func TestDualDataLocIndexRoundTrip(t *testing.T) {
	for name, l := range dualLayouts(t) {
		dp := int64(DataPerStripe(l))
		limit := fullCycle(l) * dp
		for n := int64(0); n < limit; n++ {
			loc := DataLoc(l, n)
			s, j := l.Locate(loc)
			if IsParityPos(l, s, j) {
				t.Fatalf("%s: data unit %d landed on parity at %v", name, n, loc)
			}
			if back := DataIndex(l, s, j); back != n {
				t.Fatalf("%s: DataIndex(DataLoc(%d)) = %d", name, n, back)
			}
		}
	}
}

// TestSingleParityHelpersUnchanged: for single-parity layouts the
// generalized helpers reduce to the original formulas byte-for-byte.
func TestSingleParityHelpersUnchanged(t *testing.T) {
	for name, l := range allLayouts(t) {
		if l.Parities() != 1 || DataPerStripe(l) != l.G()-1 {
			t.Fatalf("%s: single-parity layout misreported", name)
		}
		g := int64(l.G())
		limit := fullCycle(l) * (g - 1)
		for n := int64(0); n < limit; n++ {
			// The pre-generalization formula, verbatim.
			stripe := n / (g - 1)
			d := int(n % (g - 1))
			j := d
			if j >= l.ParityPos(stripe, 0) {
				j++
			}
			want := l.Unit(stripe, j)
			if got := DataLoc(l, n); got != want {
				t.Fatalf("%s: DataLoc(%d) = %v, want %v", name, n, got, want)
			}
			if got := DataIndex(l, stripe, j); got != n {
				t.Fatalf("%s: DataIndex(%d,%d) = %d, want %d", name, stripe, j, got, n)
			}
		}
	}
}

// TestDualParityCriteria: wrapping preserves the three core criteria, and
// the checker accounts for both parity units.
func TestDualParityCriteria(t *testing.T) {
	for name, l := range dualLayouts(t) {
		if err := MustMeetCore(l); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c, err := Check(l)
		if err != nil {
			t.Fatal(err)
		}
		if !c.LargeWriteOptimization {
			t.Errorf("%s: large-write optimization lost under dual parity", name)
		}
		// P+Q per disk per cycle = 2x the single-parity count.
		inner, err := Check(l.Inner())
		if err != nil {
			t.Fatal(err)
		}
		if c.ParityPerDisk != 2*inner.ParityPerDisk {
			t.Errorf("%s: ParityPerDisk = %d, want %d", name, c.ParityPerDisk, 2*inner.ParityPerDisk)
		}
	}
}

// TestParallelMapperDualParity: the round-robin mapper skips both parity
// positions and stays a bijection.
func TestParallelMapperDualParity(t *testing.T) {
	for name, l := range dualLayouts(t) {
		m := NewParallelMapper(l)
		limit := fullCycle(l) * int64(DataPerStripe(l))
		seen := map[Loc]int64{}
		for n := int64(0); n < limit; n++ {
			loc := m.Loc(n)
			s, j := l.Locate(loc)
			if IsParityPos(l, s, j) {
				t.Fatalf("%s: mapper put data unit %d on parity at %v", name, n, loc)
			}
			if prev, dup := seen[loc]; dup {
				t.Fatalf("%s: units %d and %d share %v", name, prev, n, loc)
			}
			seen[loc] = n
			if back := m.Index(s, j); back != n {
				t.Fatalf("%s: Index(Loc(%d)) = %d", name, n, back)
			}
		}
	}
}

// TestDualParityForwarding: the wrapper's geometry accessors delegate to
// the inner layout, and FullCycleStripes covers both the FullCycler and
// the default (StripesPerPeriod x G) branch.
func TestDualParityForwarding(t *testing.T) {
	sawCycler, sawDefault := false, false
	duals := dualLayouts(t)
	// A spared inner layout exercises the FullCycler forwarding branch.
	sp, err := NewDualParity(sparedLayout(t))
	if err != nil {
		t.Fatal(err)
	}
	duals["spared"] = sp
	for name, l := range duals {
		in := l.Inner()
		if l.Alpha() != in.Alpha() {
			t.Fatalf("%s: Alpha() = %v, inner %v", name, l.Alpha(), in.Alpha())
		}
		if l.Disks() != in.Disks() || l.G() != in.G() {
			t.Fatalf("%s: geometry does not match inner", name)
		}
		if l.StripesPerPeriod() != in.StripesPerPeriod() ||
			l.UnitsPerDiskPerPeriod() != in.UnitsPerDiskPerPeriod() {
			t.Fatalf("%s: period does not match inner", name)
		}
		if got, want := l.FullCycleStripes(), fullCycle(in); got != want {
			t.Fatalf("%s: FullCycleStripes() = %d, want %d", name, got, want)
		}
		if _, ok := in.(FullCycler); ok {
			sawCycler = true
		} else {
			sawDefault = true
		}
		// Round trip a few units through the forwarded Unit/Locate pair.
		for stripe := int64(0); stripe < 3; stripe++ {
			for j := 0; j < l.G(); j++ {
				s2, j2 := l.Locate(l.Unit(stripe, j))
				if s2 != stripe || j2 != j {
					t.Fatalf("%s: Locate(Unit(%d,%d)) = (%d,%d)", name, stripe, j, s2, j2)
				}
			}
		}
	}
	if !sawCycler || !sawDefault {
		t.Fatalf("layout set exercised FullCycler=%v default=%v; want both", sawCycler, sawDefault)
	}
}

// TestDualParityParityPosKPanics: ParityPos with a parity unit index k
// beyond Q is a programming error, not a recoverable condition.
func TestDualParityParityPosKPanics(t *testing.T) {
	r5, err := NewRaid5(5)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := NewDualParity(r5)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ParityPos(stripe, 2) did not panic")
		}
	}()
	dp.ParityPos(0, 2)
}
