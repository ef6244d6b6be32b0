package layout

import (
	"math/rand"
	"testing"
	"testing/quick"

	"declust/internal/blockdesign"
)

func parallelMapper(t *testing.T, g int) *ParallelMapper {
	t.Helper()
	return NewParallelMapper(paperLayout(t, g))
}

func TestParallelMapperRoundTrip(t *testing.T) {
	for _, g := range []int{3, 4, 5, 6, 10} {
		m := parallelMapper(t, g)
		l := m.Layout()
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := rng.Int63n(DataUnits(l, 5*l.UnitsPerDiskPerPeriod()*int64(l.G())))
			loc := m.Loc(n)
			s, j := l.Locate(loc)
			if j == l.ParityPos(s, 0) {
				return false
			}
			return m.Index(s, j) == n
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("G=%d: %v", g, err)
		}
	}
}

func TestParallelMapperRoundRobin(t *testing.T) {
	m := parallelMapper(t, 5)
	for n := int64(0); n < 210; n++ {
		if got := m.Loc(n).Disk; got != int(n%21) {
			t.Fatalf("unit %d on disk %d, want %d", n, got, n%21)
		}
	}
}

func TestParallelMapperNeverHitsParity(t *testing.T) {
	m := parallelMapper(t, 4)
	l := m.Layout()
	span := DataUnits(l, 2*l.UnitsPerDiskPerPeriod()*int64(l.G()))
	for n := int64(0); n < span; n++ {
		loc := m.Loc(n)
		s, j := l.Locate(loc)
		if j == l.ParityPos(s, 0) {
			t.Fatalf("unit %d mapped onto parity at %v", n, loc)
		}
	}
}

func TestParallelMapperDense(t *testing.T) {
	// Over one full cycle, the mapper must cover every data slot exactly
	// once: no waste, no double-booking.
	m := parallelMapper(t, 5)
	l := m.Layout()
	span := l.StripesPerPeriod() * int64(l.G()) * int64(l.G()-1)
	seen := make(map[Loc]bool, span)
	for n := int64(0); n < span; n++ {
		loc := m.Loc(n)
		if seen[loc] {
			t.Fatalf("unit %d reuses location %v", n, loc)
		}
		seen[loc] = true
	}
	if int64(len(seen)) != span {
		t.Fatalf("covered %d locations, want %d", len(seen), span)
	}
}

func TestMapperCriteriaTradeoff(t *testing.T) {
	// The paper's §4.2 trade-off, made checkable: the stripe-index
	// mapping satisfies large-write but not maximal parallelism; the
	// parallel mapping the reverse.
	l := paperLayout(t, 5)
	si, err := CheckWithMapper(StripeIndexMapper{L: l})
	if err != nil {
		t.Fatal(err)
	}
	if !si.LargeWriteOptimization || si.MaximalParallelism {
		t.Fatalf("stripe-index mapper: %+v", si)
	}
	pm, err := CheckWithMapper(NewParallelMapper(l))
	if err != nil {
		t.Fatal(err)
	}
	if pm.LargeWriteOptimization || !pm.MaximalParallelism {
		t.Fatalf("parallel mapper: %+v", pm)
	}
	// Parity-mapping criteria are mapper-independent.
	if !pm.SingleFailureCorrecting || !pm.DistributedReconstruction || !pm.DistributedParity {
		t.Fatalf("core criteria regressed under parallel mapper: %+v", pm)
	}
}

func TestRaid5BothCriteriaWithStripeIndex(t *testing.T) {
	// Left-symmetric RAID 5 with the stripe-index mapping satisfies
	// both data-mapping criteria simultaneously (paper Figure 2-1).
	r, _ := NewRaid5(5)
	c, err := CheckWithMapper(StripeIndexMapper{L: r})
	if err != nil {
		t.Fatal(err)
	}
	if !c.LargeWriteOptimization || !c.MaximalParallelism {
		t.Fatalf("RAID 5 stripe-index: %+v", c)
	}
}

func TestParallelMapperWorksOnRaid5(t *testing.T) {
	r, _ := NewRaid5(7)
	m := NewParallelMapper(r)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Int63n(1000)
		loc := m.Loc(n)
		s, j := r.Locate(loc)
		return m.Index(s, j) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelMapperPanicsOnParityIndex(t *testing.T) {
	m := parallelMapper(t, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for Index of parity position")
		}
	}()
	m.Index(0, m.Layout().ParityPos(0, 0))
}

func TestStripeIndexMapperDelegates(t *testing.T) {
	l := paperLayout(t, 5)
	m := StripeIndexMapper{L: l}
	if m.Loc(7) != DataLoc(l, 7) {
		t.Fatal("Loc does not match DataLoc")
	}
	s, j := l.Locate(DataLoc(l, 7))
	if m.Index(s, j) != 7 {
		t.Fatal("Index does not invert Loc")
	}
	if m.Layout() != Layout(l) {
		t.Fatal("Layout accessor wrong")
	}
}

func TestParallelMapperComplete54(t *testing.T) {
	// Small complete-design case for exhaustive slot accounting.
	d, err := blockdesign.Complete(5, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewDeclustered(d)
	if err != nil {
		t.Fatal(err)
	}
	m := NewParallelMapper(l)
	// 5 disks × (r·(G−1) = 4·3 = 12) data slots per cycle = 60 units.
	if m.slotsPerCycle() != 12 {
		t.Fatalf("slots per cycle %d, want 12", m.slotsPerCycle())
	}
}
