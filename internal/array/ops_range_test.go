package array

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"declust/internal/layout"
	"declust/internal/metrics"
)

func TestRangeWriteSpanningStripes(t *testing.T) {
	// 8 units starting at 0 with G=5: stripe 0 fully (large write, 5
	// accesses) + stripe 1 one... 8 units = stripe0 units 0-3 (large
	// write: 5) + stripe1 units 4-7 (large write: 5).
	eng, a := testArray(t, nil)
	a.WriteRange(0, 8, func() {})
	eng.Run()
	if n := totalCompleted(a); n != 10 {
		t.Fatalf("8-unit aligned write used %d accesses, want 10 (two large writes)", n)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestUnalignedRangeWrite(t *testing.T) {
	// Units 2..6 with G=5: stripe 0 gets units 2,3 (k=2: RMW 6 vs
	// reconstruct G=5 -> reconstruct-write, 5 accesses), stripe 1 gets
	// unit 4 (k=1: RMW 4).
	eng, a := testArray(t, nil)
	a.WriteRange(2, 3, func() {})
	eng.Run()
	if n := totalCompleted(a); n != 9 {
		t.Fatalf("unaligned write used %d accesses, want 9", n)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestRangeReadParallelism(t *testing.T) {
	// Under the parallel mapper, C consecutive units touch C distinct
	// disks; under stripe-index they reuse disks (the §4.2 trade-off).
	mkArray := func(parallel bool) (*Array, func()) {
		eng, a := testArray(t, func(c *Config) {
			if parallel {
				c.DataMapper = layout.NewParallelMapper(c.Layout)
			}
		})
		return a, func() { eng.Run() }
	}

	a, run := mkArray(true)
	got := make([]uint64, 21)
	a.ReadRange(0, got, func() {})
	run()
	checkValues(t, a, 0, got)
	busy := 0
	for i := 0; i < 21; i++ {
		if a.Disk(i).Stats().Completed > 0 {
			busy++
		}
	}
	if busy != 21 {
		t.Fatalf("parallel mapper: %d disks used for a 21-unit read, want 21", busy)
	}

	b, run2 := mkArray(false)
	b.ReadRange(0, got, func() {})
	run2()
	checkValues(t, b, 0, got)
	busy = 0
	for i := 0; i < 21; i++ {
		if b.Disk(i).Stats().Completed > 0 {
			busy++
		}
	}
	if busy >= 21 {
		t.Fatalf("stripe-index mapper unexpectedly reached all %d disks", busy)
	}
}

func TestRangeReadDegraded(t *testing.T) {
	eng, a := testArray(t, nil)
	a.Fail(3)
	// Read a span crossing units on the failed disk.
	done := false
	got := make([]uint64, 40)
	a.ReadRange(0, got, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("degraded range read never completed")
	}
	checkValues(t, a, 0, got)
}

func TestRangeWriteDegradedFallsBackPerUnit(t *testing.T) {
	eng, a := testArray(t, nil)
	a.Fail(3)
	a.WriteRange(0, 40, func() {})
	eng.Run()
	if err := a.CheckConsistency(); err != nil {
		t.Fatalf("degraded range write broke recoverability: %v", err)
	}
}

func TestRangeOpsDuringReconstructionStayConsistent(t *testing.T) {
	for _, alg := range []ReconAlgorithm{Baseline, UserWrites, Redirect, RedirectPiggyback} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			eng, a := testArray(t, func(c *Config) {
				c.Algorithm = alg
				c.ReconProcs = 4
			})
			a.Fail(6)
			a.Replace()
			rng := rand.New(rand.NewSource(int64(alg) + 55))
			for i := 0; i < 300; i++ {
				start := rng.Int63n(a.DataUnits() - 32)
				count := 1 + rng.Intn(12)
				when := rng.Float64() * 20000
				if rng.Intn(2) == 0 {
					eng.At(when, func() { a.ReadRange(start, make([]uint64, count), func() {}) })
				} else {
					eng.At(when, func() { a.WriteRange(start, count, func() {}) })
				}
			}
			a.Reconstruct(nil)
			eng.Run()
			if a.Degraded() {
				t.Fatal("reconstruction did not finish")
			}
			if err := a.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRangeOpsWithParallelMapperConsistent(t *testing.T) {
	eng, a := testArray(t, func(c *Config) {
		c.DataMapper = layout.NewParallelMapper(c.Layout)
	})
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 800; i++ {
		start := rng.Int63n(a.DataUnits() - 32)
		count := 1 + rng.Intn(21)
		when := rng.Float64() * 20000
		if rng.Intn(2) == 0 {
			eng.At(when, func() { a.ReadRange(start, make([]uint64, count), func() {}) })
		} else {
			eng.At(when, func() { a.WriteRange(start, count, func() {}) })
		}
	}
	eng.Run()
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestParallelMapperReconstructionCorrect(t *testing.T) {
	eng, a := testArray(t, func(c *Config) {
		c.DataMapper = layout.NewParallelMapper(c.Layout)
		c.Algorithm = Redirect
		c.ReconProcs = 4
	})
	a.Fail(2)
	a.Replace()
	pumpWorkload(eng, a, 800, 15000, 9)
	a.Reconstruct(nil)
	eng.Run()
	if a.Degraded() {
		t.Fatal("not healed")
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestUserOpCountersCountRangesOnce: array_user_reads and
// array_user_writes count each user operation once — a range as one, and
// not again for the units it hands to the single-unit paths (a degraded
// stripe's lost read, a degraded stripe's per-unit writes).
func TestUserOpCountersCountRangesOnce(t *testing.T) {
	for _, failed := range []int{-1, 3} {
		reg := metrics.NewRegistry()
		eng, a := testArray(t, func(c *Config) { c.Metrics = reg })
		if failed >= 0 {
			if err := a.Fail(failed); err != nil {
				t.Fatal(err)
			}
		}
		a.ReadRange(0, make([]uint64, 40), func() {})
		a.WriteRange(40, 40, func() {})
		a.ReadRange(100, make([]uint64, 1), func() {})
		a.WriteRange(101, 1, func() {})
		eng.Run()
		reads, writes := reg.Counter("array_user_reads").Value(), reg.Counter("array_user_writes").Value()
		if reads != 2 || writes != 2 {
			t.Errorf("failed disk %d: counted %d reads and %d writes, want 2 and 2", failed, reads, writes)
		}
	}
}

// TestRangePanics: a range that is empty or leaves the data space is a
// driver bug, and panics with the range named — also where unit + count
// wraps past math.MaxInt64.
func TestRangePanics(t *testing.T) {
	_, a := testArray(t, nil)
	const outside = "outside data space"
	for _, c := range []struct {
		want string
		f    func()
	}{
		{"range of 0 units", func() { a.ReadRange(0, nil, func() {}) }},
		{outside, func() { a.WriteRange(-1, 5, func() {}) }},
		{outside, func() { a.ReadRange(a.DataUnits()-1, make([]uint64, 5), func() {}) }},
		{outside, func() { a.ReadRange(math.MaxInt64-1, make([]uint64, 4), func() {}) }},
		{outside, func() { a.WriteRange(math.MaxInt64-1, 4, func() {}) }},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, c.want) {
					t.Errorf("panicked with %q, want %q", msg, c.want)
				}
			}()
			c.f()
		}()
	}
}

func TestRangeWriteValuesReadBack(t *testing.T) {
	eng, a := testArray(t, nil)
	got := make([]uint64, 7)
	a.WriteRange(10, 7, func() {
		a.ReadRange(10, got, func() { checkValues(t, a, 10, got) })
	})
	eng.Run()
}

// checkValues reports every unit of got, read from first on, whose value is
// not the one last written to it.
func checkValues(t *testing.T, a *Array, first int64, got []uint64) {
	t.Helper()
	for i, v := range got {
		if n := first + int64(i); v != a.ExpectedValue(n) {
			t.Errorf("unit %d read %#x, want %#x", n, v, a.ExpectedValue(n))
		}
	}
}
