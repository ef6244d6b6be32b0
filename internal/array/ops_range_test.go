package array

import (
	"math/rand"
	"testing"

	"declust/internal/layout"
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
	a.ReadRange(0, 21, func() {})
	run()
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
	b.ReadRange(0, 21, func() {})
	run2()
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
	a.ReadRange(0, 40, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("degraded range read never completed")
	}
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
					eng.At(when, func() { a.ReadRange(start, count, func() {}) })
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
			eng.At(when, func() { a.ReadRange(start, count, func() {}) })
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

func TestRangePanics(t *testing.T) {
	_, a := testArray(t, nil)
	for _, f := range []func(){
		func() { a.ReadRange(0, 0, func() {}) },
		func() { a.WriteRange(-1, 5, func() {}) },
		func() { a.ReadRange(a.DataUnits()-1, 5, func() {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic on invalid range")
				}
			}()
			f()
		}()
	}
}

func TestRangeWriteValuesReadBack(t *testing.T) {
	eng, a := testArray(t, nil)
	a.WriteRange(10, 7, func() {
		for n := int64(10); n < 17; n++ {
			n := n
			a.Read(n, func(v uint64) {
				if v != a.ExpectedValue(n) {
					t.Errorf("unit %d read %#x, want %#x", n, v, a.ExpectedValue(n))
				}
			})
		}
	})
	eng.Run()
}
