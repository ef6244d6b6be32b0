package array

import (
	"testing"

	"declust/internal/blockdesign"
	"declust/internal/drive"
	"declust/internal/layout"
	"declust/internal/sim"
)

// sparedArray builds a distributed-sparing array: logical G=5 over the
// paper's k=6 design, 1/100-scale drives.
func sparedArray(t *testing.T, mutate func(*Config)) (*sim.Engine, *Array) {
	t.Helper()
	d, err := blockdesign.PaperDesign(6)
	if err != nil {
		t.Fatal(err)
	}
	l, err := layout.NewSpared(d)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Layout:             l,
		Geom:               drive.IBM0661().Scaled(100),
		UnitSectors:        8,
		ReconProcs:         4,
		DistributedSparing: true,
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

func TestSparingRequiresSpareLayout(t *testing.T) {
	l, _ := layout.NewRaid5(5)
	eng := sim.New()
	_, err := New(eng, Config{
		Layout: l, Geom: drive.IBM0661().Scaled(100), UnitSectors: 8,
		DistributedSparing: true,
	})
	if err == nil {
		t.Fatal("sparing accepted without a spare-bearing layout")
	}
}

func TestSparingRejectsReplace(t *testing.T) {
	_, a := sparedArray(t, nil)
	a.Fail(3)
	if err := a.Replace(); err == nil {
		t.Fatal("Replace accepted on a distributed-sparing array")
	}
}

func TestSparedArrayFaultFreeOps(t *testing.T) {
	eng, a := sparedArray(t, nil)
	pumpWorkload(eng, a, 1000, 20000, 17)
	eng.Run()
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestSparingReconstructionIntoSpares(t *testing.T) {
	eng, a := sparedArray(t, nil)
	if err := a.Fail(3); err != nil {
		t.Fatal(err)
	}
	// No Replace: reconstruction goes straight into spare units.
	done := false
	if err := a.Reconstruct(func() { done = true }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !done || !a.Spared() {
		t.Fatalf("done=%v spared=%v", done, a.Spared())
	}
	// The slot stays failed (no copyback) but the array is consistent
	// and every lost unit is readable.
	if !a.Degraded() {
		t.Fatal("spared array claims healed; no replacement was installed")
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// The failed disk's physical device received no reconstruction
	// writes — everything went to survivors.
	if n := a.Disk(3).Stats().Completed; n != 0 {
		t.Fatalf("failed disk serviced %d requests during sparing", n)
	}
}

func TestSparingReadsAfterCompletion(t *testing.T) {
	eng, a := sparedArray(t, nil) // Baseline algorithm
	a.Fail(3)
	a.Reconstruct(nil)
	eng.Run()
	// Post-sparing, even Baseline serves spared units directly: one
	// access, on a surviving disk.
	unit, _ := earliestDataUnitOnDisk(t, a, 3)
	before := totalCompleted(a)
	got := make([]uint64, 1)
	a.ReadRange(unit, got, func() {})
	eng.Run()
	if got[0] != a.ExpectedValue(unit) {
		t.Fatalf("spared read %#x, want %#x", got[0], a.ExpectedValue(unit))
	}
	if n := totalCompleted(a) - before; n != 1 {
		t.Fatalf("spared read used %d accesses, want 1", n)
	}
}

func TestSparingWritesAfterCompletion(t *testing.T) {
	eng, a := sparedArray(t, nil)
	a.Fail(3)
	a.Reconstruct(nil)
	eng.Run()
	unit, _ := earliestDataUnitOnDisk(t, a, 3)
	a.WriteRange(unit, 1, func() {})
	eng.Run()
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	got := make([]uint64, 1)
	a.ReadRange(unit, got, func() {})
	eng.Run()
	if got[0] != a.ExpectedValue(unit) {
		t.Fatalf("spared unit reads %#x after write, want %#x", got[0], a.ExpectedValue(unit))
	}
}

func TestSparingUnderConcurrentLoadAllAlgorithms(t *testing.T) {
	for _, alg := range []ReconAlgorithm{Baseline, UserWrites, Redirect, RedirectPiggyback} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			eng, a := sparedArray(t, func(c *Config) { c.Algorithm = alg })
			a.Fail(7)
			pumpWorkload(eng, a, 1200, 20000, int64(alg)+400)
			if err := a.Reconstruct(nil); err != nil {
				t.Fatal(err)
			}
			eng.Run()
			if !a.Spared() {
				t.Fatal("sparing did not complete")
			}
			if err := a.CheckConsistency(); err != nil {
				t.Fatalf("%v corrupted data: %v", alg, err)
			}
			// Every lost data unit must hold its expected value at its
			// spare location.
			for n := int64(0); n < a.DataUnits(); n++ {
				loc := a.mapper.Loc(n)
				if loc.Disk != 7 {
					continue
				}
				if got := a.unitVal(loc); got != a.ExpectedValue(n) {
					t.Fatalf("unit %d reads %#x via spare, want %#x", n, got, a.ExpectedValue(n))
				}
			}
		})
	}
}

func TestSparingSpreadsReconstructionWrites(t *testing.T) {
	// The reason distributed sparing exists: reconstruction writes land
	// on many survivors, not one replacement disk.
	eng, a := sparedArray(t, nil)
	a.Fail(0)
	a.Reconstruct(nil)
	eng.Run()
	writers := 0
	for i := 1; i < a.Layout().Disks(); i++ {
		var wrote int64
		st := a.Disk(i).Stats()
		wrote = st.Completed
		if wrote > 0 {
			writers++
		}
	}
	if writers < a.Layout().Disks()-1 {
		t.Fatalf("only %d survivors participated", writers)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestSparingFasterThanReplacementReconstructionUnderLoad(t *testing.T) {
	// Under user load with parallel reconstruction, the single
	// replacement disk is the write bottleneck; distributed sparing
	// spreads those writes over all survivors and rebuilds much faster.
	// (On an *idle* array the replacement's near-sequential write stream
	// is highly efficient and the two organizations are comparable —
	// sparing's advantage is precisely the continuous-operation case.)
	engS, spared := sparedArray(t, func(c *Config) { c.ReconProcs = 8 })
	spared.Fail(2)
	pumpWorkload(engS, spared, 3000, 30000, 1)
	spared.Reconstruct(nil)
	engS.Run()

	// Same logical G=5, replacement-based.
	engR, repl := testArray(t, func(c *Config) { c.ReconProcs = 8 })
	repl.Fail(2)
	repl.Replace()
	pumpWorkload(engR, repl, 3000, 30000, 1)
	repl.Reconstruct(nil)
	engR.Run()

	if spared.ReconTimeMS() >= repl.ReconTimeMS() {
		t.Fatalf("distributed sparing (%v ms) not faster than replacement (%v ms) under load",
			spared.ReconTimeMS(), repl.ReconTimeMS())
	}
}

func TestSparingDegradedModeBeforeRecon(t *testing.T) {
	eng, a := sparedArray(t, nil)
	a.Fail(5)
	// Degraded ops before any reconstruction: on-the-fly reads, folds.
	pumpWorkload(eng, a, 800, 15000, 31)
	eng.Run()
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestSparingRangeOps(t *testing.T) {
	eng, a := sparedArray(t, func(c *Config) { c.Algorithm = Redirect })
	a.Fail(4)
	a.Reconstruct(nil)
	for i := 0; i < 200; i++ {
		start := int64(i * 13 % int(a.DataUnits()-40))
		count := 1 + i%10
		when := float64(i) * 50
		if i%2 == 0 {
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
