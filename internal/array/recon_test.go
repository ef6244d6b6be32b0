package array

import (
	"math/rand"
	"testing"

	"declust/internal/layout"
	"declust/internal/sim"
)

// earliestDataUnitOnDisk returns the data unit with the smallest offset on
// the given disk (offset 0 may hold parity).
func earliestDataUnitOnDisk(t *testing.T, a *Array, d int) (unit, off int64) {
	t.Helper()
	unit, off = -1, -1
	for n := int64(0); n < a.DataUnits(); n++ {
		loc := layout.DataLoc(a.Layout(), n)
		if loc.Disk == d && (off < 0 || loc.Offset < off) {
			unit, off = n, loc.Offset
		}
	}
	if unit < 0 {
		t.Fatalf("no data unit on disk %d", d)
	}
	return unit, off
}

// pumpWorkload schedules n random user ops over [0, spanMS).
func pumpWorkload(eng *sim.Engine, a *Array, n int, spanMS float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		unit := rng.Int63n(a.DataUnits())
		when := rng.Float64() * spanMS
		if rng.Intn(2) == 0 {
			eng.At(when, func() { a.Read(unit, func(uint64) {}) })
		} else {
			eng.At(when, func() { a.WriteRange(unit, 1, func() {}) })
		}
	}
}

func TestReconstructValidation(t *testing.T) {
	_, a := testArray(t, nil)
	if err := a.Reconstruct(nil); err == nil {
		t.Fatal("reconstruct with no failure accepted")
	}
	a.Fail(0)
	if err := a.Reconstruct(nil); err == nil {
		t.Fatal("reconstruct with no replacement accepted")
	}
	a.Replace()
	if err := a.Reconstruct(nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Reconstruct(nil); err == nil {
		t.Fatal("double reconstruct accepted")
	}
}

func TestReconstructionIdleSweep(t *testing.T) {
	eng, a := testArray(t, nil)
	a.Fail(5)
	a.Replace()
	healed := false
	if err := a.Reconstruct(func() { healed = true }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !healed {
		t.Fatal("reconstruction never completed")
	}
	if a.Degraded() || a.Reconstructing() {
		t.Fatal("array did not heal")
	}
	if a.ReconCycles() != a.UnitsPerDisk() {
		t.Fatalf("sweep reconstructed %d units, want %d", a.ReconCycles(), a.UnitsPerDisk())
	}
	if a.ReconTimeMS() <= 0 {
		t.Fatal("no reconstruction time recorded")
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestReconstructionRestoresExactContents(t *testing.T) {
	// Write some data, snapshot the failed disk's true contents, fail it,
	// reconstruct with concurrent user activity, verify every unit.
	for _, alg := range []ReconAlgorithm{Baseline, UserWrites, Redirect, RedirectPiggyback} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			eng, a := testArray(t, func(c *Config) {
				c.Algorithm = alg
				c.ReconProcs = 4
			})
			a.Fail(9)
			a.Replace()
			pumpWorkload(eng, a, 1200, 20000, int64(alg)+101)
			if err := a.Reconstruct(nil); err != nil {
				t.Fatal(err)
			}
			eng.Run()
			if a.Degraded() {
				t.Fatal("not healed")
			}
			if err := a.CheckConsistency(); err != nil {
				t.Fatalf("algorithm %v corrupted data: %v", alg, err)
			}
			// Every data unit on the replaced disk must hold its
			// expected value.
			for n := int64(0); n < a.DataUnits(); n++ {
				loc := layout.DataLoc(a.Layout(), n)
				if loc.Disk != 9 {
					continue
				}
				if got := a.UnitContent(loc); got != a.ExpectedValue(n) {
					t.Fatalf("unit %d at %v holds %#x, want %#x", n, loc, got, a.ExpectedValue(n))
				}
			}
		})
	}
}

func TestParallelReconstructionFaster(t *testing.T) {
	run := func(procs int) float64 {
		eng, a := testArray(t, func(c *Config) { c.ReconProcs = procs })
		a.Fail(1)
		a.Replace()
		pumpWorkload(eng, a, 500, 30000, 7)
		if err := a.Reconstruct(nil); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		return a.ReconTimeMS()
	}
	t1 := run(1)
	t8 := run(8)
	if t8*1.5 > t1 {
		t.Fatalf("8-way reconstruction (%v ms) not substantially faster than single (%v ms)", t8, t1)
	}
}

func TestReconstructionWritePhaseSequentialAndCheap(t *testing.T) {
	// The paper's key observation (Table 8-1): under user load the
	// survivors queue random work, so the read phase dominates, while
	// the baseline algorithm's replacement disk — kept free of user
	// work — services its near-sequential writes far faster.
	eng, a := testArray(t, func(c *Config) { c.Algorithm = Baseline })
	a.Fail(4)
	a.Replace()
	pumpWorkload(eng, a, 4000, 60000, 31)
	a.Reconstruct(nil)
	eng.Run()
	r, w := a.ReadPhase().Mean(), a.WritePhase().Mean()
	if w*2 > r {
		t.Fatalf("write phase %v ms not well below read phase %v ms", w, r)
	}
}

func TestRedirectServesReconstructedReadsFromReplacement(t *testing.T) {
	eng, a := testArray(t, func(c *Config) { c.Algorithm = Redirect })
	a.Fail(2)
	a.Replace()
	a.Reconstruct(nil)
	eng.Run() // complete reconstruction with no user load
	// Array healed; re-fail is not the point — instead check during
	// reconstruction: do it again with a mid-flight probe.
	eng2, a2 := testArray(t, func(c *Config) {
		c.Algorithm = Redirect
		// Slow the sweep to 5 cycles/s so probes land in idle windows
		// where no reconstruction I/O touches the replacement.
		c.ReconThrottleCyclesPerSec = 5
	})
	a2.Fail(2)
	a2.Replace()
	unit, off := earliestDataUnitOnDisk(t, a2, 2)
	a2.Reconstruct(nil)
	probed := false
	var watch func()
	watch = func() {
		if !a2.Degraded() {
			return
		}
		if !a2.Reconstructed(off) {
			eng2.Schedule(5, watch)
			return
		}
		// Probe mid-window: 50 ms after a cycle boundary, 150 ms
		// before the next.
		eng2.Schedule(50, func() {
			if !a2.Degraded() {
				return
			}
			before := a2.Disk(2).Stats().Completed
			a2.Read(unit, func(uint64) {
				if got := a2.Disk(2).Stats().Completed; got != before+1 {
					t.Errorf("redirected read did not hit replacement (completed %d -> %d)", before, got)
				}
				probed = true
			})
		})
	}
	eng2.Schedule(5, watch)
	eng2.RunUntil(60_000)
	if !probed {
		t.Fatal("probe never ran while degraded")
	}
}

func TestBaselineDoesNotRedirectReads(t *testing.T) {
	eng, a := testArray(t, func(c *Config) {
		c.Algorithm = Baseline
		c.ReconThrottleCyclesPerSec = 5
	})
	a.Fail(2)
	a.Replace()
	unit, off := earliestDataUnitOnDisk(t, a, 2)
	a.Reconstruct(nil)
	probed := false
	var watch func()
	watch = func() {
		if !a.Degraded() {
			return
		}
		if !a.Reconstructed(off) {
			eng.Schedule(5, watch)
			return
		}
		eng.Schedule(50, func() {
			if !a.Degraded() {
				return
			}
			before := a.Disk(2).Stats().Completed
			a.Read(unit, func(uint64) {
				// On-the-fly reconstruction: no replacement access.
				if got := a.Disk(2).Stats().Completed; got != before {
					t.Errorf("baseline read hit the replacement")
				}
				probed = true
			})
		})
	}
	eng.Schedule(5, watch)
	eng.RunUntil(60_000)
	if !probed {
		t.Fatal("probe never ran while degraded")
	}
}

func TestUserWritesReconstructsWrittenUnits(t *testing.T) {
	eng, a := testArray(t, func(c *Config) { c.Algorithm = UserWrites })
	a.Fail(2)
	a.Replace()
	var unit int64 = -1
	var off int64
	for n := a.DataUnits() - 1; n >= 0; n-- { // pick a late offset, ahead of the sweep
		loc := layout.DataLoc(a.Layout(), n)
		if loc.Disk == 2 {
			unit, off = n, loc.Offset
			break
		}
	}
	a.WriteRange(unit, 1, func() {
		if !a.Reconstructed(off) {
			t.Error("user-writes did not mark written unit reconstructed")
		}
	})
	eng.Run()
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestBaselineFoldDoesNotMarkReconstructed(t *testing.T) {
	eng, a := testArray(t, func(c *Config) { c.Algorithm = Baseline })
	a.Fail(2)
	a.Replace()
	var unit int64 = -1
	var off int64
	for n := a.DataUnits() - 1; n >= 0; n-- {
		loc := layout.DataLoc(a.Layout(), n)
		if loc.Disk == 2 {
			unit, off = n, loc.Offset
			break
		}
	}
	a.WriteRange(unit, 1, func() {
		if a.Reconstructed(off) {
			t.Error("baseline fold marked unit reconstructed")
		}
	})
	eng.Run()
}

func TestPiggybackMarksReadUnitsReconstructed(t *testing.T) {
	eng, a := testArray(t, func(c *Config) { c.Algorithm = RedirectPiggyback })
	a.Fail(2)
	a.Replace()
	var unit int64 = -1
	var off int64
	for n := a.DataUnits() - 1; n >= 0; n-- {
		loc := layout.DataLoc(a.Layout(), n)
		if loc.Disk == 2 {
			unit, off = n, loc.Offset
			break
		}
	}
	a.Read(unit, func(uint64) {})
	eng.Run()
	if !a.Reconstructed(off) {
		t.Fatal("piggyback did not write back the on-the-fly reconstruction")
	}
	if got, want := a.UnitContent(layout.Loc{Disk: 2, Offset: off}), a.ExpectedValue(unit); got != want {
		t.Fatalf("piggybacked content %#x, want %#x", got, want)
	}
}

func TestFreeReconstructionReducesSweepCycles(t *testing.T) {
	// Under user-writes, units written by users ahead of the sweep are
	// skipped: sweep cycles < units per disk.
	eng, a := testArray(t, func(c *Config) { c.Algorithm = UserWrites })
	a.Fail(2)
	a.Replace()
	pumpWorkload(eng, a, 3000, 60000, 99)
	a.Reconstruct(nil)
	eng.Run()
	if a.ReconCycles() >= a.UnitsPerDisk() {
		t.Fatalf("sweep did %d cycles, want fewer than %d (free reconstruction)", a.ReconCycles(), a.UnitsPerDisk())
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestThrottledReconstructionSlower(t *testing.T) {
	run := func(rate float64) float64 {
		eng, a := testArray(t, func(c *Config) { c.ReconThrottleCyclesPerSec = rate })
		a.Fail(3)
		a.Replace()
		a.Reconstruct(nil)
		eng.Run()
		return a.ReconTimeMS()
	}
	free := run(0)
	slow := run(20) // 20 cycles/s * 755 units ≈ 37.8 s minimum
	if slow < free*1.5 {
		t.Fatalf("throttled recon (%v ms) not slower than unthrottled (%v ms)", slow, free)
	}
	if min := 1000 * float64(755-1) / 20; slow < min {
		t.Fatalf("throttled recon %v ms beat the throttle floor %v ms", slow, min)
	}
}

func TestLowPriorityReconstructionStillCompletes(t *testing.T) {
	eng, a := testArray(t, func(c *Config) {
		c.ReconLowPriority = true
		c.ReconProcs = 2
	})
	a.Fail(6)
	a.Replace()
	pumpWorkload(eng, a, 800, 20000, 5)
	healed := false
	a.Reconstruct(func() { healed = true })
	eng.Run()
	if !healed {
		t.Fatal("low-priority reconstruction starved")
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestRaid5Reconstruction(t *testing.T) {
	eng, a := raid5Array(t, 5, func(c *Config) { c.ReconProcs = 2 })
	a.Fail(0)
	a.Replace()
	pumpWorkload(eng, a, 400, 10000, 21)
	a.Reconstruct(nil)
	eng.Run()
	if a.Degraded() {
		t.Fatal("RAID 5 did not heal")
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestMidFlightFailureDuringRMW(t *testing.T) {
	// Regression: a read-modify-write in flight when its data disk fails
	// and is instantly replaced (hot spare) must not fold stale zeros
	// into parity. The old-content sample must come from submit time,
	// before Replace swaps the slot's contents.
	eng, a := testArray(t, func(c *Config) { c.ReconProcs = 8 })
	unit, _ := earliestDataUnitOnDisk(t, a, 5)
	committed := false
	a.WriteRange(unit, 1, func() { committed = true })
	// Fail the disk 1 ms in — mid pre-read — and hot-replace it.
	eng.Schedule(1, func() {
		if err := a.Fail(5); err != nil {
			t.Fatal(err)
		}
		if err := a.Replace(); err != nil {
			t.Fatal(err)
		}
		if err := a.Reconstruct(nil); err != nil {
			t.Fatal(err)
		}
	})
	eng.Run()
	if !committed {
		t.Fatal("write never completed")
	}
	if a.Degraded() {
		t.Fatal("reconstruction did not finish")
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatalf("mid-flight failure corrupted the stripe: %v", err)
	}
	// The written value must have survived the failure, whichever path
	// physically carried it.
	var got uint64
	a.Read(unit, func(v uint64) { got = v })
	eng.Run()
	if got != a.ExpectedValue(unit) {
		t.Fatalf("unit %d reads %#x after mid-flight failure, want %#x", unit, got, a.ExpectedValue(unit))
	}
}

func TestMidFlightFailureManyOps(t *testing.T) {
	// Broader fuzz of the same window: many in-flight ops when a disk
	// fails, replaced after a short delay, reconstructed under load.
	eng, a := testArray(t, func(c *Config) { c.ReconProcs = 4 })
	pumpWorkload(eng, a, 2000, 30000, 123)
	eng.At(1500, func() {
		if err := a.Fail(11); err != nil {
			t.Fatal(err)
		}
	})
	eng.At(2500, func() {
		if err := a.Replace(); err != nil {
			t.Fatal(err)
		}
		if err := a.Reconstruct(nil); err != nil {
			t.Fatal(err)
		}
	})
	eng.Run()
	if a.Degraded() {
		t.Fatal("not healed")
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestDeclusteredSpreadsReconstructionLoad(t *testing.T) {
	// With α = 0.2, each survivor should service roughly λG/(rG) = 1/5 of
	// the units the RAID 5 survivors would; equivalently, survivors read
	// about α × unitsPerDisk units each.
	eng, a := testArray(t, nil)
	a.Fail(0)
	a.Replace()
	a.Reconstruct(nil)
	eng.Run()
	per := a.UnitsPerDisk()
	for i := 1; i < a.Layout().Disks(); i++ {
		n := a.Disk(i).Stats().Completed
		want := float64(per) * a.Layout().Alpha()
		if float64(n) < want*0.9 || float64(n) > want*1.1 {
			t.Errorf("survivor %d serviced %d reads, want ~%.0f (α×units)", i, n, want)
		}
	}
}
