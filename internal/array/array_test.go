package array

import (
	"testing"

	"declust/internal/disk"
	"declust/internal/layout"
	"declust/internal/sim"
)

// testArray builds a small array: the paper's G=5 declustered layout over
// 21 disks, on 1/100-scale drives (9 cylinders, 756 units, 755 usable).
func testArray(t *testing.T, mutate func(*Config)) (*sim.Engine, *Array) {
	t.Helper()
	return arrayOf(t, 5, 1, mutate)
}

func raid5Array(t *testing.T, c int, mutate func(*Config)) (*sim.Engine, *Array) {
	t.Helper()
	l, err := layout.NewRaid5(c)
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

func totalCompleted(a *Array) int64 {
	var n int64
	for i := 0; i < a.Layout().Disks(); i++ {
		n += a.Disk(i).Stats().Completed
	}
	return n
}

func TestNewRejectsBadConfig(t *testing.T) {
	eng := sim.New()
	l, _ := layout.NewRaid5(5)
	good := Config{Layout: l, Geom: disk.IBM0661(), UnitSectors: 8}
	if _, err := New(eng, good); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []Config{
		{Geom: disk.IBM0661(), UnitSectors: 8},             // nil layout
		{Layout: l, Geom: disk.Geometry{}, UnitSectors: 8}, // bad geometry
		{Layout: l, Geom: disk.IBM0661(), UnitSectors: 0},  // bad unit size
	}
	for i, cfg := range bad {
		if _, err := New(eng, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestInitialStateConsistent(t *testing.T) {
	bothCodes(t, func(t *testing.T, m int) {
		_, a := arrayOf(t, 5, m, nil)
		if a.Parities() != m {
			t.Fatalf("Parities() = %d, want %d", a.Parities(), m)
		}
		if err := a.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
		if a.Degraded() || a.Reconstructing() || a.FailedDisk() != -1 {
			t.Fatal("fresh array not fault-free")
		}
	})
}

func TestFaultFreeReadReturnsData(t *testing.T) {
	eng, a := testArray(t, nil)
	for _, unit := range []int64{0, 1, a.DataUnits() / 2, a.DataUnits() - 1} {
		var got uint64
		a.Read(unit, func(v uint64) { got = v })
		eng.Run()
		if got != a.ExpectedValue(unit) {
			t.Fatalf("unit %d read %#x, want %#x", unit, got, a.ExpectedValue(unit))
		}
	}
}

func TestFaultFreeReadIsOneAccess(t *testing.T) {
	eng, a := testArray(t, nil)
	a.Read(17, func(uint64) {})
	eng.Run()
	if n := totalCompleted(a); n != 1 {
		t.Fatalf("read used %d disk accesses, want 1", n)
	}
}

func TestWriteThenReadBack(t *testing.T) {
	eng, a := testArray(t, nil)
	a.Write(100, func() {
		a.Read(100, func(v uint64) {
			if v != a.ExpectedValue(100) {
				t.Errorf("read back %#x, want %#x", v, a.ExpectedValue(100))
			}
		})
	})
	eng.Run()
}

func TestManyRandomOpsStayConsistent(t *testing.T) {
	bothCodes(t, func(t *testing.T, m int) {
		eng, a := arrayOf(t, 5, m, nil)
		pumpWorkload(eng, a, 2000, 5000, 11)
		eng.Run()
		if err := a.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestConcurrentWritesSameStripeSerialize(t *testing.T) {
	eng, a := testArray(t, nil)
	// Units 0..3 share parity stripe 0 under the stripe-index mapping.
	done := 0
	for u := int64(0); u < 4; u++ {
		a.Write(u, func() { done++ })
	}
	eng.Run()
	if done != 4 {
		t.Fatalf("%d writes completed, want 4", done)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatalf("parity corrupted by concurrent same-stripe writes: %v", err)
	}
}

func TestFailValidation(t *testing.T) {
	_, a := testArray(t, nil)
	if err := a.Fail(99); err == nil {
		t.Fatal("failing a nonexistent disk accepted")
	}
	if err := a.Fail(3); err != nil {
		t.Fatal(err)
	}
	if err := a.Fail(4); err == nil {
		t.Fatal("second failure accepted; single-failure model")
	}
	if !a.Degraded() || a.FailedDisk() != 3 {
		t.Fatal("failure state wrong")
	}
}

func TestReplaceValidation(t *testing.T) {
	_, a := testArray(t, nil)
	if err := a.Replace(); err == nil {
		t.Fatal("replace with no failure accepted")
	}
	a.Fail(0)
	if err := a.Replace(); err != nil {
		t.Fatal(err)
	}
	if err := a.Replace(); err == nil {
		t.Fatal("double replace accepted")
	}
}

func TestDegradedReadReconstructsOnTheFly(t *testing.T) {
	eng, a := testArray(t, nil)
	a.Fail(2)
	// Find a data unit on the failed disk.
	var unit int64 = -1
	for n := int64(0); n < a.DataUnits(); n++ {
		if layout.DataLoc(a.Layout(), n).Disk == 2 {
			unit = n
			break
		}
	}
	if unit < 0 {
		t.Fatal("no data unit on failed disk")
	}
	var got uint64
	a.Read(unit, func(v uint64) { got = v })
	eng.Run()
	if got != a.ExpectedValue(unit) {
		t.Fatalf("degraded read %#x, want %#x", got, a.ExpectedValue(unit))
	}
	// G-1 = 4 disk accesses.
	if n := totalCompleted(a); n != 4 {
		t.Fatalf("on-the-fly read used %d accesses, want G-1=4", n)
	}
}

// TestDegradedManyOpsStayRecoverable runs a mixed workload against a
// degraded array — every degraded write plan and on-the-fly read, many times
// over — then rebuilds: nothing may be lost or left inconsistent on the way.
func TestDegradedManyOpsStayRecoverable(t *testing.T) {
	bothCodes(t, func(t *testing.T, m int) {
		eng, a := arrayOf(t, 5, m, nil)
		if err := a.Fail(7); err != nil {
			t.Fatal(err)
		}
		pumpWorkload(eng, a, 1500, 5000, 13)
		eng.Run()
		if err := a.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
		if err := a.Replace(); err != nil {
			t.Fatal(err)
		}
		if err := a.Reconstruct(nil); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if a.Degraded() {
			t.Fatal("rebuild did not heal the array")
		}
		if err := a.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
		if len(a.DataLosses()) != 0 {
			t.Fatalf("degraded lifecycle recorded losses: %v", a.DataLosses())
		}
	})
}

func TestRaid5DegradedReadTouchesAllSurvivors(t *testing.T) {
	eng, a := raid5Array(t, 5, nil)
	a.Fail(1)
	var unit int64 = -1
	for n := int64(0); n < a.DataUnits(); n++ {
		if layout.DataLoc(a.Layout(), n).Disk == 1 {
			unit = n
			break
		}
	}
	a.Read(unit, func(uint64) {})
	eng.Run()
	// C-1 = 4 accesses, one on each survivor.
	for i := 0; i < 5; i++ {
		n := a.Disk(i).Stats().Completed
		want := int64(1)
		if i == 1 {
			want = 0
		}
		if n != want {
			t.Errorf("disk %d: %d accesses, want %d", i, n, want)
		}
	}
}

func TestReadValueDuringDegradedMatchesLatestWrite(t *testing.T) {
	eng, a := testArray(t, nil)
	a.Fail(2)
	var unit int64 = -1
	for n := int64(0); n < a.DataUnits(); n++ {
		if layout.DataLoc(a.Layout(), n).Disk == 2 {
			unit = n
			break
		}
	}
	// Write (folds into parity), then read back on the fly.
	a.Write(unit, func() {
		a.Read(unit, func(v uint64) {
			if v != a.ExpectedValue(unit) {
				t.Errorf("read %#x after degraded write, want %#x", v, a.ExpectedValue(unit))
			}
		})
	})
	eng.Run()
}
