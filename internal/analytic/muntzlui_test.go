package analytic

import (
	"math"
	"testing"
)

func baseModel() Model {
	return Model{
		C: 21, G: 5,
		UserRate:     210,
		ReadFraction: 0.5,
		DiskRate:     46,
		UnitsPerDisk: 79716, // full IBM 0661, 4 KB units
		Algorithm:    UserWrites,
	}
}

func TestWorkloadConversions(t *testing.T) {
	m := baseModel()
	// (4−3R)·λ with R=0.5: 2.5·210 = 525 accesses/s over 21 disks = 25/s.
	if got := m.FaultFreeDiskLoad(); math.Abs(got-25) > 1e-9 {
		t.Fatalf("fault-free disk load %v, want 25", got)
	}
	// (2−R)/(4−3R) = 1.5/2.5 = 0.6.
	if got := m.DiskAccessReadFraction(); math.Abs(got-0.6) > 1e-9 {
		t.Fatalf("disk read fraction %v, want 0.6", got)
	}
}

func TestValidation(t *testing.T) {
	bad := []Model{
		{C: 2, G: 2, UserRate: 1, DiskRate: 1, UnitsPerDisk: 1},
		{C: 21, G: 22, UserRate: 1, DiskRate: 1, UnitsPerDisk: 1},
		{C: 21, G: 5, UserRate: -1, DiskRate: 1, UnitsPerDisk: 1},
		{C: 21, G: 5, UserRate: 1, ReadFraction: 2, DiskRate: 1, UnitsPerDisk: 1},
		{C: 21, G: 5, UserRate: 1, DiskRate: 0, UnitsPerDisk: 1},
		{C: 21, G: 5, UserRate: 1, DiskRate: 1, UnitsPerDisk: 0},
	}
	for i, m := range bad {
		if _, err := m.ReconstructionTime(); err == nil {
			t.Errorf("model %d accepted", i)
		}
	}
}

func TestZeroLoadReconstructionTime(t *testing.T) {
	// With no user load and α small, the replacement disk is the
	// bottleneck: S/μ seconds.
	m := baseModel()
	m.UserRate = 0
	got, err := m.ReconstructionTime()
	if err != nil {
		t.Fatal(err)
	}
	want := m.UnitsPerDisk / m.DiskRate // 79716/46 ≈ 1733 s
	if math.Abs(got-want)/want > 0.01 {
		t.Fatalf("zero-load reconstruction %v s, want ~%v s", got, want)
	}
	// This is the paper's §8.3 number: over 1700 seconds even idle —
	// more than 3x the fastest simulated reconstruction.
	if got < 1700 {
		t.Fatalf("idle model time %v s, paper says over 1700 s", got)
	}
}

func TestZeroLoadRaid5SurvivorBound(t *testing.T) {
	// At α = 1 (G = C), survivors must read (G−1)/(C−1) = 1 disk's worth
	// each: same bound as the replacement, so still S/μ.
	m := baseModel()
	m.G = 21
	m.UserRate = 0
	got, err := m.ReconstructionTime()
	if err != nil {
		t.Fatal(err)
	}
	want := m.UnitsPerDisk / m.DiskRate
	if math.Abs(got-want)/want > 0.01 {
		t.Fatalf("RAID 5 idle reconstruction %v, want %v", got, want)
	}
}

func TestReconstructionTimeIncreasesWithLoad(t *testing.T) {
	m := baseModel()
	prev := 0.0
	for i, rate := range []float64{0, 105, 210, 300} {
		m.UserRate = rate
		got, err := m.ReconstructionTime()
		if err != nil {
			t.Fatalf("rate %v: %v", rate, err)
		}
		if got <= prev {
			t.Fatalf("reconstruction time not increasing with load at step %d: %v <= %v", i, got, prev)
		}
		prev = got
	}
}

func TestReconstructionTimeIncreasesWithAlpha(t *testing.T) {
	// More survivor work per unit at higher α, same replacement work:
	// model time must be non-decreasing in G under load.
	m := baseModel()
	m.UserRate = 210
	prev := 0.0
	for _, g := range []int{3, 5, 10, 18, 21} {
		m.G = g
		got, err := m.ReconstructionTime()
		if err != nil {
			t.Fatalf("G=%d: %v", g, err)
		}
		if got < prev {
			t.Fatalf("model time decreased at G=%d: %v < %v", g, got, prev)
		}
		prev = got
	}
}

func TestSaturationDetected(t *testing.T) {
	m := baseModel()
	m.UserRate = 1000 // 1000 accesses/s over 21 disks with writes: saturated
	if _, err := m.ReconstructionTime(); err == nil {
		t.Fatal("saturated model returned a finite time")
	}
}

func TestOptimizedAlgorithmsPredictedFasterWhenSurvivorBound(t *testing.T) {
	// Where the surviving set is the bottleneck (α = 1, heavy load), the
	// M&L model — with no positioning penalty for work sent to the
	// replacement — predicts the redirect algorithms at least as fast as
	// user-writes: the prediction the paper's simulations refute.
	m := baseModel()
	m.G = 21
	m.UserRate = 210
	times := map[Algorithm]float64{}
	for _, alg := range []Algorithm{Baseline, UserWrites, Redirect, RedirectPiggyback} {
		m.Algorithm = alg
		got, err := m.ReconstructionTime()
		if err != nil {
			t.Fatal(err)
		}
		times[alg] = got
	}
	if times[Redirect] > times[UserWrites]*1.001 {
		t.Fatalf("model predicts redirect (%v) slower than user-writes (%v)", times[Redirect], times[UserWrites])
	}
	if times[RedirectPiggyback] > times[Redirect]*1.001 {
		t.Fatalf("model predicts piggyback (%v) slower than redirect (%v)", times[RedirectPiggyback], times[Redirect])
	}
	// Free reconstruction makes user-writes faster than baseline at any α.
	for _, g := range []int{5, 21} {
		m.G = g
		m.Algorithm = Baseline
		tb, err := m.ReconstructionTime()
		if err != nil {
			t.Fatal(err)
		}
		m.Algorithm = UserWrites
		tu, err := m.ReconstructionTime()
		if err != nil {
			t.Fatal(err)
		}
		if tu > tb*1.001 {
			t.Fatalf("G=%d: model predicts user-writes (%v) slower than baseline (%v)", g, tu, tb)
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	if Baseline.String() != "baseline" || Algorithm(99).String() == "" {
		t.Fatal("bad Algorithm strings")
	}
}

func TestMTTDL(t *testing.T) {
	r := Reliability{C: 21, MTTFHours: 150000, MTTRHours: 1}
	got, err := r.MTTDLHours()
	if err != nil {
		t.Fatal(err)
	}
	want := 150000.0 * 150000 / (21 * 20 * 1)
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("MTTDL %v, want %v", got, want)
	}
	// Longer repair -> lower MTTDL (the reason reconstruction time
	// matters for reliability).
	r2 := r
	r2.MTTRHours = 4
	got2, _ := r2.MTTDLHours()
	if got2*3.9 > got {
		t.Fatalf("MTTDL did not scale inversely with MTTR: %v vs %v", got, got2)
	}
	p, err := r.TenYearDataLossProbability()
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0 || p >= 1 {
		t.Fatalf("ten-year loss probability %v out of (0,1)", p)
	}
	for _, bad := range []Reliability{
		{C: 1, MTTFHours: 1, MTTRHours: 1},
		{C: 5, MTTFHours: math.NaN(), MTTRHours: 1},
		{C: 5, MTTFHours: math.Inf(1), MTTRHours: 1},
		{C: 5, MTTFHours: 1, MTTRHours: math.NaN()},
		{C: 5, MTTFHours: 1, MTTRHours: math.Inf(1)},
	} {
		if _, err := bad.MTTDLHours(); err == nil {
			t.Fatalf("invalid reliability %+v accepted", bad)
		}
	}
}
