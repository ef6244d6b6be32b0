package reliability

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"declust/internal/analytic"
)

func TestSimulatedMTTDLMatchesAnalytic(t *testing.T) {
	// With MTTR << MTTF the closed form MTTF²/(C(C−1)·MTTR) is accurate;
	// the Monte Carlo must agree within a few standard errors.
	p := Params{C: 21, MTTFHours: 150_000, MTTRHours: 2, Seed: 1}
	res, err := SimulateMTTDL(p, 3000)
	if err != nil {
		t.Fatal(err)
	}
	want := 150_000.0 * 150_000 / (21 * 20 * 2)
	diff := math.Abs(res.MTTDLHours - want)
	if diff > 4*res.StdErrHours {
		t.Fatalf("simulated MTTDL %.3g ± %.2g, analytic %.3g (off by %.1f σ)",
			res.MTTDLHours, res.StdErrHours, want, diff/res.StdErrHours)
	}
	// Cross-check against the analytic package itself.
	a, err := analytic.Reliability{C: 21, MTTFHours: 150_000, MTTRHours: 2}.MTTDLHours()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-want) > 1e-6 {
		t.Fatalf("analytic package disagrees with formula: %v vs %v", a, want)
	}
}

func TestExponentialRepairMatchesAnalytic(t *testing.T) {
	// The exponential-repair Markov model's exact MTTDL is
	// ((2C−1)λ+μ)/(C(C−1)λ²) with λ=1/MTTF, μ=1/MTTR; for MTTR << MTTF
	// it collapses to the same closed form the analytic package uses.
	// Cross-validate the simulation against both within tolerance.
	p := Params{C: 21, MTTFHours: 150_000, MTTRHours: 2, Seed: 5, RepairDist: ExponentialRepair}
	res, err := SimulateMTTDL(p, 4000)
	if err != nil {
		t.Fatal(err)
	}
	lam, mu := 1/p.MTTFHours, 1/p.MTTRHours
	exact := ((2*21-1)*lam + mu) / (21 * 20 * lam * lam)
	if diff := math.Abs(res.MTTDLHours - exact); diff > 4*res.StdErrHours {
		t.Fatalf("exponential-repair MTTDL %.3g ± %.2g, Markov exact %.3g (off by %.1f σ)",
			res.MTTDLHours, res.StdErrHours, exact, diff/res.StdErrHours)
	}
	a, err := analytic.Reliability{C: 21, MTTFHours: 150_000, MTTRHours: 2}.MTTDLHours()
	if err != nil {
		t.Fatal(err)
	}
	// The approximation itself is within a fraction of a percent here;
	// the simulation should sit within 5% of it.
	if rel := math.Abs(res.MTTDLHours-a) / a; rel > 0.05 {
		t.Fatalf("exponential-repair MTTDL %.3g vs closed form %.3g (%.1f%% off)",
			res.MTTDLHours, a, 100*rel)
	}
}

func TestLatentErrorsLowerMTTDL(t *testing.T) {
	base := Params{C: 21, MTTFHours: 150_000, MTTRHours: 2, Seed: 6}
	clean, err := SimulateMTTDL(base, 2000)
	if err != nil {
		t.Fatal(err)
	}
	lsy := base
	lsy.LSERatePerDiskHour = 1e-5
	lossy, err := SimulateMTTDL(lsy, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if lossy.MTTDLHours >= clean.MTTDLHours/2 {
		t.Fatalf("LSEs barely moved MTTDL: %.3g vs clean %.3g",
			lossy.MTTDLHours, clean.MTTDLHours)
	}
}

func TestScrubbingRaisesMTTDL(t *testing.T) {
	// The acceptance claim: at a fixed LSE rate, scrubbing measurably
	// raises MTTDL by bounding how long errors lie latent.
	base := Params{C: 21, MTTFHours: 150_000, MTTRHours: 2, Seed: 7, LSERatePerDiskHour: 1e-5}
	unscrubbed, err := SimulateMTTDL(base, 2000)
	if err != nil {
		t.Fatal(err)
	}
	scrubbed := base
	scrubbed.ScrubIntervalHours = 168 // weekly
	s, err := SimulateMTTDL(scrubbed, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if s.MTTDLHours < 2*unscrubbed.MTTDLHours {
		t.Fatalf("weekly scrub MTTDL %.3g not measurably above unscrubbed %.3g",
			s.MTTDLHours, unscrubbed.MTTDLHours)
	}
	// More frequent scrubbing helps more.
	daily := base
	daily.ScrubIntervalHours = 24
	d, err := SimulateMTTDL(daily, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if d.MTTDLHours <= s.MTTDLHours {
		t.Fatalf("daily scrub MTTDL %.3g not above weekly %.3g", d.MTTDLHours, s.MTTDLHours)
	}
}

func TestShorterRepairImprovesReliability(t *testing.T) {
	// The whole reason reconstruction time matters (paper §2/§8).
	fast, err := SimulateMTTDL(Params{C: 21, MTTFHours: 150_000, MTTRHours: 0.5, Seed: 2}, 1500)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := SimulateMTTDL(Params{C: 21, MTTFHours: 150_000, MTTRHours: 4, Seed: 2}, 1500)
	if err != nil {
		t.Fatal(err)
	}
	// 8x shorter repair should be roughly 8x the MTTDL.
	ratio := fast.MTTDLHours / slow.MTTDLHours
	if ratio < 5 || ratio > 12 {
		t.Fatalf("MTTDL ratio %.1f for 8x repair speedup, want ~8", ratio)
	}
}

func TestMoreDisksHurtReliability(t *testing.T) {
	small, err := SimulateMTTDL(Params{C: 11, MTTFHours: 150_000, MTTRHours: 2, Seed: 3}, 1500)
	if err != nil {
		t.Fatal(err)
	}
	big, err := SimulateMTTDL(Params{C: 41, MTTFHours: 150_000, MTTRHours: 2, Seed: 3}, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if big.MTTDLHours >= small.MTTDLHours {
		t.Fatalf("41 disks MTTDL %.3g not below 11 disks %.3g", big.MTTDLHours, small.MTTDLHours)
	}
}

func TestDualParityRaisesMTTDL(t *testing.T) {
	// Exponential repair makes the P+Q lifecycle a Markov chain with
	// states counting dead disks (absorption at three): failures arrive
	// at (C−k)λ from state k, repairs complete at kμ. The expected
	// absorption time from all-healthy solves to
	//   T2 = (1 + 2μK)/((C−2)λ), K = (1 + μ/(Cλ))/((C−1)λ),
	//   T0 = 1/(Cλ) + K + T2,
	// and the simulation must agree within a few standard errors.
	dual := Params{C: 21, MTTFHours: 10_000, MTTRHours: 10, Seed: 11,
		RepairDist: ExponentialRepair, Parities: 2}
	d, err := SimulateMTTDL(dual, 1500)
	if err != nil {
		t.Fatal(err)
	}
	lam, mu := 1/dual.MTTFHours, 1/dual.MTTRHours
	c := float64(dual.C)
	k := (1 + mu/(c*lam)) / ((c - 1) * lam)
	t2 := (1 + 2*mu*k) / ((c - 2) * lam)
	exact := 1/(c*lam) + k + t2
	if diff := math.Abs(d.MTTDLHours - exact); diff > 4*d.StdErrHours {
		t.Fatalf("P+Q MTTDL %.3g ± %.2g, Markov exact %.3g (off by %.1f σ)",
			d.MTTDLHours, d.StdErrHours, exact, diff/d.StdErrHours)
	}
	// The gain over single parity is the 2-fault term — roughly
	// 2·MTTF/((C−2)·MTTR) ≈ 105 here.
	single := dual
	single.Parities = 0
	s, err := SimulateMTTDL(single, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if gain := d.MTTDLHours / s.MTTDLHours; gain < 50 || gain > 220 {
		t.Fatalf("P+Q MTTDL gain %.1f, want ~105 (single %.3g, dual %.3g)",
			gain, s.MTTDLHours, d.MTTDLHours)
	}
}

func TestDualParityAbsorbsLatentErrors(t *testing.T) {
	// Under P+Q a latent error met with one disk down is corrected by the
	// spare parity; only the two-down window is exposed. The same LSE rate
	// that halves single-parity MTTDL must leave the P+Q array well above
	// even the CLEAN single-parity array.
	lseSingle := Params{C: 21, MTTFHours: 1000, MTTRHours: 10, Seed: 12, LSERatePerDiskHour: 1e-3}
	cleanSingle := lseSingle
	cleanSingle.LSERatePerDiskHour = 0
	lseDual := lseSingle
	lseDual.Parities = 2
	s, err := SimulateMTTDL(lseSingle, 2000)
	if err != nil {
		t.Fatal(err)
	}
	c, err := SimulateMTTDL(cleanSingle, 2000)
	if err != nil {
		t.Fatal(err)
	}
	d, err := SimulateMTTDL(lseDual, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if s.MTTDLHours >= c.MTTDLHours {
		t.Fatalf("LSEs did not hurt single parity: %.3g vs clean %.3g", s.MTTDLHours, c.MTTDLHours)
	}
	if d.MTTDLHours <= c.MTTDLHours {
		t.Fatalf("lossy P+Q MTTDL %.3g not above clean single parity %.3g",
			d.MTTDLHours, c.MTTDLHours)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	p := Params{C: 21, MTTFHours: 150_000, MTTRHours: 2, Seed: 9}
	a, _ := SimulateMTTDL(p, 200)
	b, _ := SimulateMTTDL(p, 200)
	if a != b {
		t.Fatal("same seed, different results")
	}
}

func TestValidation(t *testing.T) {
	bad := []Params{
		{C: 1, MTTFHours: 1, MTTRHours: 1},
		{C: 5, MTTFHours: 0, MTTRHours: 1},
		{C: 5, MTTFHours: 1, MTTRHours: 0},
	}
	bad = append(bad,
		Params{C: 5, MTTFHours: 1, MTTRHours: 1, LSERatePerDiskHour: -1},
		Params{C: 5, MTTFHours: 1, MTTRHours: 1, ScrubIntervalHours: -1},
		Params{C: 5, MTTFHours: 1, MTTRHours: 1, RepairDist: RepairDist(9)},
		Params{C: 5, MTTFHours: 1, MTTRHours: 1, Parities: 3},
		Params{C: 2, MTTFHours: 1, MTTRHours: 1, Parities: 2},
		Params{C: 5, MTTFHours: math.NaN(), MTTRHours: 1},
		Params{C: 5, MTTFHours: math.Inf(1), MTTRHours: 1},
		Params{C: 5, MTTFHours: 1, MTTRHours: math.NaN()},
		Params{C: 5, MTTFHours: 1, MTTRHours: math.Inf(1)},
		Params{C: 5, MTTFHours: 1, MTTRHours: 1, LSERatePerDiskHour: math.NaN()},
		Params{C: 5, MTTFHours: 1, MTTRHours: 1, LSERatePerDiskHour: math.Inf(1)},
		Params{C: 5, MTTFHours: 1, MTTRHours: 1, ScrubIntervalHours: math.NaN()},
		Params{C: 5, MTTFHours: 1, MTTRHours: 1, ScrubIntervalHours: math.Inf(1)},
	)
	for i, p := range bad {
		if _, err := SimulateMTTDL(p, 10); err == nil {
			t.Errorf("params %d accepted", i)
		}
	}
	if _, err := SimulateMTTDL(Params{C: 5, MTTFHours: 1, MTTRHours: 1}, 0); err == nil {
		t.Error("zero trials accepted")
	}
}

// TestLifetimeGolden pins the lifecycle's draw sequence: every cell of a
// small grid (P and P+Q, both repair distributions, LSEs off and on, scrub
// off and daily, C = 5 and 21) must give the MTTDL and standard error, to
// the bit, that the lifecycle gave when they were recorded. A change that
// reorders, adds or drops one draw fails it, so EXPERIMENTS.md's numbers
// stay reproducible.
func TestLifetimeGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds, moving a sum in
		// the last bit.
		t.Skip("golden bits were recorded on amd64")
	}
	golden := [][2]uint64{ // math.Float64bits of MTTDLHours, StdErrHours
		{0x40b6fd5e735cdab2, 0x407c0b8822f52148},
		{0x4075a86438c60ddd, 0x40395815a2df61d6},
		{0x40b3fd2f47aefabf, 0x40761d2525b7059b},
		{0x4073a43ebe9b27a9, 0x4033de52cdf9fb96},
		{0x407a082238f36adb, 0x4033dbd0cd313c7e},
		{0x4056d0102df429ee, 0x401120a4cceb1665},
		{0x40a545ae20cd594f, 0x406713ef060065e7},
		{0x4064fb7adc149528, 0x40273717fa682fee},
		{0x40b70bbbaa02aa14, 0x407b4c69af9f384a},
		{0x40748925609f23e8, 0x403650b8290e733d},
		{0x40b65d4cd264ed3a, 0x4078e05df5db4fc6},
		{0x4076b884e6676201, 0x403688185b13a3d5},
		{0x407b11473bb28121, 0x40365feaf4cc1668},
		{0x405884d872de18ca, 0x4013c04202b7b329},
		{0x40a3a8f3ef703768, 0x4063891d8b56c84d},
		{0x4066cd687a7e0bc5, 0x4029fc8ebb8f8be8},
		{0x411626741c08be53, 0x40dbfd312eb732ed},
		{0x40a8181db35c6f2f, 0x406ce82b8a952dd3},
		{0x411880f847c12831, 0x40dce7c4bf3af5ad},
		{0x40ad5236c7737dc3, 0x406ee818af17ff14},
		{0x40caf2a183ce30ed, 0x408bf5441d05b123},
		{0x40804f2327b9dac8, 0x4040e34f56efd8cb},
		{0x40fa8ca1db8739b2, 0x40bebcb4d3e25e65},
		{0x4093b1b337532a4e, 0x405622ae6df5ab43},
		{0x411645185bcc233b, 0x40d960d2d0555390},
		{0x40ab384c5a68b832, 0x406ab86171a7ae82},
		{0x41164e226846f39f, 0x40d80650bda28651},
		{0x40ab7906fc8dd634, 0x40729744785b4a79},
		{0x40c7ef9a1fb13e58, 0x40895dc835f4a01a},
		{0x40812161e7985039, 0x4041baed5336e0f5},
		{0x40fb6f68c8bdf33d, 0x40beca59f107ce6d},
		{0x4092ac4c7e02e7f5, 0x405486f4ef0453e2},
	}
	i := 0
	for _, m := range []int{1, 2} {
		for _, dist := range []RepairDist{DeterministicRepair, ExponentialRepair} {
			for _, lse := range []float64{0, 1e-3} {
				for _, scrub := range []float64{0, 24} {
					for _, c := range []int{5, 21} {
						p := Params{C: c, MTTFHours: 1000, MTTRHours: 10, Seed: int64(i + 1), RepairDist: dist,
							LSERatePerDiskHour: lse, ScrubIntervalHours: scrub, Parities: m}
						res, err := SimulateMTTDL(p, 200)
						if err != nil {
							t.Fatal(err)
						}
						got := [2]uint64{math.Float64bits(res.MTTDLHours), math.Float64bits(res.StdErrHours)}
						if got != golden[i] {
							t.Errorf("%+v: got bits %#x (MTTDL %g h), want %#x", p, got, res.MTTDLHours, golden[i])
						}
						i++
					}
				}
			}
		}
	}
}

// lifetimeSink keeps BenchmarkLifetime's calls from being optimized away.
var lifetimeSink float64

// BenchmarkLifetime times one lifetime to data loss: the P row is the
// paper's array, the P+Q row weaker disks under dual parity. Each lifetime
// is some thousands of failures, nearly all of them repaired.
func BenchmarkLifetime(b *testing.B) {
	for _, bc := range []struct {
		name string
		p    Params
	}{
		{"P", Params{C: 21, MTTFHours: 150_000, MTTRHours: 2}},
		{"PQ", Params{C: 21, MTTFHours: 10_000, MTTRHours: 10, Parities: 2}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lifetimeSink = lifetime(bc.p, rng)
			}
		})
	}
}
