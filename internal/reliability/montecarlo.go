// Package reliability estimates array data reliability by Monte Carlo
// simulation of the failure/repair lifecycle, validating (and relaxing the
// assumptions of) the closed-form MTTDL model in internal/analytic.
//
// The lifecycle: disks fail independently with exponential lifetimes; a
// failed disk is replaced and reconstructed over a repair window. An array
// with m parities (Params.Parities: 1 for the paper's P, 2 for P+Q) loses
// data when failure m+1 strikes while m repairs overlap, or when a latent
// sector error surfaces under a rebuild with m disks down. The paper's §2
// point — that larger C hurts reliability while shorter reconstruction
// helps — falls straight out. The second parity adds a factor of roughly
// MTTF/((C−2)·MTTR) to the MTTDL — the 2-fault term of the classical
// RAID-6 closed form.
package reliability

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// RepairDist selects the repair-time distribution.
type RepairDist int

const (
	// DeterministicRepair uses a fixed window of MTTRHours — the right
	// model when MTTR comes from a measured reconstruction time.
	DeterministicRepair RepairDist = iota
	// ExponentialRepair draws each window from an exponential with mean
	// MTTRHours — the classical Markov-model assumption, matching the
	// closed form in internal/analytic more exactly.
	ExponentialRepair
)

// Params describes the array lifecycle.
type Params struct {
	C         int     // disks in the array
	MTTFHours float64 // mean time to failure of one disk
	MTTRHours float64 // mean repair window (≈ measured reconstruction time)
	Seed      int64

	// RepairDist selects fixed or exponential repair windows.
	RepairDist RepairDist

	// LSERatePerDiskHour is the Poisson arrival rate of latent sector
	// errors per disk per hour; 0 disables the LSE pathway. A latent
	// error is harmless until a rebuild reads the disk that carries it:
	// then the stripe has lost two units and data is gone.
	LSERatePerDiskHour float64
	// ScrubIntervalHours bounds a latent error's lifetime: the scrubber
	// rereads every sector each interval and repairs errors from parity,
	// so at a random instant a sector's unverified age is Uniform(0, S).
	// 0 disables scrubbing — errors then persist until the next rebuild
	// reads every surviving disk in full.
	ScrubIntervalHours float64

	// Parities is the redundancy code: 0 or 1 models the paper's single
	// parity, 2 the P+Q dual-parity code, which survives any two
	// concurrent disk failures — loss then needs a third failure (or a
	// latent error) while two repair windows overlap.
	Parities int
}

// maxParities is the most parities a lifetime models: P+Q.
const maxParities = 2

// parities normalizes the Parities field (0 means single parity).
func (p Params) parities() int {
	if p.Parities == 0 {
		return 1
	}
	return p.Parities
}

func (p Params) validate() error {
	if m := p.parities(); m < 1 || m > maxParities || p.C <= m {
		return fmt.Errorf("reliability: %d disks, %d parities; need 1 (P) or 2 (P+Q) parities and more disks than parities", p.C, p.Parities)
	}
	if p.RepairDist != DeterministicRepair && p.RepairDist != ExponentialRepair {
		return fmt.Errorf("reliability: unknown repair distribution %d", p.RepairDist)
	}
	for _, x := range []float64{p.MTTFHours, p.MTTRHours, p.LSERatePerDiskHour, p.ScrubIntervalHours} {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("reliability: negative or non-finite time or rate in %+v", p)
		}
	}
	if p.MTTFHours == 0 || p.MTTRHours == 0 {
		return fmt.Errorf("reliability: MTTF and MTTR must be positive, have %+v", p)
	}
	return nil
}

// Result summarizes a Monte Carlo estimate.
type Result struct {
	MTTDLHours float64 // mean time to data loss
	Trials     int
	// StdErrHours is the standard error of the MTTDL estimate.
	StdErrHours float64
}

// SimulateMTTDL runs `trials` independent lifetimes to data loss and
// returns the sample mean.
func SimulateMTTDL(p Params, trials int) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	if trials < 1 {
		return Result{}, fmt.Errorf("reliability: need at least 1 trial")
	}
	rng := rand.New(rand.NewSource(p.Seed))
	var sum, sumSq float64
	for i := 0; i < trials; i++ {
		t := lifetime(p, rng)
		sum += t
		sumSq += t * t
	}
	n := float64(trials)
	mean := sum / n
	var stderr float64
	if trials > 1 {
		variance := (sumSq - n*mean*mean) / (n - 1)
		if variance > 0 {
			stderr = math.Sqrt(variance / n)
		}
	}
	return Result{MTTDLHours: mean, Trials: trials, StdErrHours: stderr}, nil
}

// lifetime simulates one array with m parities from new until data loss,
// returning hours. The state is the set of disks down, each with the repair
// time it has left. Data is lost two ways: failure m+1 arrives before a
// repair completes, or a latent sector error surfaces while m disks are
// down — the rebuild then reads every survivor in full, and a bad sector
// gives some stripe one dead unit more than the code corrects. With fewer
// than m disks down the spare parity corrects a latent error, so that state
// is loss-free. Scrubbing shrinks the LSE pathway by bounding how long an
// error can lie latent.
func lifetime(p Params, rng *rand.Rand) float64 {
	m := p.parities()
	c := float64(p.C)
	var rem [maxParities]float64 // repair time left on each disk down
	down := 0
	t := 0.0
	tClean := 0.0 // when every disk's surface was last fully verified
	for {
		if down == 0 {
			// Time to the first failure among C healthy disks.
			t += rng.ExpFloat64() * p.MTTFHours / c
			rem[0], down = p.repairWindow(rng), 1
		}
		// The exposure ends when the earliest rebuild completes. By
		// memorylessness the next failure among the C−down survivors is
		// exponential with rate (C−down)/MTTF.
		danger := slices.Min(rem[:down])
		next := rng.ExpFloat64() * p.MTTFHours / (c - float64(down))
		if down == m {
			// The code is saturated. P(all C−m survivors clean) depends on
			// how long errors could accumulate: a scrubbed sector's
			// unverified age is Uniform(0, S), so a survivor is clean with
			// probability E[e^{−λA}] = (1−e^{−λS})/(λS); without scrubbing
			// errors persist since the last full verification. The
			// rebuild reads the survivors throughout the window, so a bad
			// sector surfaces mid-rebuild on average.
			if p.LSERatePerDiskHour > 0 && rng.Float64() > pAllClean(p, p.C-m, t-tClean) {
				next = min(next, danger/2)
			}
			if next < danger {
				return t + next
			}
		} else if next < danger {
			// Another disk fails while the code has a parity to spare.
			t += next
			for i := range rem[:down] {
				rem[i] -= next
			}
			rem[down] = p.repairWindow(rng)
			down++
			continue
		}
		// The earliest rebuild completes (with deterministic windows,
		// several may complete together).
		t += danger
		left := 0
		for _, r := range rem[:down] {
			if r -= danger; r > 0 {
				rem[left] = r
				left++
			}
		}
		down = left
		if down == 0 {
			// The rebuilds verified every survivor and wrote the
			// replacements afresh, so the whole array is clean again. A
			// rebuild that completes while another replacement is still
			// filling conservatively keeps the old tClean.
			tClean = t
		}
	}
}

// repairWindow draws one repair window from the configured distribution.
func (p Params) repairWindow(rng *rand.Rand) float64 {
	if p.RepairDist == ExponentialRepair {
		return rng.ExpFloat64() * p.MTTRHours
	}
	return p.MTTRHours
}

// pAllClean returns the probability that none of the n surviving disks
// carries a latent sector error at rebuild time, given the time since the
// last full verification of the array.
func pAllClean(p Params, n int, sinceClean float64) float64 {
	lam := p.LSERatePerDiskHour
	var perDisk float64
	if s := p.ScrubIntervalHours; s > 0 {
		age := s
		if sinceClean < age {
			age = sinceClean // young array: nothing older than tClean
		}
		if age <= 0 {
			return 1
		}
		perDisk = (1 - math.Exp(-lam*age)) / (lam * age)
	} else {
		perDisk = math.Exp(-lam * sinceClean)
	}
	return math.Pow(perDisk, float64(n))
}
