package analytic

import (
	"fmt"
	"math"
)

// Reliability models mean time to data loss for a single-failure-correcting
// array, the quantity behind the paper's §2 observation that C drives data
// reliability while G drives overhead: data is lost when a second disk of
// the array fails while the first is being repaired.
type Reliability struct {
	C         int     // disks in the array
	MTTFHours float64 // mean time to failure of one disk
	MTTRHours float64 // mean time to repair (≈ reconstruction time)
}

// MTTDLHours returns the mean time to data loss in hours, using the
// standard independent-exponential-failures approximation
// MTTF² / (C·(C−1)·MTTR) [Patterson88].
func (r Reliability) MTTDLHours() (float64, error) {
	// Negated, the comparisons reject NaN too.
	if r.C < 2 || !(r.MTTFHours > 0) || !(r.MTTRHours > 0) ||
		math.IsInf(r.MTTFHours, 1) || math.IsInf(r.MTTRHours, 1) {
		return 0, fmt.Errorf("analytic: invalid reliability parameters %+v", r)
	}
	return r.MTTFHours * r.MTTFHours / (float64(r.C) * float64(r.C-1) * r.MTTRHours), nil
}

// TenYearDataLossProbability approximates the probability of losing data
// within ten years, 1 − exp(−t/MTTDL).
func (r Reliability) TenYearDataLossProbability() (float64, error) {
	mttdl, err := r.MTTDLHours()
	if err != nil {
		return 0, err
	}
	const tenYears = 10 * 365.25 * 24
	return 1 - math.Exp(-tenYears/mttdl), nil
}
