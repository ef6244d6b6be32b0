package disk

import (
	"fmt"
	"math"
)

// SeekCurve maps a seek distance in cylinders to a seek time in
// milliseconds using the classic three-term model
//
//	t(d) = a*sqrt(d) + b*d + c   for d >= 1,   t(0) = 0,
//
// with coefficients calibrated so that t(1) = min, t(maxCyl-1) = max, and
// the expectation of t over uniformly random start/target cylinders equals
// avg. This reproduces the concave short-seek / linear long-seek shape of
// real actuators from only the three numbers a datasheet publishes.
type SeekCurve struct {
	a, b, c float64
	maxDist int
}

// NewSeekCurve calibrates a curve for the given geometry. It panics if the
// geometry is invalid or the published seek numbers are inconsistent with a
// monotone curve.
func NewSeekCurve(g Geometry) SeekCurve {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	maxDist := g.Cylinders - 1
	if maxDist == 1 {
		// Degenerate two-cylinder disk: a single possible seek distance.
		return SeekCurve{a: 0, b: 0, c: g.MinSeekMS, maxDist: 1}
	}

	// Expected values of sqrt(d) and d over the distance distribution of
	// two independent uniform cylinders, conditioned on d >= 1. For C
	// cylinders, P(d) = 2(C-d)/C^2 for 1 <= d <= C-1.
	c := float64(g.Cylinders)
	var pSum, eSqrt, eLin float64
	for d := 1; d <= maxDist; d++ {
		p := 2 * (c - float64(d)) / (c * c)
		pSum += p
		eSqrt += p * math.Sqrt(float64(d))
		eLin += p * float64(d)
	}
	eSqrt /= pSum
	eLin /= pSum

	// Solve the 3x3 linear system
	//   a*1            + b*1            + c' = min
	//   a*sqrt(maxD)   + b*maxD         + c' = max
	//   a*eSqrt        + b*eLin         + c' = avg
	sM, dM := math.Sqrt(float64(maxDist)), float64(maxDist)
	// Subtract row 1 from rows 2 and 3 to eliminate c'.
	//   a*(sM-1)    + b*(dM-1)    = max-min
	//   a*(eSqrt-1) + b*(eLin-1)  = avg-min
	a11, a12, r1 := sM-1, dM-1, g.MaxSeekMS-g.MinSeekMS
	a21, a22, r2 := eSqrt-1, eLin-1, g.AvgSeekMS-g.MinSeekMS
	det := a11*a22 - a12*a21
	if det == 0 {
		panic("disk: singular seek calibration system")
	}
	a := (r1*a22 - r2*a12) / det
	b := (a11*r2 - a21*r1) / det
	cc := g.MinSeekMS - a - b
	sc := SeekCurve{a: a, b: b, c: cc, maxDist: maxDist}
	// Monotonicity check at integer points; a negative b with dominant a can
	// only dip beyond the stroke, but verify to be safe.
	prev := 0.0
	for d := 1; d <= maxDist; d++ {
		t := sc.Time(d)
		if t < prev {
			panic(fmt.Sprintf("disk: non-monotone seek curve at d=%d (%.3f < %.3f)", d, t, prev))
		}
		prev = t
	}
	return sc
}

// Time returns the seek time in milliseconds for a move of d cylinders.
func (s SeekCurve) Time(d int) float64 {
	if d < 0 {
		d = -d
	}
	if d == 0 {
		return 0
	}
	if d > s.maxDist {
		d = s.maxDist
	}
	return s.a*math.Sqrt(float64(d)) + s.b*float64(d) + s.c
}
