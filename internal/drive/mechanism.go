package drive

import (
	"errors"
	"fmt"
	"math"
)

// Mechanism is a geometry with its seek curve calibrated, the one value
// that prices accesses. The curve is the classic three-term model
//
//	t(d) = a*sqrt(d) + b*d + c   for d >= 1,   t(0) = 0,
//
// with coefficients calibrated so that t(1) = min, t(Cylinders-1) = max,
// and the expectation of t over uniformly random start/target cylinders
// equals avg. This reproduces the concave short-seek / linear long-seek
// shape of real actuators from only the three numbers a datasheet
// publishes.
type Mechanism struct {
	Geometry
	a, b, c float64
}

// New validates g and calibrates its seek curve. It fails if the geometry
// is invalid or its published seek numbers admit no monotone curve.
func New(g Geometry) (Mechanism, error) {
	if err := g.Validate(); err != nil {
		return Mechanism{}, err
	}
	maxDist := g.Cylinders - 1
	if maxDist == 1 {
		// Degenerate two-cylinder disk: a single possible seek distance.
		return Mechanism{Geometry: g, c: g.MinSeekMS}, nil
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
		return Mechanism{}, errors.New("drive: singular seek calibration system")
	}
	a := (r1*a22 - r2*a12) / det
	b := (a11*r2 - a21*r1) / det
	m := Mechanism{Geometry: g, a: a, b: b, c: g.MinSeekMS - a - b}
	// Monotonicity check at integer points; a negative b with dominant a can
	// only dip beyond the stroke, but verify to be safe.
	prev := 0.0
	for d := 1; d <= maxDist; d++ {
		t := m.seekTime(d)
		if t < prev {
			return Mechanism{}, fmt.Errorf("drive: non-monotone seek curve at d=%d (%.3f < %.3f)", d, t, prev)
		}
		prev = t
	}
	return m, nil
}

// Timing is the price of one access.
type Timing struct {
	Finish   float64 // when the last sector has passed under the head
	EndCyl   int     // the arm's cylinder afterwards
	SeekCyls int     // cylinders crossed to reach the first sector

	// The parts of Finish - now, each summed over the access's per-track
	// runs.
	SeekMS, RotateMS, TransferMS float64
}

// Access prices a transfer of count sectors from LBA start, beginning
// service at time now (ms) with the arm at cylinder headCyl. The transfer
// is split into per-track runs; each run pays any needed head/cylinder
// switch, then a rotational delay to the run's first sector, then reads
// contiguously. Finish is the running sum of those parts, in that order.
func (m *Mechanism) Access(headCyl int, now float64, start int64, count int) Timing {
	g := &m.Geometry
	t := now
	curCyl := headCyl
	var tm Timing
	first := true

	lba := start
	remaining := count
	for remaining > 0 {
		chs := g.Locate(lba)
		// Length of the run on this track.
		run := g.SectorsPerTrack - chs.Sector
		if run > remaining {
			run = remaining
		}
		// Arm movement to the run's cylinder.
		if chs.Cyl != curCyl || first {
			d := chs.Cyl - curCyl
			if d < 0 {
				d = -d
			}
			if first {
				tm.SeekCyls = d
			}
			st := m.seekTime(d)
			t += st
			tm.SeekMS += st
			curCyl = chs.Cyl
		}
		first = false
		// Rotational delay to the run's first physical sector.
		globalTrack := int64(chs.Cyl)*int64(g.TracksPerCyl) + int64(chs.Track)
		phys := g.PhysicalSector(globalTrack, chs.Sector)
		rot := m.rotationalDelay(t, phys)
		t += rot
		tm.RotateMS += rot
		// Contiguous transfer of the run.
		xfer := float64(run) / float64(g.SectorsPerTrack) * g.RevolutionMS
		t += xfer
		tm.TransferMS += xfer

		lba += int64(run)
		remaining -= run
	}
	tm.Finish, tm.EndCyl = t, curCyl
	return tm
}

// seekTime returns the seek time in milliseconds for a move of d >= 0
// cylinders.
func (m *Mechanism) seekTime(d int) float64 {
	if d == 0 {
		return 0
	}
	return m.a*math.Sqrt(float64(d)) + m.b*float64(d) + m.c
}

// rotationalDelay returns the time until physical sector slot `phys` next
// arrives under the head, given the platter's continuous rotation.
func (m *Mechanism) rotationalDelay(t float64, phys int) float64 {
	spt := float64(m.SectorsPerTrack)
	// Angular position in sector slots at time t. Floor-based fractional
	// part instead of math.Mod: Mod's exact-remainder loop dominates this
	// function's cost, and sub-ulp angular error is far below the guard
	// threshold applied beneath.
	f := t / m.RevolutionMS
	pos := (f - math.Floor(f)) * spt
	target := float64(phys)
	delta := target - pos
	if delta < 0 {
		delta += spt
	}
	// Guard against floating-point jitter: when the head lands exactly on
	// the target sector, rounding can make delta a hair below a full
	// revolution, charging a spurious rotation slip.
	if spt-delta < 1e-6 {
		delta = 0
	}
	return delta / spt * m.RevolutionMS
}
