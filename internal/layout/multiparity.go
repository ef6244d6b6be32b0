package layout

import (
	"fmt"
	"math"
)

// DataPerStripe returns how many data units each stripe of l carries:
// G minus the stripe's parity units.
func DataPerStripe(l Layout) int { return l.G() - l.Parities() }

// ParityLocOf returns the location of parity unit k of stripe s.
func ParityLocOf(l Layout, stripe int64, k int) Loc {
	return l.Unit(stripe, l.ParityPos(stripe, k))
}

// noQ stands in for the Q position of a stripe without one: past every
// position, so no position equals it or lies beyond it.
const noQ = math.MaxInt

// ParityPositions returns the positions of stripe s's P and Q, P first:
// Q's is past every position (noQ) when the stripe carries P alone.
func ParityPositions(l Layout, stripe int64) [2]int {
	pq := [2]int{l.ParityPos(stripe, 0), noQ}
	if l.Parities() == 2 {
		pq[1] = l.ParityPos(stripe, 1)
	}
	return pq
}

// parityPositions returns stripe s's parity positions in ascending order,
// hi = noQ when the stripe carries P alone. It asks for Q only when there
// is one.
func parityPositions(l Layout, stripe int64) (lo, hi int) {
	lo, hi = l.ParityPos(stripe, 0), noQ
	if l.Parities() == 2 {
		if hi = l.ParityPos(stripe, 1); hi < lo {
			lo, hi = hi, lo
		}
	}
	return lo, hi
}

// IsParityPos reports whether position j of stripe s holds a parity unit.
func IsParityPos(l Layout, stripe int64, j int) bool {
	lo, hi := parityPositions(l, stripe)
	return j == lo || j == hi
}

// DataPos returns the position within stripe s of the stripe's d-th data
// unit (d in [0, DataPerStripe)): positions in ascending order, skipping
// the parity positions. The ordinal d is also the unit's Reed–Solomon
// coefficient index — Q = Σ g^d · data_d.
func DataPos(l Layout, stripe int64, d int) int {
	lo, hi := parityPositions(l, stripe)
	j := d
	if j >= lo {
		j++
	}
	if j >= hi {
		j++
	}
	return j
}

// DataOrdinal inverts DataPos: the data ordinal of position j within
// stripe s. It panics if j holds parity.
func DataOrdinal(l Layout, stripe int64, j int) int {
	lo, hi := parityPositions(l, stripe)
	if j == lo || j == hi {
		panic(fmt.Sprintf("layout: position %d of stripe %d is parity, not data", j, stripe))
	}
	d := j
	if j > hi {
		d--
	}
	if j > lo {
		d--
	}
	return d
}

// DualParity wraps a single-parity layout into a P+Q dual-parity one: unit
// placement is untouched (so the wrapped layout's balance properties
// carry over verbatim), but each stripe designates two of its G positions
// as parity — P at the inner layout's parity position and Q at the
// position one slot before it (mod G). Q therefore rotates exactly as P
// does: over a full parity-rotation cycle every disk carries equal P and
// equal Q load, preserving the paper's distributed-parity criterion for
// both units, and the pair-count balance (criterion 2) bounds every
// surviving disk's two-erasure decode load the same way it bounds
// single-failure reconstruction.
type DualParity struct {
	inner Layout
}

// NewDualParity builds a P+Q layout over inner, which must be
// single-parity with G >= 3 (a stripe needs at least one data unit beside
// P and Q).
func NewDualParity(inner Layout) (*DualParity, error) {
	if inner == nil {
		return nil, fmt.Errorf("layout: nil inner layout")
	}
	if inner.Parities() != 1 {
		return nil, fmt.Errorf("layout: dual parity wraps single-parity layouts only")
	}
	if inner.G() < 3 {
		return nil, fmt.Errorf("layout: dual parity needs G >= 3, have G=%d", inner.G())
	}
	return &DualParity{inner: inner}, nil
}

// Inner returns the wrapped single-parity layout.
func (l *DualParity) Inner() Layout { return l.inner }

func (l *DualParity) Disks() int                   { return l.inner.Disks() }
func (l *DualParity) G() int                       { return l.inner.G() }
func (l *DualParity) Alpha() float64               { return l.inner.Alpha() }
func (l *DualParity) Unit(stripe int64, j int) Loc { return l.inner.Unit(stripe, j) }
func (l *DualParity) Locate(loc Loc) (int64, int)  { return l.inner.Locate(loc) }
func (l *DualParity) StripesPerPeriod() int64      { return l.inner.StripesPerPeriod() }
func (l *DualParity) UnitsPerDiskPerPeriod() int64 { return l.inner.UnitsPerDiskPerPeriod() }

// FullCycleStripes forwards the inner layout's full parity-rotation cycle
// (the span criteria checks cover), defaulting to G allocation periods.
func (l *DualParity) FullCycleStripes() int64 {
	if fc, ok := l.inner.(FullCycler); ok {
		return fc.FullCycleStripes()
	}
	return l.inner.StripesPerPeriod() * int64(l.inner.G())
}

// Parities returns 2.
func (l *DualParity) Parities() int { return 2 }

// ParityPos places P (k = 0) at the inner parity position and Q (k = 1)
// one position before it, wrapping around the stripe.
func (l *DualParity) ParityPos(stripe int64, k int) int {
	pp := l.inner.ParityPos(stripe, 0)
	switch k {
	case 0:
		return pp
	case 1:
		g := l.inner.G()
		return (pp + g - 1) % g
	}
	panic(fmt.Sprintf("layout: parity unit %d of a dual-parity layout", k))
}
