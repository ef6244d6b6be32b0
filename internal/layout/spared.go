package layout

import (
	"fmt"

	"declust/internal/blockdesign"
)

// Spared is a declustered parity layout with distributed sparing: every
// parity stripe carries, besides its G−1 data units and parity unit, one
// spare unit on yet another disk. When a disk fails, each lost unit is
// reconstructed into its own stripe's spare unit — on a surviving disk —
// so reconstruction *writes*, not just reads, spread over the whole array
// and no replacement disk is needed. This is the distributed-sparing
// extension of the paper's design (cf. §8's spare pools; the idea carried
// into RAIDframe and ZFS dRAID).
//
// Construction: a block design with tuple size k = G+1 places the k units
// of each stripe; the spare and parity roles rotate through the tuple
// positions over k copies of the table, so every disk carries equal data,
// parity and spare space per full cycle.
type Spared struct {
	inner *Declustered // placement over the k = G+1 design
}

// SpareLayout is implemented by layouts that reserve distributed spare
// space.
type SpareLayout interface {
	Layout
	// SpareUnit returns the stripe's reserved spare unit.
	SpareUnit(stripe int64) Loc
	// IsSpare reports whether loc is a spare slot, and for which stripe.
	IsSpare(loc Loc) (stripe int64, ok bool)
}

// FullCycler is implemented by layouts whose role rotation spans a
// different number of allocation periods than G (criteria checkers use it
// to size their windows).
type FullCycler interface {
	FullCycleStripes() int64
}

// NewSpared builds a distributed-sparing layout for logical parity stripe
// size g over a design with tuple size g+1.
func NewSpared(d *blockdesign.Design) (*Spared, error) {
	inner, err := NewDeclustered(d)
	if err != nil {
		return nil, err
	}
	if d.K < 3 {
		return nil, fmt.Errorf("layout: distributed sparing needs tuples of at least 3 (data+parity+spare), have k=%d", d.K)
	}
	return &Spared{inner: inner}, nil
}

// Design returns the underlying k = G+1 block design.
func (s *Spared) Design() *blockdesign.Design { return s.inner.Design() }

func (s *Spared) Disks() int { return s.inner.Disks() }

// G returns the logical parity stripe size (data + parity, excluding the
// spare).
func (s *Spared) G() int { return s.inner.G() - 1 }

func (s *Spared) Alpha() float64 {
	return float64(s.G()-1) / float64(s.Disks()-1)
}

func (s *Spared) StripesPerPeriod() int64      { return s.inner.StripesPerPeriod() }
func (s *Spared) UnitsPerDiskPerPeriod() int64 { return s.inner.UnitsPerDiskPerPeriod() }

// FullCycleStripes returns the stripes in one complete role rotation:
// k = G+1 copies of the block design table.
func (s *Spared) FullCycleStripes() int64 {
	return s.StripesPerPeriod() * int64(s.inner.G())
}

// roles returns the tuple slots holding the spare and parity for a stripe.
// The spare sweeps one slot per table copy (as parity does in the plain
// layout) and parity occupies the slot before it, so over k copies every
// slot serves each role exactly once.
func (s *Spared) roles(stripe int64) (spareSlot, paritySlot int) {
	k := s.inner.G()
	r := int((stripe / s.StripesPerPeriod()) % int64(k))
	spareSlot = (k - 1 - r + k) % k
	paritySlot = (spareSlot - 1 + k) % k
	return spareSlot, paritySlot
}

// slotOf maps a logical position (0..G-1) to the tuple slot, skipping the
// spare slot.
func (s *Spared) slotOf(stripe int64, j int) int {
	spare, _ := s.roles(stripe)
	if j >= spare {
		return j + 1
	}
	return j
}

func (s *Spared) Unit(stripe int64, j int) Loc {
	if j < 0 || j >= s.G() {
		panic(fmt.Sprintf("layout: position %d out of range [0,%d)", j, s.G()))
	}
	return s.inner.Unit(stripe, s.slotOf(stripe, j))
}

func (s *Spared) Parities() int { return 1 }

func (s *Spared) ParityPos(stripe int64, _ int) int {
	spare, parity := s.roles(stripe)
	if parity > spare {
		return parity - 1
	}
	return parity
}

// Locate inverts Unit for non-spare units; it panics on spare slots (test
// with IsSpare first).
func (s *Spared) Locate(loc Loc) (int64, int) {
	stripe, slot := s.inner.Locate(loc)
	spare, _ := s.roles(stripe)
	if slot == spare {
		panic(fmt.Sprintf("layout: %v is stripe %d's spare slot", loc, stripe))
	}
	if slot > spare {
		return stripe, slot - 1
	}
	return stripe, slot
}

func (s *Spared) SpareUnit(stripe int64) Loc {
	spare, _ := s.roles(stripe)
	return s.inner.Unit(stripe, spare)
}

func (s *Spared) IsSpare(loc Loc) (int64, bool) {
	stripe, slot := s.inner.Locate(loc)
	spare, _ := s.roles(stripe)
	return stripe, slot == spare
}
