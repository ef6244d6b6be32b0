// Package layout maps parity stripes and user data onto the disks of a
// redundant array. It provides the left-symmetric RAID 5 layout and the
// paper's block-design-based declustered parity layout (Holland & Gibson
// 1992, §4), plus checkers for the six layout-goodness criteria of §4.1.
//
// Terminology follows the paper: a (data or parity) stripe unit is the
// allocation granule; a parity stripe is the set of G stripe units (G−1
// data + 1 parity) bound to one parity equation; disks are numbered
// 0..C−1; each disk is an array of stripe units addressed by offset.
//
// Beyond the paper, a stripe may carry two parity units (DualParity), the
// multi-failure generalization of its layouts (Dau et al. extend
// declustering to t failures via t-designs; this package provides the
// t = 2 RAID-6-style P+Q code). Parity unit 0 is P (plain XOR) and unit 1
// is Q (the GF(2^8) Reed–Solomon sum; see internal/gf256).
package layout

import "fmt"

// Loc addresses one stripe unit: a disk and a unit offset on that disk.
type Loc struct {
	Disk   int
	Offset int64
}

func (l Loc) String() string { return fmt.Sprintf("d%d:%d", l.Disk, l.Offset) }

// Layout is a periodic mapping of parity stripes to stripe units.
//
// Parity stripes are numbered from zero; position j within stripe s ranges
// over 0..G−1, Parities() of which hold parity units (ParityPos). The
// layout is periodic: stripe s+StripesPerPeriod() maps exactly as stripe s
// with all offsets shifted by UnitsPerDiskPerPeriod().
type Layout interface {
	// Disks returns C, the number of disks in the array.
	Disks() int
	// G returns the number of stripe units per parity stripe.
	G() int
	// Unit returns the location of position j of parity stripe s.
	Unit(stripe int64, j int) Loc
	// Parities returns how many parity units each stripe carries: 1 (P)
	// or 2 (P and Q).
	Parities() int
	// ParityPos returns which position of stripe s holds parity unit k
	// (k = 0 is P, 1 is Q; k < Parities()). Parity placement may rotate
	// with a super-period of G allocation periods (the paper's "full block
	// design table").
	ParityPos(stripe int64, k int) int
	// Locate inverts Unit: which stripe and position owns a unit.
	Locate(loc Loc) (stripe int64, j int)
	// StripesPerPeriod returns the allocation period in parity stripes
	// (one "block design table": b tuples for declustered layouts).
	StripesPerPeriod() int64
	// UnitsPerDiskPerPeriod returns how many units each disk
	// contributes to one allocation period (r for declustered layouts).
	// Every disk contributes equally.
	UnitsPerDiskPerPeriod() int64
	// Alpha returns the declustering ratio (G−1)/(C−1).
	Alpha() float64
}

// DataUnits returns the number of user data units (excluding parity) that
// fit on an array whose disks hold unitsPerDisk units each; per-disk usable
// capacity is rounded down to a whole number of allocation periods.
func DataUnits(l Layout, unitsPerDisk int64) int64 {
	return UsableStripes(l, unitsPerDisk) * int64(DataPerStripe(l))
}

// UsableStripes returns how many whole parity stripes fit when each disk
// holds unitsPerDisk units, rounding down to whole periods.
func UsableStripes(l Layout, unitsPerDisk int64) int64 {
	periods := unitsPerDisk / l.UnitsPerDiskPerPeriod()
	return periods * l.StripesPerPeriod()
}

// UsableUnitsPerDisk returns the per-disk unit count actually mapped when
// each disk has unitsPerDisk raw units.
func UsableUnitsPerDisk(l Layout, unitsPerDisk int64) int64 {
	periods := unitsPerDisk / l.UnitsPerDiskPerPeriod()
	return periods * l.UnitsPerDiskPerPeriod()
}

// DataLoc resolves logical data unit n under the paper's "by parity stripe
// index" data mapping: data units fill successive parity stripes, skipping
// each stripe's parity position(s).
func DataLoc(l Layout, n int64) Loc {
	dp := int64(DataPerStripe(l))
	stripe := n / dp
	d := int(n % dp)
	return l.Unit(stripe, DataPos(l, stripe, d))
}

// DataIndex inverts DataLoc for a unit known to be a data unit: given its
// stripe and position, return the logical data unit number. It panics if
// position j holds parity.
func DataIndex(l Layout, stripe int64, j int) int64 {
	return stripe*int64(DataPerStripe(l)) + int64(DataOrdinal(l, stripe, j))
}

// ParityLoc returns the location of stripe s's parity unit P.
func ParityLoc(l Layout, stripe int64) Loc {
	return l.Unit(stripe, l.ParityPos(stripe, 0))
}

// StripeUnits returns the locations of every unit of stripe s, indexed by
// position.
func StripeUnits(l Layout, stripe int64) []Loc {
	g := l.G()
	out := make([]Loc, g)
	for j := 0; j < g; j++ {
		out[j] = l.Unit(stripe, j)
	}
	return out
}

// DecodeParity returns the parity equation (k = 0 is P, 1 is Q) that
// rebuilds position j of stripe s when j is the stripe's only lost unit: a
// parity unit is recomputed through its own equation, and a data unit is
// solved through P. This is the one home of the lone-erasure rule; the
// simulator decodes through it, and the store's rebuild reads are pinned to
// it by test.
func DecodeParity(l Layout, stripe int64, j int) int {
	for k := l.Parities() - 1; k > 0; k-- {
		if j == l.ParityPos(stripe, k) {
			return k
		}
	}
	return 0
}

// FromScratch reports whether a write of written of a stripe's dataUnits
// data units builds the stripe's parities from its new contents — reading
// the data units it leaves alone — rather than from a delta against the
// old contents of the ones it overwrites. That is when it covers every data
// unit (the large write), or at least two and it leaves no more unwritten
// than it writes (the reconstruct-write). The delta's parity reads stay out
// of the comparison, since from scratch costs more in bytes (DESIGN.md,
// "The stripe plan"), and a one-unit write of a wider stripe is the paper's
// small write, always a delta. This is the one home of the rule, and
// PlanStripe its one caller outside tests: it adds the failure-state checks
// — a lost written unit has no old contents, so from scratch, and a lost
// unwritten one would cost a decode, so the delta.
func FromScratch(dataUnits, written int) bool {
	return written == dataUnits || written >= 2 && dataUnits-written <= written
}

// RebuildSources returns the units a decode reads when erased, distinct
// units of one stripe, are the stripe's lost units. A lone erasure reads
// the stripe's other data units and the parity unit of its DecodeParity
// equation: G−1 units under P, G−2 under P+Q, where the equation it does
// not use is skipped. A larger set within the code's budget uses every
// equation, so it reads every other unit: G−2 for two erasures under P+Q.
// Past the budget, or with nothing erased, there is no decode and it
// returns nil.
func RebuildSources(l Layout, erased ...Loc) []Loc {
	if len(erased) == 0 || len(erased) > l.Parities() {
		return nil
	}
	stripe, _ := l.Locate(erased[0])
	pos := make([]int, len(erased))
	for i, u := range erased {
		s, j := l.Locate(u)
		if s != stripe {
			panic(fmt.Sprintf("layout: erasures %v span stripes %d and %d", erased, stripe, s))
		}
		pos[i] = j
	}
	src := sources(l, stripe, pos, make([]int, 0, l.G()-len(erased)))
	out := make([]Loc, len(src))
	for i, j := range src {
		out[i] = l.Unit(stripe, j)
	}
	return out
}
