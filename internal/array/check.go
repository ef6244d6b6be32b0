package array

import (
	"fmt"
	"slices"

	"declust/internal/layout"
)

// CheckConsistency verifies the array's data-layer invariant. It is meant
// to be called at quiesce (no user operations or reconstruction in flight):
// every readable unit — data and parity alike — holds exactly the value
// derivable from the last logical writes, and no stripe has more
// unreadable units than it has parities. Every parity equation therefore
// balances wherever it can be evaluated, and whatever is lost remains
// decodable — with one parity: readable data is current, a whole stripe's
// parity is the XOR of its data, and a lost data unit is the XOR of the
// survivors. (Losses beyond the code are restored out of band; recordLoss
// keeps the model consistent through them.)
//
// This proves the driver's degraded paths (parity folding, redirection,
// piggybacking) never corrupt or strand data.
func (a *Array) CheckConsistency() error {
	if a.locks.heldCount() != 0 {
		return fmt.Errorf("array: %d stripe locks held; not quiesced", a.locks.heldCount())
	}
	g := a.lay.G()
	sums := make([]uint64, a.parities)
	pp := make([]int, a.parities)
	for s := int64(0); s < a.numStripes; s++ {
		clear(sums)
		a.parityPositions(s, pp)
		lost := 0
		d := 0
		for j := 0; j < g; j++ {
			if slices.Contains(pp, j) {
				continue
			}
			u := a.lay.Unit(s, j)
			idx := a.mapper.Index(s, j)
			want := a.expected[idx]
			for k := range sums {
				sums[k] ^= weigh(k, d, want)
			}
			d++
			if !a.available(u) {
				lost++
				continue
			}
			if got := a.unitVal(u); got != want {
				return fmt.Errorf("stripe %d: data unit %d at %v holds %#x, want %#x",
					s, idx, u, got, want)
			}
		}
		for k, want := range sums {
			u := a.lay.Unit(s, pp[k])
			if !a.available(u) {
				lost++
				continue
			}
			if got := a.unitVal(u); got != want {
				return fmt.Errorf("stripe %d: parity %d at %v holds %#x, want %#x",
					s, k, u, got, want)
			}
		}
		if lost > a.parities {
			return fmt.Errorf("stripe %d: %d lost units; layout broken", s, lost)
		}
	}
	return nil
}

// ExpectedValue returns the last value logically written to a data unit
// (for tests).
func (a *Array) ExpectedValue(unit int64) uint64 { return a.expected[unit] }

// UnitContent returns the physical content of a unit (for tests). It does
// not check readability.
func (a *Array) UnitContent(loc layout.Loc) uint64 {
	return a.unitVal(loc)
}

// Reconstructed reports whether the failed slot's unit at off has been
// reconstructed; it is only meaningful in degraded mode.
func (a *Array) Reconstructed(off int64) bool {
	return a.reconDone != nil && a.reconDone[off]
}
