package layout

import (
	"math"
	"testing"

	"declust/internal/blockdesign"
)

// FuzzParityPositions checks the helpers that place data around a
// stripe's parity units — DataPerStripe, IsParityPos, DataPos and
// DataOrdinal — against a brute-force scan of one stripe's positions,
// built from ParityPos(s, k) for every k < Parities().
//
// The inputs choose a layout (kind mod 3: RAID 5, a catalog declustered
// layout for C = 21, or its distributed-sparing twin; with dual, kind mod
// 2 picks RAID 5 or the declustered layout and wraps it in DualParity), a
// catalog G (g indexes blockdesign.PaperG; RAID 5 is C = G), a stripe and
// a data ordinal. The seed corpus, testdata/fuzz/FuzzParityPositions,
// holds single- and dual-parity inputs.
func FuzzParityPositions(f *testing.F) {
	layouts := map[[3]int]Layout{}
	for gi, g := range blockdesign.PaperG {
		d, err := blockdesign.PaperDesign(g)
		if err != nil {
			f.Fatal(err)
		}
		r5, err := NewRaid5(g)
		if err != nil {
			f.Fatal(err)
		}
		decl, err := NewDeclustered(d)
		if err != nil {
			f.Fatal(err)
		}
		sp, err := NewSpared(d)
		if err != nil {
			f.Fatal(err)
		}
		layouts[[3]int{0, gi, 0}], layouts[[3]int{1, gi, 0}], layouts[[3]int{2, gi, 0}] = r5, decl, sp
		for kind, inner := range []Layout{r5, decl} {
			dp, err := NewDualParity(inner)
			if err != nil {
				f.Fatal(err)
			}
			layouts[[3]int{kind, gi, 1}] = dp
		}
	}
	f.Fuzz(func(t *testing.T, kind, g uint8, dual bool, stripe int64, ord uint8) {
		k, q := int(kind)%3, 0
		if dual {
			k, q = int(kind)%2, 1
		}
		l := layouts[[3]int{k, int(g) % len(blockdesign.PaperG), q}]
		s := stripe & math.MaxInt64
		m := l.Parities()
		if m != 1+q {
			t.Fatalf("%T: %d parities, want %d", l, m, 1+q)
		}

		parity := make([]bool, l.G())
		for k := 0; k < m; k++ {
			p := l.ParityPos(s, k)
			if p < 0 || p >= l.G() || parity[p] {
				t.Fatalf("%T stripe %d: parity unit %d at position %d, out of range or shared", l, s, k, p)
			}
			parity[p] = true
		}
		var data []int // the stripe's data positions, ascending
		for j, isP := range parity {
			if got := IsParityPos(l, s, j); got != isP {
				t.Fatalf("%T stripe %d: IsParityPos(%d) = %v, want %v", l, s, j, got, isP)
			}
			if !isP {
				data = append(data, j)
			}
		}
		if got := DataPerStripe(l); got != len(data) {
			t.Fatalf("%T: DataPerStripe = %d, want %d", l, got, len(data))
		}
		d := int(ord) % len(data)
		if got := DataPos(l, s, d); got != data[d] {
			t.Fatalf("%T stripe %d: DataPos(%d) = %d, want %d", l, s, d, got, data[d])
		}
		if got := DataOrdinal(l, s, data[d]); got != d {
			t.Fatalf("%T stripe %d: DataOrdinal(%d) = %d, want %d", l, s, data[d], got, d)
		}
	})
}
