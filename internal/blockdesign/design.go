// Package blockdesign implements balanced incomplete and complete block
// designs (BIBDs), the combinatorial structure underlying parity
// declustering (Holland & Gibson 1992, §4).
//
// A block design arranges v distinct objects into b tuples of k elements
// each, such that every object appears in exactly r tuples and every pair of
// objects appears together in exactly λ tuples. Two identities always hold:
//
//	b·k = v·r        (counting object slots two ways)
//	r·(k−1) = λ·(v−1) (counting pairs through one object two ways)
//
// The package provides generators (complete designs, cyclic difference
// families in Hall's abbreviated notation, derived/residual/complement
// constructions, Bose and Skolem Steiner triple systems, projective and
// affine planes over prime fields), a verifier, the paper's six appendix
// designs, and a catalog that picks the best available design for a given
// array size C and parity stripe size G.
package blockdesign

import "fmt"

// Design is a block design on objects 0..V-1. Tuples hold K distinct
// objects each. Construct designs through the package generators, which
// guarantee balance; Verify checks an arbitrary design.
type Design struct {
	V      int     // number of objects
	K      int     // tuple size
	Tuples [][]int // b tuples of k objects each
	Source string  // human-readable provenance ("complete", "paper appendix 3", ...)
}

// Params are the five classic BIBD parameters.
type Params struct {
	B, V, K, R, Lambda int
}

// Alpha returns the declustering ratio (G−1)/(C−1) that the design yields
// when its objects are disks (C = v) and tuples are parity stripes (G = k).
func (p Params) Alpha() float64 {
	if p.V <= 1 {
		return 1
	}
	return float64(p.K-1) / float64(p.V-1)
}

func (p Params) String() string {
	return fmt.Sprintf("b=%d v=%d k=%d r=%d λ=%d (α=%.3g)",
		p.B, p.V, p.K, p.R, p.Lambda, p.Alpha())
}

// B returns the number of tuples.
func (d *Design) B() int { return len(d.Tuples) }

// Alpha returns the declustering ratio (K−1)/(V−1).
func (d *Design) Alpha() float64 {
	if d.V <= 1 {
		return 1
	}
	return float64(d.K-1) / float64(d.V-1)
}

// Params verifies the design and returns its parameters; it fails if the
// design is not a balanced (complete or incomplete) block design.
func (d *Design) Params() (Params, error) {
	if err := d.Verify(); err != nil {
		return Params{}, err
	}
	r := len(d.Tuples) * d.K / d.V
	lambda := r * (d.K - 1) / (d.V - 1)
	return Params{B: len(d.Tuples), V: d.V, K: d.K, R: r, Lambda: lambda}, nil
}

// Verify checks the BIBD axioms: every tuple holds K distinct objects in
// range, every object appears in the same number r of tuples, and every
// unordered pair of objects appears in the same number λ of tuples.
func (d *Design) Verify() error {
	if d.V < 2 {
		return fmt.Errorf("blockdesign: need v >= 2, have %d", d.V)
	}
	if d.K < 2 || d.K > d.V {
		return fmt.Errorf("blockdesign: need 2 <= k <= v, have k=%d v=%d", d.K, d.V)
	}
	if len(d.Tuples) == 0 {
		return fmt.Errorf("blockdesign: no tuples")
	}
	occ := make([]int, d.V)
	// Pair counts in a triangular matrix: pair (i<j) at index i*V+j.
	pairs := make([]int, d.V*d.V)
	for ti, tup := range d.Tuples {
		if len(tup) != d.K {
			return fmt.Errorf("blockdesign: tuple %d has %d elements, want %d", ti, len(tup), d.K)
		}
		for i, x := range tup {
			if x < 0 || x >= d.V {
				return fmt.Errorf("blockdesign: tuple %d element %d out of range", ti, x)
			}
			occ[x]++
			for _, y := range tup[i+1:] {
				if x == y {
					return fmt.Errorf("blockdesign: tuple %d repeats object %d", ti, x)
				}
				a, b := x, y
				if a > b {
					a, b = b, a
				}
				pairs[a*d.V+b]++
			}
		}
	}
	r := occ[0]
	for x, c := range occ {
		if c != r {
			return fmt.Errorf("blockdesign: object %d appears %d times, object 0 appears %d (r not constant)", x, c, r)
		}
	}
	lambda := pairs[0*d.V+1]
	for i := 0; i < d.V; i++ {
		for j := i + 1; j < d.V; j++ {
			if pairs[i*d.V+j] != lambda {
				return fmt.Errorf("blockdesign: pair (%d,%d) appears %d times, pair (0,1) appears %d (λ not constant)",
					i, j, pairs[i*d.V+j], lambda)
			}
		}
	}
	// Consistency of the two counting identities.
	if len(d.Tuples)*d.K != d.V*r {
		return fmt.Errorf("blockdesign: bk=%d != vr=%d", len(d.Tuples)*d.K, d.V*r)
	}
	if r*(d.K-1) != lambda*(d.V-1) {
		return fmt.Errorf("blockdesign: r(k-1)=%d != λ(v-1)=%d", r*(d.K-1), lambda*(d.V-1))
	}
	return nil
}

// IsSymmetric reports whether the design is symmetric (b = v, which with
// balance implies r = k). Symmetric designs admit derived and residual
// constructions.
func (d *Design) IsSymmetric() bool { return len(d.Tuples) == d.V }

// Clone returns a deep copy.
func (d *Design) Clone() *Design {
	t := make([][]int, len(d.Tuples))
	for i, tup := range d.Tuples {
		t[i] = append([]int(nil), tup...)
	}
	return &Design{V: d.V, K: d.K, Tuples: t, Source: d.Source}
}
