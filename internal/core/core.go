// Package core is the top of the library: it selects a parity layout for a
// requested array shape (C disks, parity stripe size G) and runs complete
// fault-free, degraded-mode, and reconstruction simulations, reporting the
// metrics the paper reports (user response time; reconstruction time;
// reconstruction cycle phases).
//
// G = C requests the left-symmetric RAID 5 layout; G < C requests a
// declustered layout built from the best available block design
// (blockdesign.Select), exactly as the paper configures its 21-disk array.
package core

import (
	"fmt"

	"declust/internal/blockdesign"
	"declust/internal/layout"
)

// Mapping bundles a chosen layout with its provenance.
type Mapping struct {
	Layout layout.Layout
	// Design is the block design behind a declustered layout; nil for
	// RAID 5.
	Design *blockdesign.Design
	// Exact is false when no feasible design existed at the requested G
	// and the closest feasible declustering ratio was substituted
	// (paper §4.3).
	Exact bool

	C, G int // G is the achieved parity stripe size
}

// NewMapping selects a layout for an array of c disks with parity stripes
// of g units. maxTuples bounds the block design table size (0 = default);
// the paper's efficient-mapping criterion rejects layouts beyond it.
func NewMapping(c, g, maxTuples int) (*Mapping, error) {
	if g == c {
		l, err := layout.NewRaid5(c)
		if err != nil {
			return nil, err
		}
		return &Mapping{Layout: l, Exact: true, C: c, G: g}, nil
	}
	sel, err := blockdesign.Select(c, g, maxTuples)
	if err != nil {
		return nil, err
	}
	l, err := layout.NewDeclustered(sel.Design)
	if err != nil {
		return nil, err
	}
	return &Mapping{Layout: l, Design: sel.Design, Exact: sel.Exact, C: c, G: sel.Design.K}, nil
}

// NewPQMapping selects a dual-parity (P+Q, RAID-6-style) layout: unit
// placement is exactly what NewMapping chooses for (c, g), but each stripe
// designates two of its G units as parity — P (XOR) and Q (GF(2^8)
// Reed–Solomon) — so the array tolerates any two disk failures. The
// balance criteria carry over to both parity units (layout.DualParity).
func NewPQMapping(c, g, maxTuples int) (*Mapping, error) {
	m, err := NewMapping(c, g, maxTuples)
	if err != nil {
		return nil, err
	}
	dp, err := layout.NewDualParity(m.Layout)
	if err != nil {
		return nil, err
	}
	m.Layout = dp
	return m, nil
}

// Alpha returns the achieved declustering ratio (G−1)/(C−1).
func (m *Mapping) Alpha() float64 { return m.Layout.Alpha() }

// Parities returns the layout's parity units per stripe: 1 (P) or 2 (P+Q).
func (m *Mapping) Parities() int { return m.Layout.Parities() }

// ParityOverhead returns the fraction of array capacity spent on
// redundancy: 1/G, or (parity + spare) 2/(G+1) for distributed-sparing
// layouts.
func (m *Mapping) ParityOverhead() float64 {
	if _, ok := m.Layout.(layout.SpareLayout); ok {
		return 2 / float64(m.G+1)
	}
	return float64(m.Parities()) / float64(m.G)
}

// Describe returns a one-line human-readable summary.
func (m *Mapping) Describe() string {
	code := ""
	if m.Parities() == 2 {
		code = " P+Q"
	}
	if m.Design == nil {
		return fmt.Sprintf("RAID 5 left-symmetric%s, C=%d (α=1.00, parity overhead %.1f%%)",
			code, m.C, 100*m.ParityOverhead())
	}
	p, _ := m.Design.Params()
	note := ""
	if !m.Exact {
		note = " [closest feasible α]"
	}
	return fmt.Sprintf("declustered%s, C=%d G=%d via %s: %s, parity overhead %.1f%%%s",
		code, m.C, m.G, m.Design.Source, p, 100*m.ParityOverhead(), note)
}

// Criteria evaluates the layout against the paper's §4.1 goodness criteria.
func (m *Mapping) Criteria() (layout.Criteria, error) {
	return layout.Check(m.Layout)
}

// NewSparedMapping selects a distributed-sparing layout: parity stripes of
// g units plus one spare unit each, built over a block design with tuple
// size g+1. Each disk then carries data, parity and spare space in equal
// measure, and reconstruction needs no replacement disk.
func NewSparedMapping(c, g, maxTuples int) (*Mapping, error) {
	if g+1 > c {
		return nil, fmt.Errorf("core: distributed sparing needs G+1 <= C, have G=%d C=%d", g, c)
	}
	sel, err := blockdesign.Select(c, g+1, maxTuples)
	if err != nil {
		return nil, err
	}
	if sel.Design.K != g+1 {
		return nil, fmt.Errorf("core: no feasible design with k=%d for spared G=%d (closest k=%d)",
			g+1, g, sel.Design.K)
	}
	l, err := layout.NewSpared(sel.Design)
	if err != nil {
		return nil, err
	}
	return &Mapping{Layout: l, Design: sel.Design, Exact: sel.Exact, C: c, G: g}, nil
}
