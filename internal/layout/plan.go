package layout

import "slices"

// Plan is one stripe's share of a user access, planned: the positions of
// the stripe it reads in a first round, the lost ones it solves, and the
// ones it writes in a second. It is the one list of the accesses §6–§8
// count. Both engines run it: the simulator (internal/array) prices it
// through its disk model, and the store (internal/store) issues it, its
// reads as one gather and its writes as one batch. Every position appears
// at most once in each round.
//
// The slices belong to the caller: NewPlan sizes them for a stripe of G
// units, and PlanStripe only reslices them, so a pooled Plan is planned
// over and over without allocating.
type Plan struct {
	// Reads is round 1, each position once. A read's are its span's units
	// when none of them is lost; when one is, they are the sources of the
	// stripe's erasure set (RebuildSources), which hold the span's other
	// units: G − m reads whatever the span, in position order. A write's
	// are the delta's — its data units, then P, then Q — or the
	// from-scratch gather: the data units it leaves alone, in data order.
	Reads []int
	// Decode lists the lost positions the access solves. A read's are its
	// lost span units, solved from Reads. A write's is a lost data unit it
	// leaves alone beside a lost one it writes — two failures, which only
	// P+Q holds — solved before its gather from the sources of the
	// erasure set, which the decode reads itself.
	Decode []int
	// Writes is round 2, in issue order: the data units written, then P,
	// then Q, then any lost data unit written (the fold: the write goes to
	// its replacement, if one is installed, or into the parities alone).
	// A lost parity is not written. A read writes nothing.
	Writes []int
	// FromScratch says a write builds its parities from the stripe's new
	// contents — the large write, the reconstruct-write or the fold —
	// rather than from a delta against the old contents of what it
	// overwrites.
	FromScratch bool
}

// NewPlan returns a Plan whose slices hold a stripe of g units.
func NewPlan(g int) Plan {
	return Plan{Reads: make([]int, 0, g), Decode: make([]int, 0, g), Writes: make([]int, 0, g)}
}

// PlanStripe fills p with the plan of one access to stripe of l: a read, or
// with write a write, of span — the data positions it covers — given
// erased, the stripe's lost positions, at most one per parity.
//
// A read reads its span, or, when the span holds a lost unit, the sources
// of the erasure set, and decodes its lost units from them. A write with
// no live parity writes its data alone (§7). Otherwise it is from scratch
// when a unit it writes is lost, which has no old contents to take a delta
// from, or when FromScratch says so and no unit it leaves alone is lost,
// which would cost a decode; and it is the delta when not. Either way it
// writes its data and every live parity.
func PlanStripe(p *Plan, l Layout, stripe int64, write bool, span, erased []int) {
	p.Reads, p.Decode, p.Writes, p.FromScratch = p.Reads[:0], p.Decode[:0], p.Writes[:0], false
	lost := func(j int) bool { return slices.Contains(erased, j) }
	if !write {
		p.Reads = append(p.Reads, span...)
		for _, j := range span {
			if lost(j) {
				// The sources of any erasure set hold every data unit it
				// spares: a lone data unit is solved through P from the
				// others, and a larger set reads every unit it does not
				// hold.
				p.Decode = append(p.Decode, j)
				p.Reads = sources(l, stripe, erased, p.Reads[:0])
			}
		}
		return
	}
	pq := ParityPositions(l, stripe)
	live := func(j int) bool { return j != noQ && !lost(j) }
	writtenLost, leftLost := false, false
	for _, j := range erased {
		if j != pq[0] && j != pq[1] {
			writtenLost = writtenLost || slices.Contains(span, j)
			leftLost = leftLost || !slices.Contains(span, j)
		}
	}
	switch {
	case !live(pq[0]) && !live(pq[1]):
	case writtenLost || FromScratch(DataPerStripe(l), len(span)) && !leftLost:
		p.FromScratch = true
		for j := 0; j < l.G(); j++ {
			switch {
			case j == pq[0] || j == pq[1] || slices.Contains(span, j):
			case lost(j):
				p.Decode = append(p.Decode, j)
			default:
				p.Reads = append(p.Reads, j)
			}
		}
	default:
		p.Reads = appendIf(append(p.Reads, span...), pq[:], live)
	}
	p.Writes = appendIf(p.Writes, span, func(j int) bool { return !lost(j) })
	p.Writes = appendIf(p.Writes, pq[:], live)
	p.Writes = appendIf(p.Writes, span, lost)
}

// appendIf appends to dst the positions of from that keep holds for.
func appendIf(dst, from []int, keep func(int) bool) []int {
	for _, j := range from {
		if keep(j) {
			dst = append(dst, j)
		}
	}
	return dst
}

// sources appends to out, in position order, the positions a decode of the
// erasure set erased (positions of stripe, within the code's budget) reads:
// RebuildSources, by position.
func sources(l Layout, stripe int64, erased, out []int) []int {
	via := -1 // every parity is read, unless a lone erasure skips some
	if len(erased) == 1 {
		via = l.ParityPos(stripe, DecodeParity(l, stripe, erased[0]))
	}
	pq := ParityPositions(l, stripe)
	for j := 0; j < l.G(); j++ {
		if slices.Contains(erased, j) || (via >= 0 && j != via && (j == pq[0] || j == pq[1])) {
			continue
		}
		out = append(out, j)
	}
	return out
}
