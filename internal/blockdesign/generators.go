package blockdesign

import (
	"fmt"
	"math/big"
)

// Binomial returns C(n, k) as an int64, or an error on overflow.
func Binomial(n, k int) (int64, error) {
	if k < 0 || k > n {
		return 0, nil
	}
	b := new(big.Int).Binomial(int64(n), int64(k))
	if !b.IsInt64() {
		return 0, fmt.Errorf("blockdesign: C(%d,%d) overflows int64", n, k)
	}
	return b.Int64(), nil
}

// Complete returns the complete block design on v objects with tuple size k:
// all C(v,k) combinations. Every complete design is balanced with
// r = C(v−1, k−1) and λ = C(v−2, k−2). maxTuples bounds the construction;
// pass 0 for a default limit of 1<<20.
func Complete(v, k, maxTuples int) (*Design, error) {
	if v < 2 || k < 2 || k > v {
		return nil, fmt.Errorf("blockdesign: complete design needs 2 <= k <= v, have v=%d k=%d", v, k)
	}
	if maxTuples <= 0 {
		maxTuples = 1 << 20
	}
	n, err := Binomial(v, k)
	if err != nil {
		return nil, err
	}
	if n > int64(maxTuples) {
		return nil, fmt.Errorf("blockdesign: complete design on v=%d k=%d has %d tuples, exceeding limit %d",
			v, k, n, maxTuples)
	}
	d := &Design{V: v, K: k, Source: fmt.Sprintf("complete C(%d,%d)", v, k)}
	comb := make([]int, k)
	for i := range comb {
		comb[i] = i
	}
	for {
		d.Tuples = append(d.Tuples, append([]int(nil), comb...))
		// Advance to the next combination in lexicographic order.
		i := k - 1
		for i >= 0 && comb[i] == v-k+i {
			i--
		}
		if i < 0 {
			break
		}
		comb[i]++
		for j := i + 1; j < k; j++ {
			comb[j] = comb[j-1] + 1
		}
	}
	return d, nil
}

// BaseBlock is one entry of a cyclic construction in Hall's abbreviated
// notation: the block's elements, developed modulo the design's v by adding
// each residue 0..Period−1 element-wise. Period 0 means the full period v.
type BaseBlock struct {
	Elements []int
	Period   int
}

// Cyclic develops base blocks modulo v, the construction used for the
// paper's appendix designs 1-4 and for the symmetric design underlying
// design 5. The result is verified before being returned.
func Cyclic(v int, blocks []BaseBlock, source string) (*Design, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("blockdesign: cyclic construction with no base blocks")
	}
	k := len(blocks[0].Elements)
	d := &Design{V: v, K: k, Source: source}
	for bi, bb := range blocks {
		if len(bb.Elements) != k {
			return nil, fmt.Errorf("blockdesign: base block %d has %d elements, want %d", bi, len(bb.Elements), k)
		}
		period := bb.Period
		if period == 0 {
			period = v
		}
		if period < 1 || period > v {
			return nil, fmt.Errorf("blockdesign: base block %d has period %d out of range", bi, period)
		}
		for s := 0; s < period; s++ {
			tup := make([]int, k)
			for i, e := range bb.Elements {
				tup[i] = ((e+s)%v + v) % v
			}
			d.Tuples = append(d.Tuples, tup)
		}
	}
	if err := d.Verify(); err != nil {
		return nil, fmt.Errorf("cyclic construction %q: %w", source, err)
	}
	return d, nil
}

// Derived builds the derived design of a symmetric design: pick tuple
// `block` as B0; for every other tuple Bi, the new tuple is Bi ∩ B0
// (which has exactly λ elements in a symmetric design), relabeled by
// position in B0. The result has b' = b−1, v' = k, k' = λ, r' = r−1,
// λ' = λ−1 (Hall; paper appendix, design 5).
func Derived(sym *Design, block int) (*Design, error) {
	p, err := sym.Params()
	if err != nil {
		return nil, err
	}
	if !sym.IsSymmetric() {
		return nil, fmt.Errorf("blockdesign: derived design requires a symmetric design, have b=%d v=%d", p.B, p.V)
	}
	if block < 0 || block >= len(sym.Tuples) {
		return nil, fmt.Errorf("blockdesign: block index %d out of range", block)
	}
	b0 := sym.Tuples[block]
	index := make(map[int]int, len(b0))
	for i, x := range b0 {
		index[x] = i
	}
	d := &Design{
		V:      p.K,
		K:      p.Lambda,
		Source: fmt.Sprintf("derived(%s, block %d)", sym.Source, block),
	}
	for i, tup := range sym.Tuples {
		if i == block {
			continue
		}
		var inter []int
		for _, x := range tup {
			if j, ok := index[x]; ok {
				inter = append(inter, j)
			}
		}
		if len(inter) != p.Lambda {
			return nil, fmt.Errorf("blockdesign: intersection of blocks %d and %d has %d elements, want λ=%d",
				i, block, len(inter), p.Lambda)
		}
		d.Tuples = append(d.Tuples, inter)
	}
	if err := d.Verify(); err != nil {
		return nil, fmt.Errorf("derived design: %w", err)
	}
	return d, nil
}

// Complement replaces each tuple with its complement in the object set,
// turning a (b, v, k, r, λ) design into a (b, v, v−k, b−r, b−2r+λ) design.
// Useful for reaching high declustering ratios (large G) from small designs.
func Complement(d *Design) (*Design, error) {
	p, err := d.Params()
	if err != nil {
		return nil, err
	}
	if p.K >= p.V-1 {
		return nil, fmt.Errorf("blockdesign: complement of k=%d on v=%d would have k<2", p.K, p.V)
	}
	c := &Design{V: p.V, K: p.V - p.K, Source: fmt.Sprintf("complement(%s)", d.Source)}
	for _, tup := range d.Tuples {
		in := make([]bool, p.V)
		for _, x := range tup {
			in[x] = true
		}
		out := make([]int, 0, p.V-p.K)
		for x := 0; x < p.V; x++ {
			if !in[x] {
				out = append(out, x)
			}
		}
		c.Tuples = append(c.Tuples, out)
	}
	if err := c.Verify(); err != nil {
		return nil, fmt.Errorf("complement design: %w", err)
	}
	return c, nil
}
