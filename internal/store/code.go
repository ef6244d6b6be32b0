package store

import (
	"crypto/subtle"
	"encoding/binary"
	"fmt"

	"declust/internal/gf256"
	"declust/internal/layout"
)

// This file is the erasure code — the one engine behind every read of a
// missing unit, every parity update and every verification. A stripe
// carries m parity units over its G−m data units: P, the plain XOR of the
// data, and (m = 2, RAID-6) Q, the GF(2^8) Reed–Solomon sum Σ g^d·data_d
// with d the unit's data ordinal within the stripe (layout.DataOrdinal).
// m parities correct m erasures per stripe — lost disks, damaged units, or
// a mix — and that budget is the only place the engine counts parities.
//
// Single parity is not a second code beside P+Q: it is the same code with
// the Q equation absent. A stripe with no Q has no Q position, gives its
// data units no Q coefficient, and never holds a pattern that needs one,
// so the solver's "one data unit through P" line is XOR reconstruction,
// and a commit that starts no Q sum is the four-access read-modify-write,
// the fold-forward or the large write.
//
// All of it runs on one primitive (io.go): gather reads a list of units
// and folds each into a P sum and, times its coefficient, a Q sum, and the
// stored P and Q fold into the sums they close — so a sum over data comes
// back as its difference from the stored parity: zero for a consistent
// stripe, the missing units' own share for a decode, the new parity for an
// update.
//
// A sum starts from its first term, not from zeros. Its buffer comes out of
// the pool holding whatever its last user left — no pooled buffer is ever
// assumed clean — and is handed to the gather as it is: the first term to
// reach it stores (a copy, or for a Q term a multiply), the rest
// accumulate, and a sum that no term reached is cleared when the gather is
// over (sums, io.go). The one sum that starts otherwise is the
// coefficient-free commit's P, seeded from the new contents before any
// read.

// roleP and roleQ stand in for a data ordinal in erasure.role, chosen so
// that roles sort P, data ascending, Q.
const (
	roleP = -1
	roleQ = 256 // GF(2^8) has no data ordinal this high
)

// erasure is one unreadable position of a stripe — lost with its disk, or
// found damaged — and the buffer its contents are solved into.
type erasure struct {
	role  int // roleP, roleQ, or the data ordinal d (its Q coefficient is g^d)
	loc   layout.Loc
	out   []byte  // receives the solved contents (unitSize)
	buf   *[]byte // pooled backing for out when the caller supplied none
	cause error   // the read error that erased a damaged unit; nil for a lost one
}

// parityPos returns the positions of stripe's P and Q units, −1 for a
// parity the code does not have.
func (s *Store) parityPos(stripe int64) (pp [2]int) {
	pp = [2]int{-1, -1}
	for k := 0; k < s.parities; k++ {
		pp[k] = s.lay.ParityPos(stripe, k)
	}
	return pp
}

// erase returns the erasure of position j (unit u) of stripe, solving into
// out, or into pooled scratch when out is nil.
func (s *Store) erase(stripe int64, j int, u layout.Loc, out []byte, cause error) erasure {
	e := erasure{loc: u, out: out, cause: cause}
	switch pp := s.parityPos(stripe); j {
	case pp[0]:
		e.role = roleP
	case pp[1]:
		e.role = roleQ
	default:
		e.role = layout.DataOrdinal(s.lay, stripe, j)
	}
	if out == nil {
		e.buf = s.getBuf()
		e.out = (*e.buf)[:s.unitSize]
	}
	return e
}

// freeErasures returns the pooled buffers of an erasure list.
func (s *Store) freeErasures(list []erasure) {
	for i := range list {
		if list[i].buf != nil {
			s.putBuf(list[i].buf)
		}
	}
}

// erasures starts the erasure list for recovering unit want into wantOut:
// every lost unit of the stripe (the others solve into pooled scratch),
// plus want itself when it is not lost but damaged in place. One erasure
// more than the code has parities is ErrUnrecoverable.
func (s *Store) erasures(st *diskState, sc *stripeScratch, stripe int64, want layout.Loc, wantOut []byte) ([]erasure, error) {
	list := sc.eras[:0]
	for j, g := 0, s.lay.G(); j < g; j++ {
		u := s.lay.Unit(stripe, j)
		if u != want && !st.lost(u) {
			continue
		}
		if len(list) == s.parities {
			s.freeErasures(list)
			return nil, fmt.Errorf("%w: recovering %v: stripe %d has more than %d unreadable units",
				ErrUnrecoverable, want, stripe, len(list))
		}
		var out []byte
		if u == want {
			out = wantOut
		}
		list = append(list, s.erase(stripe, j, u, out, nil))
	}
	return list, nil
}

// sumOwners puts an erasure list (one or two entries) in role order and
// returns the entries whose buffers accumulate the P sum and the Q sum —
// nil for a sum the pattern does not need. An erased P owns the P sum and
// an erased Q the Q sum, since the sum over data is what each recomputes
// to; erased data units take what is left, P first: alone, a data unit
// solves through P; beside another erasure the pair needs both sums, each
// ending up holding one of the two.
func sumOwners(list []erasure) (p, q *erasure) {
	if len(list) == 2 {
		if list[0].role > list[1].role {
			list[0], list[1] = list[1], list[0]
		}
		return &list[0], &list[1]
	}
	if list[0].role == roleQ {
		return nil, &list[0]
	}
	return &list[0], nil
}

// sumTerms lists the reads that accumulate stripe's parity sums around the
// erased units: each surviving data unit into px and, times g^d, into qx;
// the stored P into px and the stored Q into qx. A nil sum is one nobody
// needs: nothing folds into it and its parity unit is not read — which is
// why recovering one lost unit of a P+Q stripe reads G−2 units, not G−1.
func (s *Store) sumTerms(stripe int64, terms []term, erased []erasure, px, qx []byte) []term {
	pp := s.parityPos(stripe)
	d := 0
next:
	for j, g := 0, s.lay.G(); j < g; j++ {
		t := term{loc: s.lay.Unit(stripe, j), p: px}
		switch j {
		case pp[0]:
		case pp[1]:
			t.p = qx
		default:
			if qx != nil {
				t.coef = gf256.Exp(d)
			}
			d++
		}
		if t.p == nil && t.coef == 0 {
			continue
		}
		for i := range erased {
			if erased[i].loc == t.loc {
				continue next
			}
		}
		terms = append(terms, t)
	}
	return terms
}

// gatherSums gathers sumTerms into px and qx, which arrive dirty — out of
// the pool, or a caller's buffer — and leave as the sums over every unit
// that read clean: started by their first term, or cleared if every unit
// that folds into them is erased or damaged. The damaged ones are returned
// as gather returns them.
func (s *Store) gatherSums(st *diskState, sc *stripeScratch, stripe int64, erased []erasure, px, qx []byte) ([]damagedUnit, error) {
	sc.sums = startSums(px, qx)
	damaged, err := s.gather(st, sc, s.sumTerms(stripe, sc.terms[:0], erased, px, qx))
	sc.sums.settle()
	return damaged, err
}

// decode turns the parity sums gathered around an erasure list — px and qx,
// in the buffers sumOwners chose — into the erased units' contents, in
// place. One erasure's sum is its contents already: P and Q recompute as
// the sum over data, and a data unit is what the others leave of P. Two:
//
//	P and Q   both sums are the answers
//	P and x   through Q: d_x = g^(−x)·qx, then P = px ⊕ d_x
//	x and Q   d_x = px (through P), then Q = qx ⊕ g^x·d_x
//	x < y     px = d_x ⊕ d_y and qx = g^x·d_x ⊕ g^y·d_y, so with
//	          gf256.TwoErasureCoeffs d_y = a·px ⊕ b·qx and d_x = d_y ⊕ px
func decode(list []erasure, px, qx []byte) {
	if len(list) < 2 {
		return
	}
	switch x, y := list[0].role, list[1].role; {
	case x == roleP && y == roleQ:
	case x == roleP:
		gf256.MulSlice(qx, qx, gf256.Exp(-y))
		xorInto(px, qx)
	case y == roleQ:
		gf256.MulAddSlice(qx, px, gf256.Exp(x))
	default:
		a, b := gf256.TwoErasureCoeffs(x, y)
		gf256.MulSlice(qx, qx, b)
		gf256.MulAddSlice(qx, px, a)
		xorInto(px, qx)
	}
}

// solve computes every listed erasure's contents into its out buffer from
// the rest of the stripe, in one gather of only the units the pattern
// needs; the out buffers double as the accumulators. Reads are plain (no
// healing): a damaged survivor is returned (its err set) — the first in
// list order — for the caller to absorb or escalate. The list must hold
// every lost unit of the stripe. Caller holds at least the stripe's read
// lock.
func (s *Store) solve(st *diskState, sc *stripeScratch, stripe int64, list []erasure) (damagedUnit, error) {
	var px, qx []byte
	po, qo := sumOwners(list)
	if po != nil {
		px = po.out
	}
	if qo != nil {
		qx = qo.out
	}
	damaged, err := s.gatherSums(st, sc, stripe, list, px, qx)
	if err != nil {
		return damagedUnit{}, err
	}
	if len(damaged) > 0 {
		return damaged[0], nil
	}
	decode(list, px, qx)
	return damagedUnit{}, nil
}

// reconstructLocked computes loc (lost) into dst from its stripe's
// survivors: under single parity the XOR of the other G−1 units, under P+Q
// the decode around up to two lost units. Caller holds (at least) the
// stripe's read lock; damaged survivors are reported (needsHeal), not
// repaired — repairing requires the write lock, which healRead takes for
// the exclusive retry.
func (s *Store) reconstructLocked(st *diskState, loc layout.Loc, dst []byte) error {
	sc := s.scratch.Get().(*stripeScratch)
	defer s.scratch.Put(sc)
	stripe, _ := s.lay.Locate(loc)
	list, err := s.erasures(st, sc, stripe, loc, dst)
	if err != nil {
		return err
	}
	defer s.freeErasures(list)
	dmg, err := s.solve(st, sc, stripe, list)
	if err != nil {
		return err
	}
	return dmg.err // escalates to healRead, which may absorb it
}

// recoverInto computes the contents of unit u — lost or damaged — from
// the rest of its stripe, into out, under the stripe's WRITE lock: u and
// every lost unit of the stripe are erased, and a damaged unit discovered
// along the way is absorbed as one more erasure — and healed in place —
// while the code's budget of one erasure per parity lasts. Under single
// parity that budget is spent on u itself, so any damaged sibling is
// unrecoverable and nothing is rewritten.
func (s *Store) recoverInto(st *diskState, u layout.Loc, out []byte) error {
	sc := s.scratch.Get().(*stripeScratch)
	defer s.scratch.Put(sc)
	stripe, _ := s.lay.Locate(u)
	list, err := s.erasures(st, sc, stripe, u, out)
	if err != nil {
		return err
	}
	defer func() { s.freeErasures(list) }()
	for {
		dmg, err := s.solve(st, sc, stripe, list)
		if err != nil {
			return err
		}
		if dmg.err == nil {
			break
		}
		if len(list) == s.parities {
			return fmt.Errorf("%w: %v and %v are both unreadable and stripe %d has %d erasures already: %v",
				ErrUnrecoverable, u, dmg.loc, stripe, len(list), dmg.err)
		}
		// Budget left: absorb the damaged unit as another erasure and
		// re-solve; its reconstructed contents heal it in place below.
		s.countHeal(dmg.err)
		s.scoreDiskError(dmg.loc.Disk)
		_, j := s.lay.Locate(dmg.loc)
		list = append(list, s.erase(stripe, j, dmg.loc, nil, dmg.err))
	}
	for i := range list {
		// u, if damaged rather than lost, is the caller's to rewrite.
		if e := &list[i]; e.cause != nil {
			s.healUnit(st, e.loc, e.out)
		}
	}
	return nil
}

// paritySums hands out stripe's parity sums: one pooled buffer per parity
// unit that is live in st, queued on sc.par as that unit's next contents —
// dirty, for the caller to seed or to start (sums). px or qx is nil when
// that parity is lost — or, for qx, when the code has no Q. Release with
// putParity.
func (s *Store) paritySums(st *diskState, sc *stripeScratch, stripe int64) (px, qx []byte) {
	var sum [2][]byte
	sc.par = sc.par[:0]
	for k := 0; k < s.parities; k++ {
		if loc := layout.ParityLocOf(s.lay, stripe, k); !st.lost(loc) {
			buf := s.getBuf()
			sum[k] = (*buf)[:s.unitSize]
			sc.par = append(sc.par, parityWrite{loc: loc, buf: buf})
		}
	}
	return sum[0], sum[1]
}

// putParity returns the buffers paritySums queued on sc.par.
func (s *Store) putParity(sc *stripeScratch) {
	for _, p := range sc.par {
		s.putBuf(p.buf)
	}
	sc.par = sc.par[:0]
}

// syndromes reads every unit of stripe — none may be lost — into its
// parity equations: on return px is ⊕data ⊕ P and qx is Σ g^d·data_d ⊕ Q
// (nil without a Q) over the units that read clean. Both are zero when the
// stripe is consistent, and with the damaged units — returned in position
// order — left out they are exactly the sums decode solves those units
// from. It is the one pass CheckParity reports from and resyncStripe
// repairs from. The sums live on sc.par; release with putParity.
func (s *Store) syndromes(st *diskState, sc *stripeScratch, stripe int64) (px, qx []byte, damaged []damagedUnit, err error) {
	px, qx = s.paritySums(st, sc, stripe)
	damaged, err = s.gatherSums(st, sc, stripe, nil, px, qx)
	return px, qx, damaged, err
}

// commitStripeLocked performs the stripe's parity-maintaining update in
// two rounds of independent accesses, each issued as one batch: gather
// whatever the new parities need beyond the new contents themselves, then
// write data and parity. However many units are written, the update is
// two device waits when the batches overlap, and the same accesses in
// index order when they do not. Caller holds the stripe's write lock and
// the region's intent mark.
//
//   - delta: gather the old parities and old data, fold old and new data
//     into P bare and into Q times g^d: read P[,Q],D then write D,P[,Q],
//     the four-access small write under single parity and the six-access
//     one under P+Q;
//   - from scratch: gather the data units the span does not write and
//     build the parities from the stripe's new contents — nothing to gather
//     for a large write, the minority of the stripe for a reconstruct-write,
//     and the fold-forward when a written unit is lost (a lost unwritten
//     one is decoded from the old parities first). fromScratch chooses;
//   - a lost parity unit is simply not written (its rebuild recomputes
//     it); with every parity lost the data writes go through alone (§7).
func (s *Store) commitStripeLocked(stripe int64, sc *stripeScratch) error {
	st := s.st.Load()
	px, qx := s.paritySums(st, sc, stripe)
	defer s.putParity(sc)
	if len(sc.par) == 0 {
		return s.commitWrites(st, sc)
	}

	// How each written unit folds into the new parities — its new contents,
	// and under a delta its old ones too.
	wr := sc.terms[:len(sc.locs)]
	writtenLost := false
	for i, loc := range sc.locs {
		wr[i] = term{loc: loc, p: px}
		if qx != nil {
			_, j := s.lay.Locate(loc)
			wr[i].coef = gf256.Exp(layout.DataOrdinal(s.lay, stripe, j))
		}
		writtenLost = writtenLost || st.lost(loc)
	}
	if qx == nil {
		// Nothing to multiply, so what the written units contribute is
		// known before any read: the P sum starts as the XOR of their new
		// contents — one unit copied, two or more summed out of place by
		// the standard library's vector XOR (px is pooled, so it overlaps
		// no unit of the caller's).
		if d := sc.datas; len(d) == 1 {
			copy(px, d[0])
		} else {
			subtle.XORBytes(px, d[0], d[1])
			for _, x := range d[2:] {
				subtle.XORBytes(px, px, x)
			}
		}
		sc.sums = sums{p: px}
	} else {
		// Both sums start from the first term in list order that reaches
		// them — under a delta the stored P and Q, copied — and every
		// written unit folds into both, so neither can end the update
		// unreached.
		sc.sums = startSums(px, qx) // px is nil with P lost
	}

	// First round: whatever the sums need from the disks, gathered and
	// folded in list order; with a Q sum to keep, each written unit's new
	// contents fold in after, once per unit.
	need := sc.rest[:0]
	if !s.fromScratch(st, stripe, len(sc.locs), writtenLost) {
		// Delta read-modify-write: P' = P ⊕ Σold ⊕ Σnew and Q' = Q ⊕
		// Σ g^d·old ⊕ Σ g^d·new — linear, so old and new contents fold in
		// as separate terms, each in one pass into both sums. The stored
		// parities are listed first, so the gather, which folds in list
		// order, starts each sum with a copy of its parity. Lost unwritten
		// units don't disturb the delta.
		for _, p := range sc.par {
			need = append(need, term{loc: p.loc, p: (*p.buf)[:s.unitSize]})
		}
		need = append(need, wr...)
	} else {
		// From scratch: what the new parities lack is the units the span
		// leaves alone. Survivors are gathered; a lost one (P+Q only: a
		// second failure, beside a lost written unit) contributes its decoded
		// old value, before the gather — decoding may heal, a heal rewrites.
		left := int(s.dataPerStripe) - len(sc.locs)
		if left > 0 && !writtenLost {
			s.reconstructWrites.Add(1)
		}
		for d := 0; left > 0; d++ {
			t := term{loc: s.lay.Unit(stripe, layout.DataPos(s.lay, stripe, d)), p: px}
			if qx != nil {
				t.coef = gf256.Exp(d)
			}
			switch {
			case indexLoc(sc.locs, t.loc) >= 0:
				continue
			case !st.lost(t.loc):
				need = append(need, t)
			default:
				lBuf := s.getBuf()
				err := s.recoverInto(st, t.loc, (*lBuf)[:s.unitSize])
				if err == nil {
					t.foldInto(&sc.sums, (*lBuf)[:s.unitSize])
				}
				s.putBuf(lBuf)
				if err != nil {
					return err
				}
			}
			left--
		}
	}
	if err := s.gatherHealing(st, sc, need); err != nil {
		return err
	}
	if qx != nil {
		for i, t := range wr {
			t.foldInto(&sc.sums, sc.datas[i])
		}
	}
	// Second round: data writes (redirected to a replacement or folded
	// when lost) and the live parities, one batch.
	return s.commitWrites(st, sc)
}

// fromScratch picks a stripe update's plan by layout.FromScratch, the rule
// the simulator plans by too, and the stripe's failure state: a lost written
// unit has no old contents to take a delta from, so from scratch; a lost
// unwritten one would cost a decode, G−2 more reads, so the delta.
func (s *Store) fromScratch(st *diskState, stripe int64, written int, writtenLost bool) bool {
	k := int(s.dataPerStripe)
	switch {
	case writtenLost:
		return true
	case !layout.FromScratch(k, written):
		return false
	case len(st.fails) == 0:
		return true
	}
	for d := 0; d < k; d++ {
		if st.lost(s.lay.Unit(stripe, layout.DataPos(s.lay, stripe, d))) {
			return false // an unwritten one: no written unit is lost
		}
	}
	return true
}

// indexLoc returns the index of u in locs, or −1.
func indexLoc(locs []layout.Loc, u layout.Loc) int {
	for i, loc := range locs {
		if loc == u {
			return i
		}
	}
	return -1
}

// allZero reports whether every byte of b is zero (true for a nil sum),
// eight bytes at a step: units and their sums are multiples of 8.
func allZero(b []byte) bool {
	for ; len(b) >= 8; b = b[8:] {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
	}
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}
