package store

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

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
// reach it stores (a copy, or for a Q term a multiply; nothing for a stored
// parity a small write reads in place), the rest accumulate, and a sum that
// no term reached is cleared when the gather is over (sums, io.go). The one
// sum that starts otherwise is the coefficient-free from-scratch commit's
// P, seeded from the new contents before any read.

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
	pos   int    // its position in the stripe
	out   []byte // receives the solved contents (unitSize)
	cause error  // the read error that erased a damaged unit; nil for a lost one
}

// erasures lists, in position order, what recovering unit u of stripe
// solves: every lost unit of the stripe, every position sc's record holds
// damaged — its cause with it, for recoverInto to charge once the stripe
// is solved — and u itself. Each solves into its unit buffer in sc, u into
// out when out is not nil. Fail keeps the lost units within the budget;
// damage may take the list past it, which recoverInto checks.
func (s *Store) erasures(st *diskState, sc *stripeScratch, stripe int64, u layout.Loc, out []byte) []erasure {
	list := sc.eras[:0]
	pp := layout.ParityPositions(s.lay, stripe)
	for j, g := 0, s.lay.G(); j < g; j++ {
		v := s.lay.Unit(stripe, j)
		if v != u && sc.has[j] != damaged && !st.lost(v) {
			continue
		}
		e := erasure{loc: v, pos: j, out: sc.phys[j][:s.unitSize]}
		switch j {
		case pp[0]:
			e.role = roleP
		case pp[1]:
			e.role = roleQ
		default:
			e.role = layout.DataOrdinal(s.lay, stripe, j)
		}
		if sc.has[j] == damaged && !st.lost(v) {
			e.cause = sc.errs[j]
		}
		if v == u && out != nil {
			e.out = out
		}
		list = append(list, e)
	}
	return list
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
// The units listed are layout.RebuildSources of the erasure set, the rule
// the simulator reads by (TestRebuildReadsMatchLayout).
func (s *Store) sumTerms(stripe int64, terms []term, erased []erasure, px, qx []byte) []term {
	pp := layout.ParityPositions(s.lay, stripe)
	d := 0
next:
	for j, g := 0, s.lay.G(); j < g; j++ {
		t := term{loc: s.lay.Unit(stripe, j), pos: j, p: px}
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
			if erased[i].pos == j {
				continue next
			}
		}
		terms = append(terms, t)
	}
	return terms
}

// gatherSums gathers terms into px and qx, which arrive dirty — out of the
// pool, or a caller's buffer — and leave as the sums over them: started by
// their first term, or cleared if no term folds into them. It returns what
// gather returns: the index of a term held damaged, in which case nothing
// was folded, or −1.
func (s *Store) gatherSums(st *diskState, sc *stripeScratch, terms []term, px, qx []byte) (int, error) {
	sm := startSums(px, qx)
	i, err := s.gather(st, sc, terms, &sm)
	sm.settle()
	return i, err
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
		subtle.XORBytes(px, px, qx)
	case y == roleQ:
		gf256.MulAddSlice(qx, px, gf256.Exp(x))
	default:
		a, b := gf256.TwoErasureCoeffs(x, y)
		gf256.MulSlice(qx, qx, b)
		gf256.MulAddSlice(qx, px, a)
		subtle.XORBytes(px, px, qx)
	}
}

// solve computes every listed erasure's contents into its out buffer from
// the rest of the stripe, gathering the units the pattern needs that the
// lock hold does not hold yet; the out buffers double as the accumulators.
// Reads are plain (no healing): when a source is held damaged, solve
// reports it (the record names it) and solves nothing. The list must hold
// every lost unit of the stripe. Its one caller is recoverInto.
func (s *Store) solve(st *diskState, sc *stripeScratch, stripe int64, list []erasure) (bool, error) {
	var px, qx []byte
	po, qo := sumOwners(list)
	if po != nil {
		px = po.out
	}
	if qo != nil {
		qx = qo.out
	}
	i, err := s.gatherSums(st, sc, s.sumTerms(stripe, sc.src[:0], list, px, qx), px, qx)
	if err != nil || i >= 0 {
		return i >= 0, err
	}
	decode(list, px, qx)
	return false, nil
}

// recoverInto is the store's one solve and heal path and the one place the
// erasure budget is checked (TestOneSolve). Under the stripe's WRITE lock,
// held by the operation whose scratch is sc, it computes the contents of
// unit u — lost, or held damaged by sc's record — into out (nil: u's unit
// buffer) from the rest of its stripe. A span read calls it under the READ
// lock too, but only while sc's record holds no damage and every source of
// the stripe's erasure set clean (serveSpan): it then reads nothing, heals
// nothing and loses nothing, and only decodes the lost units. Every lost
// unit and every position the record holds damaged is solved with it
// (erasures), and the solve reads only the sources of that erasure set the
// hold does not hold: none of what the operation read is read again. A
// source the solve finds damaged grows the set, and the next round asks for
// the sources of the larger set and again reads only what is new — the
// simulator's rule (repairLocked in internal/array) — while the code's
// budget of one erasure per parity lasts. Once all are solved, each is held
// solved, and each with a cause is charged (a checksum error counted, a
// media error was where the backend reported it: readPhys; a point against
// its disk) and rewritten in place (healUnit). A failed rewrite leaves its
// unit damaged and its disk charged, but the operation that needed the
// contents has them. Past the budget the stripe is lost (loseStripe) and
// recoverInto returns errLost: nothing was charged, and the caller runs its
// operation again (carryOn). written lists the units the caller's write goes
// on to overwrite (nil for any other caller).
func (s *Store) recoverInto(st *diskState, sc *stripeScratch, u layout.Loc, out []byte, written []layout.Loc) error {
	stripe, _ := s.lay.Locate(u)
	for {
		list := s.erasures(st, sc, stripe, u, out)
		if len(list) > s.parities {
			return s.loseStripe(st, sc, stripe, written)
		}
		more, err := s.solve(st, sc, stripe, list)
		if err != nil {
			return err
		}
		if more {
			continue
		}
		for _, e := range list {
			sc.has[e.pos], sc.at[e.pos] = solved, e.out
			if e.cause != nil {
				if !errors.Is(e.cause, ErrMedia) {
					s.checksumErrs.Add(1)
				}
				s.scoreDiskError(e.loc.Disk)
				_ = s.healUnit(st, e.loc, e.out) // a failed rewrite is charged; out holds the contents
			}
		}
		return nil
	}
}

// errLost is recoverInto's answer when it found the stripe past its
// erasure budget and loseStripe rewrote it: the caller, still holding the
// stripe's write lock, runs its operation again (carryOn). It is returned
// bare.
var errLost = errors.New("store: stripe rewritten after a loss")

// maxLosses bounds how many times one operation loses its stripe. A loss
// rewrites every unit it can reach, so the operation that runs again finds
// the stripe past its budget only if fresh damage struck in between; a
// stripe lost over and over sits on a device that drops the rewrite, and
// the operation reports that rather than hold the stripe's lock for ever.
const maxLosses = 3

// carryOn runs op, the part of an operation that holds stripe's write
// lock with sc as its scratch, and runs it again after each loss it meets,
// up to maxLosses. Before each run again sc's record is forgotten: the
// stripe has been rewritten, and only reading it again finds a rewrite the
// device dropped.
func carryOn(stripe int64, sc *stripeScratch, op func() error) error {
	for n := 1; ; n++ {
		err := op()
		if err != errLost {
			return err
		}
		if n == maxLosses {
			return fmt.Errorf("%w: stripe %d is still past its erasure budget after %d rewrites", ErrUnrecoverable, stripe, n)
		}
		sc.forget()
	}
}

// loseStripe is the store's one rule for a stripe past its erasure budget,
// the simulator's too (repairLocked in internal/array): book the loss and
// carry on. Under the stripe's write lock, which the caller holds, it reads
// the data units that are neither lost nor held by sc's record, one batch,
// and rewrites the stripe whole through writeStripeLocked: every data unit
// that reads keeps its contents, every erased one — lost, or held damaged,
// or found damaged by this read — becomes its poison block, and the
// parities are recomputed, and not written where their disk is down.
// Stats.LostUnits then grows by the stripe's erasures bar the units in
// written, which the caller's write overwrites. It returns errLost, or the
// error that stopped the rewrite.
func (s *Store) loseStripe(st *diskState, sc *stripeScratch, stripe int64, written []layout.Loc) error {
	pp := layout.ParityPositions(s.lay, stripe)
	terms := sc.src[:0]
	for j, g := 0, s.lay.G(); j < g; j++ {
		if u := s.lay.Unit(stripe, j); j != pp[0] && j != pp[1] && !st.lost(u) {
			terms = append(terms, term{loc: u, pos: j})
		}
	}
	if _, err := s.gather(st, sc, terms, nil); err != nil {
		return err
	}
	// A full-stripe write gathers nothing: a scratch of its own carries the
	// new contents, which are the units this hold holds and poison blocks
	// in the erased units' buffers.
	w := s.getScratch()
	defer s.scratch.Put(w)
	w.pos, w.locs, w.datas = w.pos[:0], w.locs[:0], w.datas[:0]
	n, lost := stripe*s.dataPerStripe, int64(0)
	for j, g := 0, s.lay.G(); j < g; j++ {
		u := s.lay.Unit(stripe, j)
		erased := st.lost(u) || sc.has[j] == damaged
		if erased && !slices.Contains(written, u) {
			lost++
		}
		if j == pp[0] || j == pp[1] {
			continue
		}
		data := sc.at[j]
		if erased {
			data = sc.phys[j]
			poisonBlock(n, data[:s.unitSize])
		}
		w.pos = append(w.pos, j)
		w.locs = append(w.locs, u)
		w.datas = append(w.datas, data[:s.unitSize])
		n++
	}
	if err := s.writeStripeLocked(stripe, w); err != nil {
		return err
	}
	s.lostUnits.Add(lost)
	return errLost
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
		j := s.lay.ParityPos(stripe, k)
		if loc := s.lay.Unit(stripe, j); !st.lost(loc) {
			buf := s.getBuf()
			sum[k] = (*buf)[:s.unitSize]
			sc.par = append(sc.par, parityWrite{loc: loc, pos: j, buf: buf})
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
// (nil without a Q). Both are zero when the stripe is consistent. It is the
// one pass CheckParity reports from and resyncStripe repairs from: when a
// unit reads damaged, i is the index of its term in sc.terms and the sums
// are not formed, and either way sc's record holds every unit that read
// clean. The sums live on sc.par; release with putParity.
func (s *Store) syndromes(st *diskState, sc *stripeScratch, stripe int64) (px, qx []byte, i int, err error) {
	px, qx = s.paritySums(st, sc, stripe)
	sc.terms = s.sumTerms(stripe, sc.terms[:0], nil, px, qx)
	i, err = s.gatherSums(st, sc, sc.terms, px, qx)
	return px, qx, i, err
}

// commitStripeLocked performs the stripe's parity-maintaining update: the
// plan layout.PlanStripe makes of the span and the stripe's lost units, run
// as two rounds of independent accesses, each issued as one batch — gather
// what the plan reads, then write data and parity (commitWrites). However
// many units are written, the update is two device waits when the batches
// overlap, and the same accesses in index order when they do not. Caller
// holds the stripe's write lock and the region's intent mark; sc.pos holds
// the positions of sc.locs.
//
//   - delta: gather the old parities and old data, and fold each written
//     unit's difference old ⊕ new into P bare and into Q times g^d: read
//     P[,Q],D then write D,P[,Q], the four-access small write under single
//     parity and the six-access one under P+Q;
//   - from scratch: gather the data units the span leaves alone and build
//     the parities from the stripe's new contents — nothing to gather for a
//     large write, the minority of the stripe for a reconstruct-write, and
//     the fold when a written unit is lost, after decoding a lost unit it
//     leaves alone (the plan's Decode);
//   - a lost parity unit is simply not written (its rebuild recomputes
//     it); with every parity lost the data writes go through alone (§7).
//
// Each written unit's crc32c is computed once, up front: it stamps the
// unit, and P's trailer is derived from it and the crc32c's the first
// round's reads verified (sums.pSum), not computed over P.
func (s *Store) commitStripeLocked(stripe int64, sc *stripeScratch) error {
	st := s.st.Load()
	sc.newSums = sc.newSums[:0]
	for _, d := range sc.datas {
		sc.newSums = append(sc.newSums, dataSum(d))
	}
	plan := &sc.plan
	layout.PlanStripe(plan, s.lay, stripe, true, sc.pos, s.lostPositions(st, stripe, nil, sc.erased))
	px, qx := s.paritySums(st, sc, stripe)
	defer s.putParity(sc)
	if len(sc.par) == 0 {
		return s.commitWrites(st, sc)
	}

	// How each written unit folds into the new parities.
	wr := sc.terms[:len(sc.locs)]
	writtenLost := false
	for i, loc := range sc.locs {
		wr[i] = term{loc: loc, pos: sc.pos[i], p: px}
		if qx != nil {
			wr[i].coef = gf256.Exp(layout.DataOrdinal(s.lay, stripe, sc.pos[i]))
		}
		writtenLost = writtenLost || st.lost(loc)
	}

	// First round: what the plan reads, gathered and folded in list order.
	need := sc.rest[:0]
	switch {
	case !plan.FromScratch:
		// Delta read-modify-write: P' = P ⊕ Σ(old ⊕ new) and Q' = Q ⊕
		// Σ g^d·(old ⊕ new). The plan reads the written units and the live
		// parities, the ones paritySums queued; the stored parities are
		// listed first and read in place, into the buffers they are written
		// back from, so each starts its sum with no pass; each written
		// unit's term carries its new contents, and its fold forms old ⊕ new
		// where the old contents were read and folds it once, in one pass
		// into both sums. Every written unit reaches every live sum, so none
		// ends unreached. Lost unwritten units don't disturb the delta.
		sc.sums = startSums(px, qx) // px is nil with P lost
		for _, p := range sc.par {
			need = append(need, term{loc: p.loc, pos: p.pos, p: (*p.buf)[:s.unitSize], in: *p.buf})
		}
		for i, t := range wr {
			t.new, t.newSum = sc.datas[i], sc.newSums[i]
			need = append(need, t)
		}
	case qx == nil:
		// From scratch with nothing to multiply: what the written units
		// contribute is known before any read, so the P sum starts as the
		// XOR of their new contents — one unit copied, two or more summed
		// out of place by the standard library's vector XOR (px is pooled,
		// so it overlaps no unit of the caller's).
		if d := sc.datas; len(d) == 1 {
			copy(px, d[0])
		} else {
			subtle.XORBytes(px, d[0], d[1])
			for _, x := range d[2:] {
				subtle.XORBytes(px, px, x)
			}
		}
		sc.sums = sums{p: px, n: len(sc.datas)}
		for _, sum := range sc.newSums {
			sc.sums.crc ^= sum
		}
	default:
		// From scratch under P+Q: both sums start from the first term to
		// reach them, and the new contents fold in after the gather.
		sc.sums = startSums(px, qx)
	}
	if plan.FromScratch {
		// What the new parities lack is the units the span leaves alone:
		// the plan's reads, and a lost one (P+Q only: a second failure,
		// beside a lost written unit) decoded into its unit buffer first
		// and held solved for the gather to fold — decoding may heal, a
		// heal rewrites, and what the decode read is not read again.
		if len(plan.Reads) > 0 && !writtenLost {
			s.reconstructWrites.Add(1)
		}
		for _, j := range plan.Decode {
			if err := s.recoverInto(st, sc, s.lay.Unit(stripe, j), nil, sc.locs); err != nil {
				return err
			}
		}
		for _, list := range [2][]int{plan.Reads, plan.Decode} {
			for _, j := range list {
				t := term{loc: s.lay.Unit(stripe, j), pos: j, p: px}
				if qx != nil {
					t.coef = gf256.Exp(layout.DataOrdinal(s.lay, stripe, j))
				}
				need = append(need, t)
			}
		}
	}
	if err := s.gatherHealing(st, sc, need); err != nil {
		return err
	}
	if plan.FromScratch && qx != nil {
		for i, t := range wr {
			t.foldInto(&sc.sums, sc.datas[i], sc.newSums[i])
		}
	}
	if px != nil {
		sc.par[0].sum, sc.par[0].derived = sc.sums.pSum(s.zeroSum)
	}
	// Second round: data writes (redirected to a replacement or folded
	// when lost) and the live parities, one batch: the plan's writes.
	return s.commitWrites(st, sc)
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
