package store

import (
	"errors"
	"fmt"

	"declust/internal/gf256"
	"declust/internal/layout"
)

// This file is the P+Q (RAID-6) engine: the code paths a store takes when
// its layout carries two parity units per stripe. P is the plain XOR of
// the stripe's data units; Q is the GF(2^8) Reed–Solomon sum Σ g^d·data_d,
// with d the unit's data ordinal within the stripe (layout.DataOrdinal).
// Together they correct any two erasures — two lost disks, or one lost
// disk plus one damaged unit — where single parity corrects one.
//
// Every entry point (reconstruct, commit, scrub, check) dispatches here
// only when s.parities == 2. What the two codes share is below them: one
// gather (io.go) reads and folds units for both — single parity is the
// case where every term XORs into one accumulator — and one commitWrites
// lands the second round of both.

// pqDamagedError reports a unit the solver needed but found damaged
// (media error or checksum mismatch). Callers holding the write lock may
// absorb it as an additional erasure; read-lock callers surface the cause
// so the read escalates to healRead.
type pqDamagedError struct {
	j     int
	loc   layout.Loc
	cause error
}

func (e *pqDamagedError) Error() string {
	return fmt.Sprintf("store: unit %v is damaged: %v", e.loc, e.cause)
}

// pqErasure is one unreadable position the solver must compute.
type pqErasure struct {
	j    int
	loc  layout.Loc
	out  []byte  // receives the solved contents (unitSize)
	buf  *[]byte // pooled backing for out when the caller supplied none
	heal bool    // damaged in place (not lost): rewrite after solving
}

// pqFree returns the pooled buffers of a solved erasure list.
func (s *Store) pqFree(list []pqErasure) {
	for i := range list {
		if list[i].buf != nil {
			s.putBuf(list[i].buf)
		}
	}
}

// pqLostErasures lists the stripe's lost positions as erasures. The unit
// at want (if lost) writes into wantOut; other lost units solve into
// pooled scratch. A third lost unit returns ErrUnrecoverable.
func (s *Store) pqLostErasures(st *diskState, stripe int64, want layout.Loc, wantOut []byte) ([]pqErasure, error) {
	g := s.lay.G()
	var list []pqErasure
	for j := 0; j < g; j++ {
		u := s.lay.Unit(stripe, j)
		if !st.lost(u) {
			continue
		}
		if len(list) == 2 {
			s.pqFree(list)
			return nil, fmt.Errorf("%w: three lost units in stripe %d", ErrUnrecoverable, stripe)
		}
		e := pqErasure{j: j, loc: u}
		if u == want {
			e.out = wantOut
		} else {
			e.buf = s.getBuf()
			e.out = (*e.buf)[:s.unitSize]
		}
		list = append(list, e)
	}
	return list, nil
}

// pqSolveOnce reads the stripe's units outside the erased set — only the
// ones the erasure pattern needs — and computes each erased position's
// contents into its out buffer. Reads are plain (no healing): a damaged
// unit returns *pqDamagedError for the caller to absorb or escalate, and
// a lost unit outside the erased set returns *lostUnitError. Caller holds
// at least the stripe's read lock.
func (s *Store) pqSolveOnce(st *diskState, stripe int64, list []pqErasure) error {
	g := s.lay.G()
	k := g - 2
	pPos := layout.ParityPosOf(s.lay, stripe, 0)
	qPos := layout.ParityPosOf(s.lay, stripe, 1)

	// Classify the erasures: data ordinals (ascending), P, Q.
	eData := [2]int{-1, -1}
	var eDataOut [2][]byte
	nd := 0
	eP, eQ := false, false
	var pOut, qOut []byte
	for i := range list {
		switch list[i].j {
		case pPos:
			eP, pOut = true, list[i].out
		case qPos:
			eQ, qOut = true, list[i].out
		default:
			d := layout.DataOrdinal(s.lay, stripe, list[i].j)
			eData[nd], eDataOut[nd] = d, list[i].out
			nd++
		}
	}
	if nd == 2 && eData[0] > eData[1] {
		eData[0], eData[1] = eData[1], eData[0]
		eDataOut[0], eDataOut[1] = eDataOut[1], eDataOut[0]
	}

	// Which parities the decode needs: one erased data unit solves through
	// P when P survives (the cheap XOR path) and through Q otherwise; two
	// erased data units need both.
	needP := !eP && nd >= 1
	needQ := !eQ && (nd == 2 || (nd == 1 && eP))
	useQ := eQ || needQ

	accP := s.getBuf()
	accQ := s.getBuf()
	defer s.putBuf(accP)
	defer s.putBuf(accQ)
	px := (*accP)[:s.unitSize]
	qx := (*accQ)[:s.unitSize]
	zeroBytes(px)
	zeroBytes(qx)

	// Gather every read the erasure pattern needs, as one batch: the
	// surviving data units into both sums (px ⊕= d, qx ⊕= g^d·d), plus
	// whichever parities the decode uses, each into the sum it closes — so
	// what the gather leaves in px and qx is already the surviving data's
	// difference from the stored P and Q, the erased units' own share.
	sc := s.scratch.Get().(*stripeScratch)
	defer s.scratch.Put(sc)
	terms := sc.terms[:0]
	for d := 0; d < k; d++ {
		if d == eData[0] || d == eData[1] {
			continue
		}
		t := term{loc: s.lay.Unit(stripe, layout.DataPos(s.lay, stripe, d)), p: px}
		if useQ {
			t.coef = gf256.Exp(d)
		}
		terms = append(terms, t)
	}
	if needP {
		terms = append(terms, term{loc: s.lay.Unit(stripe, pPos), p: px})
	}
	if needQ {
		terms = append(terms, term{loc: s.lay.Unit(stripe, qPos), p: qx})
	}
	damaged, err := s.gather(st, terms, qx)
	if err != nil {
		return err
	}
	if len(damaged) > 0 {
		// The lowest item, so absorb-and-retry callers heal the same unit
		// whatever order the reads completed in.
		d := damaged[0]
		_, j := s.lay.Locate(d.loc)
		return &pqDamagedError{j: j, loc: d.loc, cause: d.err}
	}

	switch nd {
	case 0:
		// Only parity erased: recompute from data.
		if eP {
			copy(pOut, px)
		}
		if eQ {
			copy(qOut, qx)
		}
	case 1:
		x, dx := eData[0], eDataOut[0]
		if !eP {
			// Through P: d_x = P ⊕ (XOR of the other data units).
			copy(dx, px)
		} else {
			// P erased too — through Q: d_x = g^(−x)·(Q ⊕ Σ_{d≠x} g^d·d_d).
			gf256.MulSlice(dx, qx, gf256.Exp(-x))
			// And P from the now-complete data.
			copy(pOut, px)
			xorInto(pOut, dx)
		}
		if eQ {
			copy(qOut, qx)
			gf256.MulAddSlice(qOut, dx, gf256.Exp(x))
		}
	case 2:
		// Two erased data units x < y: with every surviving data unit's
		// contribution removed, px = Pxy = d_x ⊕ d_y and qx = Qxy =
		// g^x·d_x ⊕ g^y·d_y; gf256.TwoErasureCoeffs gives
		// d_y = a·Pxy ⊕ b·Qxy, d_x = d_y ⊕ Pxy.
		x, y := eData[0], eData[1]
		a, b := gf256.TwoErasureCoeffs(x, y)
		dx, dy := eDataOut[0], eDataOut[1]
		gf256.MulSlice(dy, px, a)
		gf256.MulAddSlice(dy, qx, b)
		copy(dx, dy)
		xorInto(dx, px)
	}
	return nil
}

// pqReconstructLocked is reconstructLocked's P+Q arm: loc (lost) is
// decoded from the stripe's survivors under at least the read lock.
// Damaged survivors are reported (needsHeal), not repaired.
func (s *Store) pqReconstructLocked(st *diskState, loc layout.Loc, dst []byte) error {
	stripe, _ := s.lay.Locate(loc)
	list, err := s.pqLostErasures(st, stripe, loc, dst)
	if err != nil {
		return err
	}
	defer s.pqFree(list)
	if err := s.pqSolveOnce(st, stripe, list); err != nil {
		var dmg *pqDamagedError
		if errors.As(err, &dmg) {
			return dmg.cause // escalates to healRead, which may absorb it
		}
		var le *lostUnitError
		if errors.As(err, &le) {
			return fmt.Errorf("%w: three lost units in one stripe (%v, %v)", ErrUnrecoverable, loc, le.u)
		}
		return err
	}
	return nil
}

// pqRecoverInto computes unit u's contents from the rest of its stripe
// under the stripe's WRITE lock: u and every lost unit of the stripe are
// erased, and one more damaged unit discovered along the way is absorbed
// as a second erasure — healed in place — when the budget allows. It is
// the P+Q counterpart of xorOthersInto (heals where that one gives up).
func (s *Store) pqRecoverInto(st *diskState, u layout.Loc, out []byte) error {
	stripe, uj := s.lay.Locate(u)
	list, err := s.pqLostErasures(st, stripe, u, out)
	if err != nil {
		return err
	}
	defer func() { s.pqFree(list) }()
	if !st.lost(u) {
		// u is damaged in place (a healing read), not lost: erase it too.
		// Its slot still serves it, so the caller rewrites it after this
		// returns — no heal flag here.
		if len(list) == 2 {
			return fmt.Errorf("%w: %v is damaged and units %v, %v are lost",
				ErrUnrecoverable, u, list[0].loc, list[1].loc)
		}
		list = append(list, pqErasure{j: uj, loc: u, out: out})
	}
	for {
		err := s.pqSolveOnce(st, stripe, list)
		if err == nil {
			break
		}
		var dmg *pqDamagedError
		if errors.As(err, &dmg) {
			if len(list) >= 2 {
				return fmt.Errorf("%w: %v and %v are both unreadable: %v",
					ErrUnrecoverable, list[0].loc, dmg.loc, dmg.cause)
			}
			// Budget left: absorb the damaged unit as a second erasure and
			// re-solve; its reconstructed contents heal it in place below.
			s.countHeal(dmg.cause)
			s.scoreDiskError(dmg.loc.Disk)
			buf := s.getBuf()
			list = append(list, pqErasure{
				j: dmg.j, loc: dmg.loc,
				out: (*buf)[:s.unitSize], buf: buf,
				heal: true,
			})
			continue
		}
		var le *lostUnitError
		if errors.As(err, &le) {
			return fmt.Errorf("%w: %v is unreadable and %v is lost", ErrUnrecoverable, u, le.u)
		}
		return err
	}
	for i := range list {
		if !list[i].heal {
			continue
		}
		e := &list[i]
		if werr := s.writeDataUnit(st.disk(e.loc), e.loc.Disk, e.loc.Offset, e.out); werr == nil {
			s.healedUnits.Add(1)
		} else {
			s.scoreDiskError(e.loc.Disk)
		}
	}
	return nil
}

// commitStripePQ is commitStripeLocked's P+Q arm: commit new contents for
// one or more data units of a stripe, maintaining both parity equations,
// in the same two rounds. Caller holds the stripe's write lock and the
// region's intent mark.
//
// The write paths mirror the single-parity engine, one parity heavier:
//
//   - large write (all data units): P and Q computed fresh, no pre-reads;
//   - every written unit readable: delta RMW — gather old data and old
//     parities, fold old⊕new into P and g^d·(old⊕new) into Q (the
//     six-access small write: read D,P,Q, then write D,P,Q);
//   - a written unit lost: fold forward — every data unit's new value
//     (written new, surviving read, lost-unwritten decoded from the old
//     parities) rebuilds P and Q from scratch;
//   - a lost parity unit is simply not written (its rebuild recomputes
//     it); with both parities lost the data writes go through alone.
func (s *Store) commitStripePQ(st *diskState, stripe int64, sc *stripeScratch) error {
	k := s.lay.G() - 2
	pLoc := layout.ParityLocOf(s.lay, stripe, 0)
	qLoc := layout.ParityLocOf(s.lay, stripe, 1)
	pLost := st.lost(pLoc)
	qLost := st.lost(qLoc)
	if pLost && qLost {
		// Both parities lost: the two failures are this stripe's P and Q
		// disks, so every data unit is live — plain data writes (§7), and
		// the rebuilds recompute both parities.
		return s.commitWrites(st, sc)
	}

	pBuf := s.getBuf()
	qBuf := s.getBuf()
	defer s.putBuf(pBuf)
	defer s.putBuf(qBuf)
	pData := (*pBuf)[:s.unitSize]
	qData := (*qBuf)[:s.unitSize]
	zeroBytes(pData)
	zeroBytes(qData)
	var pSum []byte // nil with P lost: nothing folds into it
	if !pLost {
		pSum = pData
	}

	// One pass over the stripe's data ordinals: how each unit folds into
	// the new parities. Written units are kept by their index in sc.locs,
	// unwritten ones — live and lost apart — for a fold-forward.
	wr, rest := sc.terms[:len(sc.locs)], sc.rest[:0]
	var lostRest [2]term
	nLostRest := 0
	writtenLost := false
	for d := 0; d < k; d++ {
		t := term{loc: s.lay.Unit(stripe, layout.DataPos(s.lay, stripe, d)), p: pSum}
		if !qLost {
			t.coef = gf256.Exp(d)
		}
		i := indexLoc(sc.locs, t.loc)
		switch lost := st.lost(t.loc); {
		case i >= 0:
			wr[i] = t
			writtenLost = writtenLost || lost
		case lost:
			lostRest[nLostRest] = t
			nLostRest++
		default:
			rest = append(rest, t)
		}
	}

	// First round. Both sums are order-independent, so whatever they need
	// from the disks folds in as the reads land; what each written unit
	// contributes — its new contents, or under a delta new ⊕ old — folds
	// in after, once per unit.
	var need []term
	delta := sc.delta[:0]
	switch {
	case len(sc.locs) == k:
		// Large-write optimization: parity from the new contents alone.
	case !writtenLost:
		// Delta read-modify-write: every written unit's old contents are
		// readable, so P' = P ⊕ Σ(old⊕new) and Q' = Q ⊕ Σ g^d·(old⊕new).
		// Each old unit gathers into a buffer holding its new contents,
		// the old parities into the sums. Lost unwritten units don't
		// disturb the deltas.
		need = rest[:0]
		for i, loc := range sc.locs {
			b := s.getBuf()
			delta = append(delta, b)
			copy(*b, sc.datas[i])
			need = append(need, term{loc: loc, p: (*b)[:s.unitSize]})
		}
		if !pLost {
			need = append(need, term{loc: pLoc, p: pData})
		}
		if !qLost {
			need = append(need, term{loc: qLoc, p: qData})
		}
	default:
		// A lost unit is being written: its old contents are unreadable,
		// so fold forward — rebuild P and Q from every data unit's new
		// value. Unwritten survivors are gathered; a lost unwritten unit
		// contributes its decoded old value (the old parities still encode
		// it), before the gather — decoding may heal, and a heal rewrites.
		lBuf := s.getBuf()
		lData := (*lBuf)[:s.unitSize]
		for _, t := range lostRest[:nLostRest] {
			if err := s.pqRecoverInto(st, t.loc, lData); err != nil {
				s.putBuf(lBuf)
				return err
			}
			t.foldInto(qData, lData)
		}
		s.putBuf(lBuf)
		need = rest
	}
	err := s.gatherHealing(st, need, qData)
	if err == nil {
		for i, t := range wr {
			contrib := sc.datas[i]
			if len(delta) > 0 {
				contrib = (*delta[i])[:s.unitSize]
			}
			t.foldInto(qData, contrib)
		}
	}
	for _, b := range delta {
		s.putBuf(b)
	}
	if err != nil {
		return err
	}

	// Commit: data writes (redirected to a replacement or folded when
	// lost) and the surviving parities, one batch.
	if !pLost {
		sc.par = append(sc.par, parityWrite{loc: pLoc, phys: *pBuf})
	}
	if !qLost {
		sc.par = append(sc.par, parityWrite{loc: qLoc, phys: *qBuf})
	}
	return s.commitWrites(st, sc)
}

// checkParityPQ verifies both parity equations of every stripe at
// quiesce: XOR over data ⊕ P is zero, and Σ g^d·data_d ⊕ Q is zero.
// Stripes with a lost unit are skipped, as in the single-parity check.
func (s *Store) checkParityPQ() error {
	g := s.lay.G()
	return s.fanOut(int(s.numStripes), func(i int) error {
		stripe := int64(i)
		pPos := layout.ParityPosOf(s.lay, stripe, 0)
		qPos := layout.ParityPosOf(s.lay, stripe, 1)
		buf := s.getBuf()
		accP := s.getBuf()
		accQ := s.getBuf()
		defer s.putBuf(buf)
		defer s.putBuf(accP)
		defer s.putBuf(accQ)
		px := (*accP)[:s.unitSize]
		qx := (*accQ)[:s.unitSize]
		zeroBytes(px)
		zeroBytes(qx)
		data := (*buf)[:s.unitSize]
		s.locks.rlock(stripe)
		defer s.locks.runlock(stripe)
		st := s.st.Load()
		for j := 0; j < g; j++ {
			u := s.lay.Unit(stripe, j)
			if st.lost(u) {
				return nil // skipped: degraded reads exercise its consistency
			}
			if err := s.readPhys(st.disk(u), u.Disk, u.Offset, *buf); err != nil {
				return fmt.Errorf("store: stripe %d: %w", stripe, err)
			}
			switch j {
			case pPos:
				xorInto(px, data)
			case qPos:
				xorInto(qx, data)
			default:
				d := layout.DataOrdinal(s.lay, stripe, j)
				xorInto(px, data)
				gf256.MulAddSlice(qx, data, gf256.Exp(d))
			}
		}
		for _, b := range px {
			if b != 0 {
				return fmt.Errorf("store: stripe %d P parity inconsistent", stripe)
			}
		}
		for _, b := range qx {
			if b != 0 {
				return fmt.Errorf("store: stripe %d Q parity inconsistent", stripe)
			}
		}
		return nil
	})
}

// resyncStripePQ is resyncStripe's P+Q arm: verify one stripe's checksums
// and both parity equations, repairing up to two damaged units from the
// survivors, or rewriting whichever parity fails its equation (the
// lost-write signature). No unit of the stripe may be lost.
func (s *Store) resyncStripePQ(st *diskState, stripe int64) (stripeFix, error) {
	g := s.lay.G()
	pPos := layout.ParityPosOf(s.lay, stripe, 0)
	qPos := layout.ParityPosOf(s.lay, stripe, 1)

	phys := s.getBuf()
	accP := s.getBuf()
	accQ := s.getBuf()
	pU := s.getBuf()
	qU := s.getBuf()
	defer s.putBuf(phys)
	defer s.putBuf(accP)
	defer s.putBuf(accQ)
	defer s.putBuf(pU)
	defer s.putBuf(qU)
	px := (*accP)[:s.unitSize]
	qx := (*accQ)[:s.unitSize]
	zeroBytes(px)
	zeroBytes(qx)
	data := (*phys)[:s.unitSize]

	var bad []pqErasure
	var badCause error
	defer func() { s.pqFree(bad) }()
	for j := 0; j < g; j++ {
		u := s.lay.Unit(stripe, j)
		err := s.readPhys(st.disk(u), u.Disk, u.Offset, *phys)
		if err == nil {
			switch j {
			case pPos:
				copy((*pU)[:s.unitSize], data)
			case qPos:
				copy((*qU)[:s.unitSize], data)
			default:
				xorInto(px, data)
				gf256.MulAddSlice(qx, data, gf256.Exp(layout.DataOrdinal(s.lay, stripe, j)))
			}
			continue
		}
		if !needsHeal(err) {
			return fixNone, err
		}
		if len(bad) == 2 {
			return fixNone, fmt.Errorf("%w: stripe %d units %v, %v and %v all damaged: %v",
				ErrUnrecoverable, stripe, bad[0].loc, bad[1].loc, u, err)
		}
		buf := s.getBuf()
		bad = append(bad, pqErasure{j: j, loc: u, out: (*buf)[:s.unitSize], buf: buf, heal: true})
		if badCause == nil {
			badCause = err
		}
	}

	if len(bad) > 0 {
		// Solve the damaged units from the clean remainder and rewrite
		// them. pqSolveOnce re-reads the survivors; a unit failing now
		// that read cleanly above counts as a third erasure — give up.
		if err := s.pqSolveOnce(st, stripe, bad); err != nil {
			var dmg *pqDamagedError
			if errors.As(err, &dmg) {
				return fixNone, fmt.Errorf("%w: stripe %d: %v also damaged: %v",
					ErrUnrecoverable, stripe, dmg.loc, dmg.cause)
			}
			return fixNone, err
		}
		for i := range bad {
			e := &bad[i]
			s.countHeal(badCause)
			s.scoreDiskError(e.loc.Disk)
			if err := s.writeDataUnit(st.disk(e.loc), e.loc.Disk, e.loc.Offset, e.out); err != nil {
				return fixNone, fmt.Errorf("store: rewriting damaged unit %v: %w", e.loc, err)
			}
			s.healedUnits.Add(1)
		}
		return fixUnit, nil
	}

	// All units individually valid: both equations must balance; a side
	// that does not gets its parity recomputed from data (trusting data
	// over parity, as the single-parity resync does).
	fix := fixNone
	if !bytesEqual(px, (*pU)[:s.unitSize]) {
		u := s.lay.Unit(stripe, pPos)
		copy((*accP)[:s.unitSize], px)
		if err := s.writeStamped(st.disk(u), u.Disk, u.Offset, *accP); err != nil {
			return fixNone, fmt.Errorf("store: rewriting parity %v: %w", u, err)
		}
		fix = fixParity
	}
	if !bytesEqual(qx, (*qU)[:s.unitSize]) {
		u := s.lay.Unit(stripe, qPos)
		copy((*accQ)[:s.unitSize], qx)
		if err := s.writeStamped(st.disk(u), u.Disk, u.Offset, *accQ); err != nil {
			return fixNone, fmt.Errorf("store: rewriting parity %v: %w", u, err)
		}
		fix = fixParity
	}
	return fix, nil
}

// bytesEqual reports a == b for equal-length slices.
func bytesEqual(a, b []byte) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
