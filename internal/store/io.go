package store

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"time"

	"declust/internal/gf256"
	"declust/internal/layout"
)

// This file is the engine's only doorway to Disk backends. Every access
// goes through it so one place implements the robustness discipline:
//
//   - transient errors (ErrTransient) are retried with exponential
//     backoff, a fresh attempt drawing a fresh outcome;
//   - every read verifies the unit's checksum trailer; every write stamps
//     one — corruption can be detected, never returned;
//   - persistent failures (exhausted retries, unknown errors, confirmed
//     media/checksum damage) score against the disk, and a disk crossing
//     Config.FailThreshold is taken out of service with Fail instead of
//     being allowed to keep serving garbage;
//   - damaged units are healed where the lock held permits it: under a
//     stripe's write lock the engine reconstructs the unit from the
//     stripe's survivors and rewrites it in place.

// needsHeal reports whether a read error means the unit's content is
// damaged but potentially reconstructable (media error or checksum
// mismatch), as opposed to failed (transient storm, engine bug).
func needsHeal(err error) bool {
	if err == nil {
		return false // before bs, which escapes: a clean read allocates nothing
	}
	var bs *badSumError
	return errors.Is(err, ErrMedia) || errors.As(err, &bs)
}

// retryBackoff is the sleep before a transient error's first retry,
// doubling each attempt. It is fixed at New; tests lower it before New to
// keep fault-heavy runs short.
var retryBackoff = 500 * time.Microsecond

// retryDelay returns the backoff before retry attempt n (0-based).
func (s *Store) retryDelay(n int) time.Duration {
	return s.retryBackoff << uint(n)
}

// scoreDiskError charges one persistent-error point against disk dn and
// auto-fails it once the threshold is crossed. Failing is best-effort: a
// store that is already degraded cannot lose a second disk, so the error
// keeps surfacing to callers instead.
func (s *Store) scoreDiskError(dn int) {
	if dn < 0 || dn >= len(s.diskErrs) {
		return
	}
	score := s.diskErrs[dn].Add(1)
	if s.failThreshold <= 0 || score < int64(s.failThreshold) {
		return
	}
	if err := s.Fail(dn); err == nil {
		s.autoFails.Add(1)
	}
}

// DiskErrors returns the cumulative persistent-error score per disk slot
// (the counter FailThreshold compares against).
func (s *Store) DiskErrors() []int64 {
	out := make([]int64, len(s.diskErrs))
	for i := range s.diskErrs {
		out[i] = s.diskErrs[i].Load()
	}
	return out
}

// readPhys reads physical unit off of disk dn (backend d) into phys,
// verifies its trailer and returns the data's crc32c that verification
// computed. Transient errors retry with backoff; a checksum mismatch
// re-reads up to the same retry budget (transfer corruption clears on a
// fresh transfer, medium rot never does). The error is a *badSumError or
// wraps ErrMedia when the unit needs healing.
func (s *Store) readPhys(d Disk, dn int, off int64, phys []byte) (uint32, error) {
	var err error
	for attempt := 0; ; attempt++ {
		t := s.gate.begin()
		err = d.ReadUnit(off, phys)
		s.gate.end(t)
		if err == nil {
			if sum, ok := verifyTrailer(phys, s.unitSize, off); ok {
				return sum, nil
			}
			err = &badSumError{disk: dn, off: off}
			if attempt < s.retries {
				continue
			}
			return 0, err
		}
		if errors.Is(err, ErrMedia) {
			s.mediaErrs.Add(1)
			return 0, err
		}
		if !errors.Is(err, ErrTransient) {
			if !errors.Is(err, ErrDiskFailed) {
				s.scoreDiskError(dn)
			}
			return 0, err
		}
		if attempt >= s.retries {
			s.scoreDiskError(dn)
			return 0, fmt.Errorf("store: disk %d unit %d: retries exhausted: %w", dn, off, err)
		}
		s.retriesDone.Add(1)
		time.Sleep(s.retryDelay(attempt))
	}
}

// writePhysRaw writes an already-stamped physical unit, retrying every
// error: a full-unit rewrite is idempotent, so even a non-transient
// failure is worth one more attempt before charging the disk.
func (s *Store) writePhysRaw(d Disk, dn int, off int64, phys []byte) error {
	var err error
	for attempt := 0; ; attempt++ {
		t := s.gate.begin()
		err = d.WriteUnit(off, phys)
		s.gate.end(t)
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrDiskFailed) {
			return err // engine bug signal, not a device fault — never retried
		}
		if attempt >= s.retries {
			s.scoreDiskError(dn)
			return fmt.Errorf("store: disk %d unit %d: write retries exhausted: %w", dn, off, err)
		}
		s.retriesDone.Add(1)
		time.Sleep(s.retryDelay(attempt))
	}
}

// writeDataUnit copies data (one logical unit), whose crc32c is sum, into
// a pooled physical buffer, stamps it and writes it to disk dn at off.
func (s *Store) writeDataUnit(d Disk, dn int, off int64, data []byte, sum uint32) error {
	phys := s.getBuf()
	defer s.putBuf(phys)
	copy((*phys)[:s.unitSize], data)
	putTrailer(*phys, s.unitSize, off, sum)
	return s.writePhysRaw(d, dn, off, *phys)
}

// writeStamped stamps the trailer onto phys (whose first unitSize bytes
// are the data) in place and writes it — the zero-copy variant for
// engine-owned buffers.
func (s *Store) writeStamped(d Disk, dn int, off int64, phys []byte) error {
	stampTrailer(phys, s.unitSize, off)
	return s.writePhysRaw(d, dn, off, phys)
}

// term is one unit of a gather and where its contents go: XORed into p
// (when non-nil) and, multiplied by coef (when nonzero), into the gather's
// shared accumulator q. A data unit d folds as (the P sum, g^d) — no
// coefficient when no Q sum is being kept — and the stored P and Q units
// XOR into the sums they close, which turns a sum over data into that
// sum's difference from the stored parity, exactly what the delta update,
// the erasure decode and the verify pass want (code.go).
//
// Three fields serve the delta update alone. A stored parity is read in
// place — into in, the physical buffer backing the sum it starts, which is
// written back from — so starting the sum is no pass at all; such a term
// must be the first in its list to reach its sum, and in must be a pooled
// buffer, never a caller's. A written unit's term carries new, the unit's
// new contents, and newSum, their crc32c: its fold XORs them into the
// buffer its old contents were read into and folds the difference once.
type term struct {
	loc    layout.Loc
	pos    int // loc's position in its stripe: where the hold's record keeps it
	p      []byte
	coef   byte
	in     []byte // read into this physical buffer, not the gather's own
	new    []byte // the unit's new contents: fold old ⊕ new
	newSum uint32 // crc32c of new
}

// sums is the at most two parity sums a gather folds into — p is nil for a
// P sum nobody keeps, q for a Q sum — and which of them no term has reached
// yet. The buffers come from the pool holding whatever their last user
// left, and nobody clears them: the first term to reach a sum stores over
// it (start) and only the later ones accumulate, so a sum of n terms costs
// n−1 passes that read it back, not a clear and n. A parity update's lives
// on the stripe's scratch, a solve's on its stack, and gather folds into it
// once its batch is over, in list order: the term that stores is the list's
// first, however the reads were issued.
//
// Beside P's bytes it keeps their crc32c, derived rather than computed
// (xorSum): crc is the XOR of the crc32c of every unit folded into p, n
// how many there were. A unit's comes from the read that verified it, or
// for new contents from the one computation that also stamps them; a
// healed or decoded unit has none, and once one is folded n is −1 and P
// is stamped by computing.
type sums struct {
	p, q           []byte
	pStart, qStart bool // no term has reached the sum: its bytes are still the pool's
	crc            uint32
	n              int
}

// startSums is the state of px and qx (either may be nil) before any term
// has reached them.
func startSums(px, qx []byte) sums {
	return sums{p: px, q: qx, pStart: px != nil, qStart: qx != nil}
}

// settle clears a sum no term reached — every unit that folds into it is
// erased or damaged — which is therefore the empty sum, zero. It is the
// only clear a sum ever gets; call it before reading the sums of a gather
// that may have left units out.
func (sm *sums) settle() {
	if sm.pStart {
		zeroBytes(sm.p)
	}
	if sm.qStart {
		zeroBytes(sm.q)
	}
	sm.pStart, sm.qStart = false, false
}

// pSum returns the crc32c of the P sum derived from its units' (zero is the
// zero unit's), and false when one of them had none to give.
func (sm *sums) pSum(zero uint32) (uint32, bool) {
	if sm.n < 0 {
		return 0, false
	}
	return xorSum(sm.crc, sm.n, zero), true
}

// forgetSum marks the P sum's crc32c unknown: a healed or decoded unit,
// whose crc32c no read verified, has been folded in.
func (sm *sums) forgetSum() { sm.n = -1 }

// foldInto folds data, the contents of t's unit, into t's accumulators, and
// sum, data's crc32c, into the P sum's when t reaches it. A written unit's
// term (new set) first turns data into old ⊕ new, in place.
func (t term) foldInto(sm *sums, data []byte, sum uint32) {
	if t.p != nil && sm.n >= 0 && sm.p != nil && sameBuf(t.p, sm.p) {
		sm.crc ^= sum
		sm.n++
		if t.new != nil {
			sm.crc ^= t.newSum
			sm.n++
		}
	}
	if t.new != nil {
		subtle.XORBytes(data, data, t.new)
	}
	if sm.pStart || sm.qStart {
		t.start(sm, data)
	} else {
		t.accumulate(sm.q, data)
	}
}

// accumulate is foldInto once both sums are under way — every term after
// each sum's first. It is a function apart from start because it is the
// common case: it takes neither the sums' start flags nor a buffer
// comparison, only the term and the Q sum.
func (t term) accumulate(q, data []byte) {
	switch {
	case t.p != nil && t.coef != 0:
		// Both sums in one pass: data is read once, not twice.
		gf256.XorMulAddSlice(t.p, q, data, t.coef)
	case t.p != nil:
		subtle.XORBytes(t.p, t.p, data)
	case t.coef != 0:
		gf256.MulAddSlice(q, data, t.coef)
	}
}

// start is foldInto while a sum still waits for its first term: each half
// of t stores if it is the first to reach its sum, and accumulates if not.
func (t term) start(sm *sums, data []byte) {
	if t.p != nil {
		switch {
		case sm.pStart && sameBuf(t.p, sm.p):
			sm.pStart = false
			store(t.p, data)
		case sm.qStart && sameBuf(t.p, sm.q): // the stored Q, closing the Q sum
			sm.qStart = false
			store(t.p, data)
		default:
			subtle.XORBytes(t.p, t.p, data)
		}
	}
	if t.coef != 0 {
		if sm.qStart {
			sm.qStart = false
			gf256.MulSlice(sm.q, data, t.coef)
		} else {
			gf256.MulAddSlice(sm.q, data, t.coef)
		}
	}
}

// store starts sum with data: a copy, or nothing at all when data was read
// into the sum's own buffer (a stored parity, read in place).
func store(sum, data []byte) {
	if !sameBuf(sum, data) {
		copy(sum, data)
	}
}

// sameBuf reports whether two non-empty slices start at the same byte.
func sameBuf(a, b []byte) bool { return &a[0] == &b[0] }

// gatherJob is what the items of one gather share: item k reads the term
// sc.todo[k] names into its position's unit buffer, or in place (term.in),
// and records it in sc.
type gatherJob struct {
	s     *Store
	st    *diskState
	sc    *stripeScratch
	terms []term
}

// gather reads, as one batch, every listed unit the lock hold does not hold
// yet, and records each in sc: clean with its crc32c, or damaged (needsHeal)
// with its cause. If every term is then held clean or solved, it folds each
// into its term's accumulators in sm — nothing with sm nil, a plain read —
// in list order — so the term that starts a sum is the same whether the
// batch ran inline or overlapped — and returns −1. Otherwise it folds
// nothing and returns the index of a term held damaged, and the held units
// stay as they were read, for the caller to solve the damaged ones from
// (recoverInto) under the write lock, or, under a span read's read lock, to
// serve nothing and run again under the write lock (serveSpan); healing
// rewrites units, which must never race the batch's other reads. A term
// folded over in place — a written unit's old contents turned into old ⊕
// new, a stored parity read into the sum it starts — is held no longer. It
// is the first round of every parity update and every span read
// (readStripeSpan), the whole of every reconstruction, and the store's one
// doorway for reads. A lost unit not held, or a hard read error, aborts it.
// Caller holds (at least) the stripe's read lock.
func (s *Store) gather(st *diskState, sc *stripeScratch, terms []term, sm *sums) (int, error) {
	sc.todo = sc.todo[:0]
	for i := range terms {
		if sc.has[terms[i].pos] == unread {
			sc.todo = append(sc.todo, i)
		}
	}
	err := fanOut(s, len(sc.todo), gatherJob{s, st, sc, terms}, func(j gatherJob, k int) error {
		t := &j.terms[j.sc.todo[k]]
		if j.st.lost(t.loc) {
			return fmt.Errorf("store: unit %v is lost", t.loc)
		}
		buf := t.in
		if buf == nil {
			buf = j.sc.phys[t.pos]
		}
		sum, err := j.s.readPhys(j.st.disk(t.loc), t.loc.Disk, t.loc.Offset, buf)
		if err != nil && !needsHeal(err) {
			return err
		}
		j.sc.record(t.pos, buf, sum, err)
		return nil
	})
	if err != nil {
		return -1, err
	}
	for i := range terms {
		if sc.has[terms[i].pos] == damaged {
			return i, nil
		}
	}
	if sm == nil {
		return -1, nil
	}
	for _, t := range terms {
		if sc.has[t.pos] == solved {
			sm.forgetSum() // no read verified its crc32c
		}
		t.foldInto(sm, sc.at[t.pos][:s.unitSize], sc.crcs[t.pos])
		if t.new != nil || t.in != nil {
			sc.has[t.pos] = unread
		}
	}
	return -1, nil
}

// record notes in the hold's record that position j was read into buf:
// clean, its crc32c sum, or damaged by err.
func (sc *stripeScratch) record(j int, buf []byte, sum uint32, err error) {
	sc.has[j], sc.at[j], sc.crcs[j], sc.errs[j] = clean, buf, sum, err
	if err != nil {
		sc.has[j] = damaged
	}
}

// gatherHealing is gather for a parity update, which holds the stripe's
// WRITE lock and writes sc.locs: when the batch finds units damaged,
// recoverInto solves them under that same lock from what the batch read —
// reading only the sources it lacks — and rewrites them, and the terms are
// folded once all are held, the healed ones from where they were solved. A
// healed unit's crc32c is not known, so P is then stamped by computing. A
// listed unit that is lost must be held solved.
func (s *Store) gatherHealing(st *diskState, sc *stripeScratch, terms []term) error {
	i, err := s.gather(st, sc, terms, &sc.sums)
	if err != nil || i < 0 {
		return err
	}
	if err := s.recoverInto(st, sc, terms[i].loc, nil, sc.locs); err != nil {
		return err
	}
	_, err = s.gather(st, sc, terms, &sc.sums) // every term is held: nothing is read
	return err
}

// healUnit rewrites damaged unit u with its reconstructed contents (heals a
// latent sector error, replaces rotted bytes) — the only rewrite a healed
// unit gets. A failed rewrite is charged to the disk once, by writePhysRaw.
func (s *Store) healUnit(st *diskState, u layout.Loc, data []byte) error {
	err := s.writeDataUnit(st.disk(u), u.Disk, u.Offset, data, dataSum(data))
	if err == nil {
		s.healedUnits.Add(1)
	}
	return err
}
