package store

import (
	"errors"
	"fmt"
	"sort"
	"sync"
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

// readPhys reads physical unit off of disk dn (backend d) into phys and
// verifies its trailer. Transient errors retry with backoff; a checksum
// mismatch re-reads up to the same retry budget (transfer corruption
// clears on a fresh transfer, medium rot never does). The error is a
// *badSumError or wraps ErrMedia when the unit needs healing.
func (s *Store) readPhys(d Disk, dn int, off int64, phys []byte) error {
	var err error
	for attempt := 0; ; attempt++ {
		t := s.gate.begin()
		err = d.ReadUnit(off, phys)
		s.gate.end(t)
		if err == nil {
			if verifyTrailer(phys, s.unitSize, off) {
				return nil
			}
			err = &badSumError{disk: dn, off: off}
			if attempt < s.retries {
				continue
			}
			return err
		}
		if errors.Is(err, ErrMedia) {
			s.mediaErrs.Add(1)
			return err
		}
		if !errors.Is(err, ErrTransient) {
			if !errors.Is(err, ErrDiskFailed) {
				s.scoreDiskError(dn)
			}
			return err
		}
		if attempt >= s.retries {
			s.scoreDiskError(dn)
			return fmt.Errorf("store: disk %d unit %d: retries exhausted: %w", dn, off, err)
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

// writeDataUnit stamps data (one logical unit) into a pooled physical
// buffer and writes it to disk dn at off.
func (s *Store) writeDataUnit(d Disk, dn int, off int64, data []byte) error {
	phys := s.getBuf()
	defer s.putBuf(phys)
	copy((*phys)[:s.unitSize], data)
	stampTrailer(*phys, s.unitSize, off)
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
type term struct {
	loc  layout.Loc
	p    []byte
	coef byte
}

// sums is the at most two parity sums a gather folds into — p is nil for a
// P sum nobody keeps, q for a Q sum — and which of them no term has reached
// yet. The buffers come from the pool holding whatever their last user
// left, and nobody clears them: the first term to reach a sum stores over
// it (start) and only the later ones accumulate, so a sum of n terms costs
// n−1 passes that read it back, not a clear and n. It lives on the
// stripe's scratch; an overlapped gather reads and writes it under the
// mutex it folds under, so which term arrives first decides only which one
// stores — the sum is the same bytes.
type sums struct {
	p, q           []byte
	pStart, qStart bool // no term has reached the sum: its bytes are still the pool's
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

// foldInto folds data, the contents of t's unit, into t's accumulators.
func (t term) foldInto(sm *sums, data []byte) {
	if sm.pStart || sm.qStart {
		t.start(sm, data)
	} else {
		t.accumulate(sm.q, data)
	}
}

// accumulate is foldInto once both sums are under way — all that the
// coefficient-free commit, which never has a sum waiting, ever runs. It is
// a function apart from the choice above and from start because its XOR
// loop is a quarter of a small write: compiled together with either, the
// loop lands differently (padding inside it) and that write ran 3–5 %
// slower.
func (t term) accumulate(q, data []byte) {
	switch {
	case t.p != nil && t.coef != 0:
		// Both sums in one pass: data is read once, not twice.
		gf256.XorMulAddSlice(t.p, q, data, t.coef)
	case t.p != nil:
		xorInto(t.p, data)
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
			copy(t.p, data)
		case sm.qStart && sameBuf(t.p, sm.q): // the stored Q, closing the Q sum
			sm.qStart = false
			copy(t.p, data)
		default:
			xorInto(t.p, data)
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

// sameBuf reports whether two non-empty slices start at the same byte.
func sameBuf(a, b []byte) bool { return &a[0] == &b[0] }

// damagedUnit records a unit a gather found damaged (media error or
// checksum mismatch), in ascending item order.
type damagedUnit struct {
	idx int
	loc layout.Loc
	err error
}

// readLive reads unit u, which must not be lost, into phys.
func (s *Store) readLive(st *diskState, u layout.Loc, phys []byte) error {
	if st.lost(u) {
		return fmt.Errorf("store: unit %v is lost", u)
	}
	return s.readPhys(st.disk(u), u.Disk, u.Offset, phys)
}

// gather reads every listed unit and folds its data into its term's
// accumulators (sm says which sums still wait for their first term — the
// sums are order-independent, so the result is bit-identical however the
// reads land). It is the first round of every parity update and the whole
// of every reconstruction, and it overlaps its reads when the gate says
// they are worth overlapping. A lost unit or a hard read error aborts it;
// damaged units (needsHeal) are skipped and returned sorted by item index
// so callers holding the stripe's write lock can heal them serially —
// healing rewrites units, which must never race the batch's other reads.
// Caller holds (at least) the stripe's read lock.
func (s *Store) gather(st *diskState, terms []term, sm *sums) ([]damagedUnit, error) {
	if len(terms) == 0 {
		return nil, nil // a large write's first round: no buffer to take
	}
	if !s.overlap(len(terms)) {
		// Inline: read in index order through one buffer, building no
		// closure — the serial engine's zero-extra-alloc path.
		var damaged []damagedUnit
		phys := s.getBuf()
		defer s.putBuf(phys)
		for i, t := range terms {
			if err := s.readLive(st, t.loc, *phys); err == nil {
				t.foldInto(sm, (*phys)[:s.unitSize])
			} else if needsHeal(err) {
				damaged = append(damaged, damagedUnit{idx: i, loc: t.loc, err: err})
			} else {
				return nil, err
			}
		}
		return damaged, nil
	}
	var mu sync.Mutex
	var damaged []damagedUnit
	err := s.fanOut(len(terms), func(i int) error {
		t := terms[i]
		phys := s.getBuf()
		defer s.putBuf(phys)
		err := s.readLive(st, t.loc, *phys)
		if err != nil && !needsHeal(err) {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			damaged = append(damaged, damagedUnit{idx: i, loc: t.loc, err: err})
		} else {
			t.foldInto(sm, (*phys)[:s.unitSize])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(damaged, func(a, b int) bool { return damaged[a].idx < damaged[b].idx })
	return damaged, nil
}

// gatherHealing is gather for callers holding the stripe's WRITE lock:
// units the batch reports damaged are healed in place, serially, once the
// batch's other reads are done, and folded in after all. No listed unit
// may be lost.
func (s *Store) gatherHealing(st *diskState, terms []term, sm *sums) error {
	damaged, err := s.gather(st, terms, sm)
	if err != nil || len(damaged) == 0 {
		return err
	}
	obuf := s.getBuf()
	defer s.putBuf(obuf)
	odata := (*obuf)[:s.unitSize]
	for _, d := range damaged {
		if err := s.readUnitHealing(st, d.loc, odata); err != nil {
			return err
		}
		terms[d.idx].foldInto(sm, odata)
	}
	return nil
}

// countHeal classifies a damaged-unit cause into the stats counters.
func (s *Store) countHeal(cause error) {
	if errors.Is(cause, ErrMedia) {
		// mediaErrs was already counted at detection time in readPhys.
		return
	}
	s.checksumErrs.Add(1)
}

// readUnitHealing reads unit u's data into out (one logical unit) under
// the stripe's WRITE lock, healing damage in place: a media error or
// persistent checksum mismatch triggers reconstruction from the stripe's
// survivors and a rewrite of the damaged unit. u must not be lost.
func (s *Store) readUnitHealing(st *diskState, u layout.Loc, out []byte) error {
	phys := s.getBuf()
	err := s.readPhys(st.disk(u), u.Disk, u.Offset, *phys)
	if err == nil {
		copy(out, (*phys)[:s.unitSize])
		s.putBuf(phys)
		return nil
	}
	s.putBuf(phys)
	if !needsHeal(err) {
		return err
	}
	s.countHeal(err)
	s.scoreDiskError(u.Disk)
	if rerr := s.recoverInto(st, u, out); rerr != nil {
		return rerr
	}
	s.healUnit(st, u, out)
	return nil
}

// healUnit rewrites damaged unit u with its reconstructed contents (heals a
// latent sector error, replaces rotted bytes). A failed rewrite is charged
// to the disk, but the operation that needed the contents has them.
func (s *Store) healUnit(st *diskState, u layout.Loc, data []byte) {
	if err := s.writeDataUnit(st.disk(u), u.Disk, u.Offset, data); err == nil {
		s.healedUnits.Add(1)
	} else {
		s.scoreDiskError(u.Disk)
	}
}
