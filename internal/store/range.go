package store

import (
	"fmt"
	"slices"

	"declust/internal/layout"
)

// checkRange validates a multi-unit request and returns its unit count.
func (s *Store) checkRange(start int64, buf []byte) (int64, error) {
	if len(buf) == 0 || len(buf)%s.unitSize != 0 {
		return 0, fmt.Errorf("store: range buffer of %d bytes is not a positive multiple of the %d-byte unit size",
			len(buf), s.unitSize)
	}
	n := int64(len(buf) / s.unitSize)
	if start < 0 || n > s.dataUnits || start > s.dataUnits-n {
		return 0, fmt.Errorf("store: %d units at %d out of range [0,%d)", n, start, s.dataUnits)
	}
	return n, nil
}

// stripeScratch is the working set of one stripe job, recycled through
// Store.scratch so the unit paths allocate nothing. For a span read or a
// parity update — a range's per-stripe job, or ReadUnit's or WriteUnit's
// one-unit span — that is the span's positions, the stripe's lost ones and
// the plan made of them (layout.PlanStripe); for an update also the units
// written, their new contents and those contents' crc32c, the terms of the
// gather the plan reads, and the parity writes that finish it; a
// verification uses terms and par, a repair (recoverInto) src and eras.
//
// Its G unit buffers, one per stripe position, carry the record of the
// lock hold the job is under: what each position has been read as since
// the hold began — unread, held clean with the crc32c its read verified,
// held solved (decoded or healed, crc32c unknown), or damaged with its
// cause. gather reads only the positions not held yet, so nothing read
// clean under a hold is read again under it, and every repair reuses what
// its operation read. The record is forgotten whenever the job may have
// lost what it held: a scratch comes out of the pool forgotten
// (getScratch), a span read forgets when it trades the read lock for the
// write lock to serve its span again (readStripeSpan), and carryOn before
// it runs an operation again on a stripe it has just rewritten.
type stripeScratch struct {
	pos     []int // the span's positions, in span order
	erased  []int // the stripe's lost positions
	plan    layout.Plan
	locs    []layout.Loc
	datas   [][]byte
	newSums []uint32      // crc32c of each of datas, computed once: stamps the unit, derives P's
	terms   []term        // how written units fold; or the reads of a verify or a heal
	rest    []term        // first round: what the new parities must gather
	src     []term        // a repair's reads: a solve's sources, a loss's data units
	todo    []int         // the terms of a gather not held yet
	par     []parityWrite // the live parity sums: second round, beside locs
	eras    []erasure     // a solve's erased positions
	sums    sums          // the update's P and Q sums, and which still wait for a first term

	phys [][]byte  // position j's unit buffer: a gather reads it here
	has  []holding // what the hold holds of position j
	at   [][]byte  // a held position's contents: phys[j], a term's in, or where it was solved
	errs []error   // a damaged position's cause
	crcs []uint32  // a clean position's crc32c
}

// holding is what the record of a lock hold says of one stripe position.
type holding uint8

const (
	unread  holding = iota
	clean           // read and verified: at[j], crcs[j]
	solved          // decoded or healed under this hold: at[j]
	damaged         // read damaged (media error or checksum mismatch): errs[j]
)

// forget starts the record afresh: every position unread.
func (sc *stripeScratch) forget() { clear(sc.has) }

// getScratch takes a stripe job's scratch from the pool, its record
// forgotten.
func (s *Store) getScratch() *stripeScratch {
	sc := s.scratch.Get().(*stripeScratch)
	sc.forget()
	return sc
}

// newStripeScratch sizes every list for a stripe of g units, m of them
// parity, so a job only ever reslices them, and gives it g physical unit
// buffers of physSize bytes.
func newStripeScratch(g, m, physSize int) *stripeScratch {
	sc := &stripeScratch{
		pos:     make([]int, 0, g),
		erased:  make([]int, 0, g),
		plan:    layout.NewPlan(g),
		locs:    make([]layout.Loc, 0, g),
		datas:   make([][]byte, 0, g),
		newSums: make([]uint32, 0, g),
		terms:   make([]term, 0, g),
		rest:    make([]term, 0, g),
		src:     make([]term, 0, g),
		todo:    make([]int, 0, g),
		par:     make([]parityWrite, 0, m),
		eras:    make([]erasure, 0, g),
		phys:    make([][]byte, g),
		has:     make([]holding, g),
		at:      make([][]byte, g),
		errs:    make([]error, g),
		crcs:    make([]uint32, g),
	}
	// Each buffer starts on a 64-byte boundary, as a pooled one does: folds
	// from buffers that straddle cache lines made a small write ~5 % slower.
	stride := (physSize + 63) &^ 63
	slab := make([]byte, g*stride)
	for i := range sc.phys {
		sc.phys[i] = slab[i*stride : i*stride+physSize : i*stride+physSize]
	}
	return sc
}

// span returns the intersection of stripe's data units with the request
// [start, start+n), as a logical-unit interval [lo, hi).
func (s *Store) span(stripe, start, n int64) (lo, hi int64) {
	return max(stripe*s.dataPerStripe, start), min((stripe+1)*s.dataPerStripe, start+n)
}

// ReadRange reads the logical data units [start, start+len(dst)/UnitSize)
// into dst, taking each stripe's lock once for all of its units; the
// stripes are independent jobs (stripeJobs). Every stripe is read, and
// healed, whatever another met: once all have run, a unit that read as its
// poison block was lost (loseStripe), and the read is ErrUnrecoverable,
// naming the lowest.
func (s *Store) ReadRange(start int64, dst []byte) error {
	n, err := s.stripeJobs(start, dst, (*Store).readStripeSpan)
	if err == nil {
		err = s.checkLost(start, dst)
	}
	if err == nil {
		s.reads.Add(n)
	}
	return err
}

// checkLost returns ErrUnrecoverable naming the lowest data unit, counting
// from start, whose contents in buf are its poison block, or nil.
func (s *Store) checkLost(start int64, buf []byte) error {
	us := s.unitSize
	for i := 0; i < len(buf)/us; i++ {
		if n := start + int64(i); isPoisonBlock(n, buf[i*us:(i+1)*us]) {
			return fmt.Errorf("%w: data unit %d was lost", ErrUnrecoverable, n)
		}
	}
	return nil
}

// rangeJob is what the per-stripe jobs of one range operation share.
type rangeJob struct {
	s        *Store
	start, n int64
	buf      []byte
	job      func(s *Store, stripe, start, lo, hi int64, buf []byte) error
}

// stripeJobs validates a range request over buf and runs job once for each
// stripe it touches, on that stripe's units [lo, hi); it returns the
// request's unit count. The jobs are independent — each takes only its own
// stripe's lock and owns a disjoint window of buf — so they are one batch:
// a multi-stripe range fans out across I/O helpers, the first error (lowest
// stripe) cancelling unstarted jobs.
func (s *Store) stripeJobs(start int64, buf []byte, job func(s *Store, stripe, start, lo, hi int64, buf []byte) error) (int64, error) {
	n, err := s.checkRange(start, buf)
	if err != nil {
		return 0, err
	}
	segs := int((start+n-1)/s.dataPerStripe - start/s.dataPerStripe + 1)
	return n, fanOut(s, segs, rangeJob{s, start, n, buf, job}, func(j rangeJob, i int) error {
		stripe := j.start/j.s.dataPerStripe + int64(i)
		lo, hi := j.s.span(stripe, j.start, j.n)
		return j.job(j.s, stripe, j.start, lo, hi, j.buf)
	})
}

// readStripeSpan reads the units [lo, hi) — all belonging to stripe — into
// dst, whose first byte corresponds to logical unit start. It serves the
// span (serveSpan) under the stripe's read lock; when that pass meets
// damage it serves nothing, and the span is served once more, from the
// start, under the write lock, which may repair: the read lock was
// released in between, so a writer may have rewritten what the first pass
// read, and the record is forgotten. A stripe found past its budget there
// is rewritten (loseStripe), and the read runs again on it (carryOn). A
// lost unit reads as its poison block; the caller checks (checkLost).
// ReadUnit is its one-unit span.
func (s *Store) readStripeSpan(stripe, start, lo, hi int64, dst []byte) error {
	sc := s.getScratch()
	defer s.scratch.Put(sc)
	us := s.unitSize
	dst = dst[int(lo-start)*us : int(hi-start)*us]
	s.spanPositions(sc, stripe, lo, hi)
	s.locks.rlock(stripe)
	served, err := s.serveSpan(sc, stripe, dst, false)
	s.locks.runlock(stripe)
	if served || err != nil {
		return err
	}
	s.locks.lock(stripe)
	defer s.locks.unlock(stripe)
	sc.forget()
	return carryOn(stripe, sc, func() error {
		_, err := s.serveSpan(sc, stripe, dst, true)
		return err
	})
}

// serveSpan is the one body of a span read, run under the stripe's read
// lock or, with locked, its write lock: it plans the span
// (layout.PlanStripe), gathers the plan's reads as one batch, each into the
// scratch's unit buffer of its position — the span's units, or, when the
// span holds a lost unit, the sources of the stripe's erasure set, which
// hold the span's other units — copies out each unit the hold holds, a copy
// the Disk contract forces (a physical unit is its data and trailer,
// contiguous), and solves each it does not (recoverInto). Under the read
// lock a gather that met damage serves nothing and reports the span not
// served, for the write lock to serve: a repair rewrites units, which must
// not race the shared lock's other reads. So recoverInto is reached there
// only when the hold holds no damage, and it solves the lost units from
// what the gather read, reading nothing, healing nothing, losing nothing.
func (s *Store) serveSpan(sc *stripeScratch, stripe int64, dst []byte, locked bool) (bool, error) {
	us := s.unitSize
	st := s.st.Load()
	plan := &sc.plan
	layout.PlanStripe(plan, s.lay, stripe, false, sc.pos, s.lostPositions(st, stripe, sc.pos, sc.erased))
	terms := sc.terms[:0]
	for _, j := range plan.Reads {
		terms = append(terms, term{loc: s.lay.Unit(stripe, j), pos: j})
	}
	damage, err := s.gather(st, sc, terms, nil)
	if err != nil || damage >= 0 && !locked {
		return false, err
	}
	for i, j := range sc.pos {
		out := dst[i*us : (i+1)*us]
		if h := sc.has[j]; h == clean || h == solved {
			copy(out, sc.at[j][:us])
		} else if err := s.recoverInto(st, sc, s.lay.Unit(stripe, j), out, nil); err != nil {
			return false, err
		}
	}
	if n := len(plan.Decode); n > 0 {
		s.degradedReads.Add(int64(n))
	}
	return true, nil
}

// spanPositions fills sc.pos with the positions of the data units [lo, hi)
// of stripe.
func (s *Store) spanPositions(sc *stripeScratch, stripe, lo, hi int64) {
	sc.pos = sc.pos[:0]
	for v := lo; v < hi; v++ {
		sc.pos = append(sc.pos, layout.DataPos(s.lay, stripe, int(v-stripe*s.dataPerStripe)))
	}
}

// lostPositions lists in out the positions of stripe that are lost in st:
// none, with no layout work, while no disk is failed, or while none of span
// is — a read's plan needs the erasure set only when its span holds a lost
// unit; a write's, which asks with span nil, always.
func (s *Store) lostPositions(st *diskState, stripe int64, span, out []int) []int {
	out = out[:0]
	lost := func(j int) bool { return st.lost(s.lay.Unit(stripe, j)) }
	if len(st.fails) == 0 || span != nil && !slices.ContainsFunc(span, lost) {
		return out
	}
	for j := 0; j < s.lay.G(); j++ {
		if lost(j) {
			out = append(out, j)
		}
	}
	return out
}

// WriteRange writes src over the logical data units starting at start,
// one parity update per touched stripe. A segment covering a whole stripe
// uses the large-write optimization (parity from the new contents, no
// pre-reads); a partial one reads whichever is less, the units it leaves
// alone or the ones it overwrites (layout.PlanStripe). The stripes are
// independent jobs (stripeJobs).
func (s *Store) WriteRange(start int64, src []byte) error {
	n, err := s.stripeJobs(start, src, (*Store).writeStripeSpan)
	if err == nil {
		s.writes.Add(n)
	}
	return err
}

// writeStripeSpan commits the units [lo, hi) — all belonging to stripe —
// from src, whose first byte corresponds to logical unit start, as one
// parity update under the stripe's write lock. A unit's poison block is
// refused, so every acknowledged write reads back.
func (s *Store) writeStripeSpan(stripe, start, lo, hi int64, src []byte) error {
	sc := s.getScratch()
	defer s.scratch.Put(sc)
	sc.locs, sc.datas = sc.locs[:0], sc.datas[:0]
	us := int64(s.unitSize)
	s.spanPositions(sc, stripe, lo, hi)
	for i, v := 0, lo; v < hi; i, v = i+1, v+1 {
		data := src[(v-start)*us : (v-start+1)*us]
		if isPoisonBlock(v, data) {
			return fmt.Errorf("store: data unit %d: its poison block marks a lost unit and cannot be written", v)
		}
		sc.locs = append(sc.locs, s.lay.Unit(stripe, sc.pos[i]))
		sc.datas = append(sc.datas, data)
	}
	s.locks.lock(stripe)
	err := s.writeStripeLocked(stripe, sc)
	s.locks.unlock(stripe)
	return err
}
