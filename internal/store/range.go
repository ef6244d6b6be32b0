package store

import (
	"fmt"
	"sync/atomic"

	"declust/internal/layout"
)

// checkRange validates a multi-unit request and returns its unit count.
func (s *Store) checkRange(start int64, buf []byte) (int64, error) {
	if len(buf) == 0 || len(buf)%s.unitSize != 0 {
		return 0, fmt.Errorf("store: range buffer of %d bytes is not a positive multiple of the %d-byte unit size",
			len(buf), s.unitSize)
	}
	n := int64(len(buf) / s.unitSize)
	if start < 0 || start+n > s.dataUnits {
		return 0, fmt.Errorf("store: units [%d,%d) out of range [0,%d)", start, start+n, s.dataUnits)
	}
	return n, nil
}

// stripeScratch is the working set of one stripe job, recycled through
// Store.scratch so the unit paths allocate nothing. For a parity update —
// a range write's per-stripe job, or WriteUnit's one-unit span — that is
// the units written and their new contents, the pre-reads the update
// needs, and the parity writes that finish it; a reconstruction uses terms
// and eras, a verification terms and par. All of them fold into sums.
type stripeScratch struct {
	locs  []layout.Loc
	datas [][]byte
	terms []term        // how written units fold; or the reads of a solve or a verify
	rest  []term        // first round: what the new parities must gather
	par   []parityWrite // the live parity sums: second round, beside locs
	eras  []erasure     // a solve's erased positions
	sums  sums          // the job's P and Q sums, and which still wait for a first term
}

// newStripeScratch sizes every list for a stripe of g units, m of them
// parity, so a job only ever reslices them.
func newStripeScratch(g, m int) *stripeScratch {
	return &stripeScratch{
		locs:  make([]layout.Loc, 0, g),
		datas: make([][]byte, 0, g),
		terms: make([]term, 0, g),
		rest:  make([]term, 0, g),
		par:   make([]parityWrite, 0, m),
		eras:  make([]erasure, 0, m),
	}
}

// span returns the intersection of stripe's data units with the request
// [start, start+n), as a logical-unit interval [lo, hi).
func (s *Store) span(stripe, start, n, perStripe int64) (lo, hi int64) {
	lo = stripe * perStripe
	if lo < start {
		lo = start
	}
	hi = (stripe + 1) * perStripe
	if hi > start+n {
		hi = start + n
	}
	return lo, hi
}

// ReadRange reads the logical data units [start, start+len(dst)/UnitSize)
// into dst, taking each stripe's lock once for all of its units; the
// stripes are independent jobs (stripeJobs).
func (s *Store) ReadRange(start int64, dst []byte) error {
	n, err := s.stripeJobs(start, dst, (*Store).readStripeSpan)
	if err == nil {
		s.reads.Add(n)
	}
	return err
}

// stripeJobs validates a range request over buf and runs job once for each
// stripe it touches, on that stripe's units [lo, hi); it returns the
// request's unit count. The jobs are independent — each takes only its own
// stripe's lock and owns a disjoint window of buf — so a multi-stripe range
// fans out across I/O helpers, the first error (lowest stripe) cancelling
// unstarted jobs. Kept inline, the jobs run in stripe order and no closure
// is built: a serial range op allocates nothing.
func (s *Store) stripeJobs(start int64, buf []byte, job func(s *Store, stripe, start, lo, hi int64, buf []byte) error) (int64, error) {
	n, err := s.checkRange(start, buf)
	if err != nil {
		return 0, err
	}
	per := s.dataPerStripe
	first := start / per
	segs := int((start+n-1)/per - first + 1)
	if s.overlap(segs) {
		return n, s.fanOut(segs, func(i int) error {
			stripe := first + int64(i)
			lo, hi := s.span(stripe, start, n, per)
			return job(s, stripe, start, lo, hi, buf)
		})
	}
	for stripe := first; stripe < first+int64(segs); stripe++ {
		lo, hi := s.span(stripe, start, n, per)
		if err := job(s, stripe, start, lo, hi, buf); err != nil {
			return n, err
		}
	}
	return n, nil
}

// readStripeSpan reads the units [lo, hi) — all belonging to stripe —
// into dst, whose first byte corresponds to logical unit start. Units are
// read under the stripe's read lock; a damaged unit is repaired under the
// write lock and the sweep resumes after it. ReadUnit is its one-unit span.
func (s *Store) readStripeSpan(stripe, start, lo, hi int64, dst []byte) error {
	us := int64(s.unitSize)
	if s.overlap(int(hi - lo)) {
		// The span's units sit on distinct disks: one batch reads them
		// all. A batch cannot repair (its reads share the lock), so one
		// that meets damage is abandoned for the unit-by-unit sweep below,
		// which re-reads the span and heals as it goes.
		var rebuilt atomic.Int64
		s.locks.rlock(stripe)
		err := s.fanOut(int(hi-lo), func(i int) error {
			u := lo + int64(i)
			ok, err := s.readLocked(stripe, s.mapper.Loc(u), dst[(u-start)*us:(u-start+1)*us])
			if ok {
				rebuilt.Add(1)
			}
			return err
		})
		s.locks.runlock(stripe)
		if !needsHeal(err) {
			s.degradedReads.Add(rebuilt.Load())
			return err
		}
	}
	for u := lo; u < hi; {
		healU := int64(-1)
		var healLoc layout.Loc
		var err error
		s.locks.rlock(stripe)
		for ; u < hi && err == nil; u++ {
			loc := s.mapper.Loc(u)
			var rebuilt bool
			if rebuilt, err = s.readLocked(stripe, loc, dst[(u-start)*us:(u-start+1)*us]); rebuilt {
				s.degradedReads.Add(1)
			}
			if needsHeal(err) {
				healU, healLoc = u, loc
			}
		}
		s.locks.runlock(stripe)
		if healU >= 0 {
			if err = s.healRead(stripe, healLoc, dst[(healU-start)*us:(healU-start+1)*us]); err != nil {
				return err
			}
			u = healU + 1
			continue
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteRange writes src over the logical data units starting at start,
// one parity update per touched stripe. A segment covering a whole stripe
// uses the large-write optimization (parity from the new contents, no
// pre-reads); a partial one reads whichever is less, the units it leaves
// alone or the ones it overwrites (fromScratch). The stripes are
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
// parity update under the stripe's write lock.
func (s *Store) writeStripeSpan(stripe, start, lo, hi int64, src []byte) error {
	sc := s.scratch.Get().(*stripeScratch)
	defer s.scratch.Put(sc)
	sc.locs, sc.datas = sc.locs[:0], sc.datas[:0]
	us := int64(s.unitSize)
	for v := lo; v < hi; v++ {
		sc.locs = append(sc.locs, s.mapper.Loc(v))
		sc.datas = append(sc.datas, src[(v-start)*us:(v-start+1)*us])
	}
	s.locks.lock(stripe)
	err := s.writeStripeLocked(stripe, sc)
	s.locks.unlock(stripe)
	return err
}
