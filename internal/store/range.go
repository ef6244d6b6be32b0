package store

import (
	"fmt"

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
// Store.scratch so the unit paths allocate nothing. For a parity update —
// a range write's per-stripe job, or WriteUnit's one-unit span — that is
// the units written, their new contents and those contents' crc32c, the
// pre-reads the update needs, and the parity writes that finish it; a
// reconstruction uses terms and eras, a verification terms and par. All of
// them fold into sums, through the unit buffers a gather reads into; a span
// read reads its live units into the same buffers.
type stripeScratch struct {
	locs    []layout.Loc
	datas   [][]byte
	newSums []uint32      // crc32c of each of datas, computed once: stamps the unit, derives P's
	terms   []term        // how written units fold; or the reads of a solve or a verify
	rest    []term        // first round: what the new parities must gather
	par     []parityWrite // the live parity sums: second round, beside locs
	eras    []erasure     // a solve's erased positions
	sums    sums          // the job's P and Q sums, and which still wait for a first term
	phys    [][]byte      // a gather's or a span read's physical unit buffers, one per item
	errs    []error       // the damage each item of a gather or a span read found
	crcs    []uint32      // the crc32c each clean item of a gather verified
}

// newStripeScratch sizes every list for a stripe of g units, m of them
// parity, so a job only ever reslices them, and gives it g physical unit
// buffers of physSize bytes.
func newStripeScratch(g, m, physSize int) *stripeScratch {
	sc := &stripeScratch{
		locs:    make([]layout.Loc, 0, g),
		datas:   make([][]byte, 0, g),
		newSums: make([]uint32, 0, g),
		terms:   make([]term, 0, g),
		rest:    make([]term, 0, g),
		par:     make([]parityWrite, 0, m),
		eras:    make([]erasure, 0, m),
		phys:    make([][]byte, g),
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
// stripes are independent jobs (stripeJobs).
func (s *Store) ReadRange(start int64, dst []byte) error {
	n, err := s.stripeJobs(start, dst, (*Store).readStripeSpan)
	if err == nil {
		s.reads.Add(n)
	}
	return err
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

// spanJob is what the items of a span read share: item i reads unit lo+i
// into the i-th unit of dst — a live one through the scratch's unit buffer
// i — and leaves damage in the scratch's error slot i.
type spanJob struct {
	s   *Store
	st  *diskState
	sc  *stripeScratch
	lo  int64
	dst []byte
}

// readStripeSpan reads the units [lo, hi) — all belonging to stripe — into
// dst, whose first byte corresponds to logical unit start, as one batch
// under the stripe's read lock: a live unit is read — into the scratch's
// unit buffer of its index, then copied out, a copy the Disk contract
// forces (a physical unit is its data and trailer, contiguous) — and a
// lost one reconstructed. A batch cannot repair (its reads share the
// lock), so the damaged units it finds are collected and, once the read
// lock is released, re-served together under the write lock (healRead),
// as a gather's are. A unit that reads as its poison block was lost
// (loseStripe), and is ErrUnrecoverable. ReadUnit is its one-unit span.
func (s *Store) readStripeSpan(stripe, start, lo, hi int64, dst []byte) error {
	sc := s.scratch.Get().(*stripeScratch)
	defer s.scratch.Put(sc)
	us := s.unitSize
	dst = dst[int(lo-start)*us : int(hi-start)*us]
	s.locks.rlock(stripe)
	err := fanOut(s, int(hi-lo), spanJob{s, s.st.Load(), sc, lo, dst}, func(j spanJob, i int) error {
		loc := j.s.mapper.Loc(j.lo + int64(i))
		out := j.dst[i*j.s.unitSize : (i+1)*j.s.unitSize]
		var err error
		if j.st.lost(loc) {
			if err = j.s.reconstructLocked(j.st, loc, out); err == nil {
				j.s.degradedReads.Add(1)
			}
		} else if _, err = j.s.readPhys(j.st.disk(loc), loc.Disk, loc.Offset, j.sc.phys[i]); err == nil {
			copy(out, j.sc.phys[i][:j.s.unitSize])
		}
		if err != nil && !needsHeal(err) {
			return err
		}
		j.sc.errs[i] = err
		return nil
	})
	s.locks.runlock(stripe)
	for i := 0; err == nil && i < int(hi-lo); i++ {
		if sc.errs[i] != nil {
			err = s.healRead(stripe, lo, sc.errs[:hi-lo], dst)
			break
		}
	}
	for i := 0; err == nil && i < int(hi-lo); i++ {
		if n := lo + int64(i); isPoisonBlock(n, dst[i*us:(i+1)*us]) {
			err = fmt.Errorf("%w: data unit %d was lost", ErrUnrecoverable, n)
		}
	}
	return err
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
// parity update under the stripe's write lock. A unit's poison block is
// refused, so every acknowledged write reads back.
func (s *Store) writeStripeSpan(stripe, start, lo, hi int64, src []byte) error {
	sc := s.scratch.Get().(*stripeScratch)
	defer s.scratch.Put(sc)
	sc.locs, sc.datas = sc.locs[:0], sc.datas[:0]
	us := int64(s.unitSize)
	for v := lo; v < hi; v++ {
		data := src[(v-start)*us : (v-start+1)*us]
		if isPoisonBlock(v, data) {
			return fmt.Errorf("store: data unit %d: its poison block marks a lost unit and cannot be written", v)
		}
		sc.locs = append(sc.locs, s.mapper.Loc(v))
		sc.datas = append(sc.datas, data)
	}
	s.locks.lock(stripe)
	err := s.writeStripeLocked(stripe, sc)
	s.locks.unlock(stripe)
	return err
}
