package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// The scrubber is the engine's background integrity sweep: it walks every
// stripe, verifies each unit's checksum trailer and the stripe's parity
// equations, and repairs what the code can repair — damaged units, as many
// as the stripe has parities, are solved from the rest and rewritten; a
// stripe whose units are all individually valid but whose equations do
// not balance (the lost-write signature, or a crash between data and
// parity commits) gets the unbalanced parity recomputed from data,
// resolving the conflict in favor of data. The same per-stripe repair is
// what the write-intent recovery pass runs at open, just over dirty
// regions only.

// stripeFix reports what resyncStripe had to do to a stripe.
type stripeFix int

const (
	fixNone   stripeFix = iota // stripe verified clean
	fixUnit                    // damaged units reconstructed and rewritten
	fixParity                  // parity recomputed from data
)

// resyncStripe verifies and repairs one stripe under its write lock (or
// before the store serves traffic), from one pass over its units (see
// syndromes). No unit of the stripe may be lost. Damage within the code's
// correction power — one unit per parity — is solved from the sums the
// pass already holds and rewritten in place; anything beyond is
// unrecoverable and nothing is rewritten.
func (s *Store) resyncStripe(st *diskState, stripe int64) (stripeFix, error) {
	sc := s.scratch.Get().(*stripeScratch)
	defer s.scratch.Put(sc)
	px, qx, damaged, err := s.syndromes(st, sc, stripe)
	defer s.putParity(sc)
	if err != nil {
		return fixNone, err
	}
	if len(damaged) > s.parities {
		return fixNone, fmt.Errorf("%w: stripe %d has %d damaged units (%v, %v, ...): %v",
			ErrUnrecoverable, stripe, len(damaged), damaged[0].loc, damaged[1].loc, damaged[0].err)
	}
	if len(damaged) > 0 {
		// The pass read the stripe in position order, so a damaged unit's
		// index is its position. The units are solved in place in the sums:
		// sumOwners says which erasure each sum turns into.
		list := sc.eras[:0]
		for _, d := range damaged {
			list = append(list, s.erase(stripe, d.idx, d.loc, px, d.err))
		}
		po, qo := sumOwners(list)
		if qo != nil {
			qo.out = qx
		}
		if po != nil {
			po.out = px
		}
		decode(list, px, qx)
		for _, e := range list {
			s.countHeal(e.cause)
			s.scoreDiskError(e.loc.Disk)
			if err := s.writeDataUnit(st.disk(e.loc), e.loc.Disk, e.loc.Offset, e.out); err != nil {
				return fixNone, fmt.Errorf("store: rewriting damaged unit %v: %w", e.loc, err)
			}
			s.healedUnits.Add(1)
		}
		return fixUnit, nil
	}

	// All units individually valid: each equation must balance. One that
	// does not — a write was lost somewhere, or a crash split a data/parity
	// commit — gets its parity recomputed from data, trusting data over
	// parity: the stored parity ⊕ the imbalance is the sum over data.
	fix := fixNone
	for _, p := range sc.par {
		if sum := (*p.buf)[:s.unitSize]; !allZero(sum) {
			phys := s.getBuf()
			err := s.readPhys(st.disk(p.loc), p.loc.Disk, p.loc.Offset, *phys)
			if err == nil {
				xorInto(sum, (*phys)[:s.unitSize])
				err = s.writeStamped(st.disk(p.loc), p.loc.Disk, p.loc.Offset, *p.buf)
			}
			s.putBuf(phys)
			if err != nil {
				return fixNone, fmt.Errorf("store: rewriting parity %v: %w", p.loc, err)
			}
			fix = fixParity
		}
	}
	return fix, nil
}

// isUnrecoverable reports damage beyond the code's correction power.
func isUnrecoverable(err error) bool { return errors.Is(err, ErrUnrecoverable) }

// stripeHasLost reports whether any unit of stripe is lost in st.
func (s *Store) stripeHasLost(st *diskState, stripe int64) bool {
	g := s.lay.G()
	for j := 0; j < g; j++ {
		if st.lost(s.lay.Unit(stripe, j)) {
			return true
		}
	}
	return false
}

// ScrubResult summarizes one Scrub sweep.
type ScrubResult struct {
	// Stripes is how many stripes were verified (and repaired if needed).
	Stripes int64
	// Skipped is how many stripes were passed over because a unit is lost
	// (their consistency is re-established by the rebuild, not the scrub).
	Skipped int64
	// UnitRepairs counts stripes whose damaged units (media errors,
	// checksum mismatches) were reconstructed from survivors and
	// rewritten — one per stripe even when a P+Q repair rewrote two
	// units (Stats().HealedUnits counts the individual units).
	UnitRepairs int64
	// ParityRewrites counts stripes whose units were all individually
	// valid but whose parity equation did not balance — the lost-write /
	// interrupted-write signature — repaired by recomputing parity from
	// data.
	ParityRewrites int64
	// Unrecoverable counts stripes with more damaged units than the code
	// has parities (two under single parity, three under P+Q). They are
	// left as found.
	Unrecoverable int64
}

// scrubShard is one worker's slice of a Scrub sweep.
type scrubShard struct {
	res     ScrubResult
	unrec   error // first unrecoverable-stripe error in this shard
	hardErr error // hard error that stopped the sweep, nil if none
	hardAt  int64 // stripe the hard error struck
}

// Scrub sweeps every stripe, verifying checksums and parity and repairing
// damage in place, stripe by stripe under the stripe locks, while user
// operations continue — the background patrol read. The sweep is split
// into Config.RebuildWorkers contiguous shards scrubbed concurrently
// (each stripe still verified under its own lock), so that many stripes —
// at most G reads each — are in flight at once; Config.ScrubThrottle
// paces the sweep in aggregate — each worker sleeps workers× the
// configured pause, so the knob means the same wall-clock sweep rate at
// any worker count. Stripes with a lost unit are skipped. Unrecoverable
// stripes are counted, left untouched, and reported in the returned
// error; all other stripes are still verified. A clean sweep of the whole
// array — no unrecoverable damage, and no stripe skipped, since a skipped
// one may be the one in doubt — clears the engine's parity-doubt latch,
// letting Sync resume clearing intent-log regions after a mid-stripe write
// failure. Only one Scrub runs at a time.
func (s *Store) Scrub() (ScrubResult, error) {
	if !s.scrubbing.CompareAndSwap(false, true) {
		return ScrubResult{}, fmt.Errorf("store: scrub already in progress")
	}
	defer s.scrubbing.Store(false)

	workers := s.rebuildWorkers
	if int64(workers) > s.numStripes {
		workers = int(s.numStripes)
	}
	shards := make([]scrubShard, workers)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := s.numStripes * int64(w) / int64(workers)
		hi := s.numStripes * int64(w+1) / int64(workers)
		wg.Add(1)
		go func(o *scrubShard, lo, hi int64) {
			defer wg.Done()
			for stripe := lo; stripe < hi && !stop.Load(); stripe++ {
				s.locks.lock(stripe)
				st := s.st.Load()
				if s.stripeHasLost(st, stripe) {
					o.res.Skipped++
					s.locks.unlock(stripe)
					continue
				}
				fix, err := s.resyncStripe(st, stripe)
				s.locks.unlock(stripe)
				switch {
				case err == nil:
					o.res.Stripes++
					switch fix {
					case fixUnit:
						o.res.UnitRepairs++
						s.scrubRepairs.Add(1)
					case fixParity:
						o.res.ParityRewrites++
						s.scrubFixes.Add(1)
					}
				case isUnrecoverable(err):
					o.res.Unrecoverable++
					if o.unrec == nil {
						o.unrec = err
					}
				default:
					// A hard error (failed backend, exhausted retries)
					// stops the whole sweep; verified counts still report.
					o.hardErr = fmt.Errorf("store: scrub of stripe %d: %w", stripe, err)
					o.hardAt = stripe
					stop.Store(true)
					return
				}
				if s.scrubThrottle > 0 {
					time.Sleep(s.scrubThrottle * time.Duration(workers))
				}
			}
		}(&shards[w], lo, hi)
	}
	wg.Wait()

	var res ScrubResult
	var firstErr, hardErr error
	hardAt := int64(-1)
	for w := range shards {
		o := &shards[w]
		res.Stripes += o.res.Stripes
		res.Skipped += o.res.Skipped
		res.UnitRepairs += o.res.UnitRepairs
		res.ParityRewrites += o.res.ParityRewrites
		res.Unrecoverable += o.res.Unrecoverable
		if o.unrec != nil && firstErr == nil {
			firstErr = o.unrec // shards ascend, so this is the lowest shard's first
		}
		if o.hardErr != nil && (hardAt < 0 || o.hardAt < hardAt) {
			hardErr, hardAt = o.hardErr, o.hardAt
		}
	}
	s.scrubbedStripes.Add(res.Stripes)
	if hardErr != nil {
		return res, hardErr
	}
	s.scrubs.Add(1)
	if firstErr == nil && res.Skipped == 0 {
		// Every stripe verified clean (or was repaired): any doubt left by
		// an earlier failed write is resolved. A sweep that passed over
		// degraded stripes has not looked at all of them.
		s.parityDoubt.Store(false)
	}
	return res, firstErr
}
