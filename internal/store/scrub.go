package store

import (
	"crypto/subtle"
	"fmt"
	"sync"
)

// The scrubber is the engine's background integrity sweep: it walks every
// stripe, verifies each unit's checksum trailer and the stripe's parity
// equations, and repairs what the code can repair — damaged units, as many
// as the stripe has parities, are solved from the rest and rewritten, and
// a stripe with more is lost and rewritten whole (loseStripe); a stripe
// whose units are all individually valid but whose equations do not
// balance (the lost-write signature, or a crash between data and parity
// commits) gets the unbalanced parity recomputed from data, resolving the
// conflict in favor of data. The same per-stripe repair is what the
// write-intent recovery pass runs at open, just over dirty regions only.

// stripeFix reports what resyncStripe had to do to a stripe.
type stripeFix int

const (
	fixNone   stripeFix = iota // stripe verified clean
	fixUnit                    // damaged units reconstructed and rewritten
	fixParity                  // parity recomputed from data
	fixLost                    // past the budget: rewritten with its lost units marked
)

// resyncStripe verifies and repairs one stripe under its write lock (or
// before the store serves traffic), from one pass over its units (see
// syndromes). No unit of the stripe may be lost. The damaged units the
// pass found go to recoverInto, which solves them from the units the pass
// read clean and reads nothing again: within the code's budget they are
// solved and rewritten, and past it the stripe is rewritten whole with its
// lost units marked (loseStripe). A stored parity the pass found unbalanced
// is recomputed from the pass's sum and its own contents, as the pass read
// them.
func (s *Store) resyncStripe(st *diskState, stripe int64) (stripeFix, error) {
	sc := s.getScratch()
	defer s.scratch.Put(sc)
	_, _, i, err := s.syndromes(st, sc, stripe)
	defer s.putParity(sc)
	if err != nil {
		return fixNone, err
	}
	if i >= 0 {
		switch err := s.recoverInto(st, sc, sc.terms[i].loc, nil, nil); err {
		case nil:
			return fixUnit, nil
		case errLost:
			return fixLost, nil
		default:
			return fixNone, err
		}
	}

	// All units individually valid: each equation must balance. One that
	// does not — a write was lost somewhere, or a crash split a data/parity
	// commit — gets its parity recomputed from data, trusting data over
	// parity: the stored parity ⊕ the imbalance is the sum over data.
	fix := fixNone
	for _, p := range sc.par {
		if sum := (*p.buf)[:s.unitSize]; !allZero(sum) {
			subtle.XORBytes(sum, sum, sc.at[p.pos][:s.unitSize])
			if err := s.writeStamped(st.disk(p.loc), p.loc.Disk, p.loc.Offset, *p.buf); err != nil {
				return fixNone, fmt.Errorf("store: rewriting parity %v: %w", p.loc, err)
			}
			fix = fixParity
		}
	}
	return fix, nil
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
	// has parities (two under single parity, three under P+Q). Each is
	// rewritten whole, its damaged data units as their poison blocks, and
	// its units are counted in Stats.LostUnits.
	Unrecoverable int64
}

// Scrub sweeps every stripe, verifying checksums and parity and repairing
// damage in place, stripe by stripe under the stripe locks, while user
// operations continue — the background patrol read. It is one of the
// store's sweeps (Config.RebuildWorkers shards, so that many stripes — at
// most G reads each — are in flight at once), paced by
// Config.ScrubThrottle. Stripes with a lost unit are skipped, and paused
// after like the rest. A stripe past the code's budget is counted
// Unrecoverable and rewritten with its lost units marked, and the sweep
// goes on. A hard error (failed backend, exhausted retries) stops the
// sweep, and the stripes verified before it still count. A clean sweep of
// the whole array — no stripe skipped, since a skipped one may be the one
// in doubt — clears the engine's parity-doubt latch, letting Sync resume
// clearing intent-log regions after a mid-stripe write failure. Only one
// Scrub runs at a time.
func (s *Store) Scrub() (ScrubResult, error) {
	if !s.scrubbing.CompareAndSwap(false, true) {
		return ScrubResult{}, fmt.Errorf("store: scrub already in progress")
	}
	defer s.scrubbing.Store(false)

	var (
		mu  sync.Mutex // guards res
		res ScrubResult
	)
	scrub := func(stripe int64) error {
		s.locks.lock(stripe)
		st := s.st.Load()
		lost := len(s.lostPositions(st, stripe, nil, nil)) > 0
		fix, err := fixNone, error(nil)
		if !lost {
			fix, err = s.resyncStripe(st, stripe)
		}
		s.locks.unlock(stripe)
		if err != nil {
			return fmt.Errorf("store: scrub of stripe %d: %w", stripe, err)
		}
		mu.Lock()
		defer mu.Unlock()
		switch {
		case lost:
			res.Skipped++
		case fix == fixLost:
			res.Unrecoverable++
		default:
			res.Stripes++
			switch fix {
			case fixUnit:
				res.UnitRepairs++
				s.scrubRepairs.Add(1)
			case fixParity:
				res.ParityRewrites++
				s.scrubFixes.Add(1)
			}
		}
		return nil
	}
	err := s.sweep(s.numStripes, s.scrubThrottle, func() (func(int64) error, func() error) { return scrub, nil })
	s.scrubbedStripes.Add(res.Stripes)
	if err != nil {
		return res, err
	}
	s.scrubs.Add(1)
	if res.Skipped == 0 {
		// Every stripe verified clean, or was repaired or rewritten: any
		// doubt left by an earlier failed write is resolved. A sweep that
		// passed over degraded stripes has not looked at all of them.
		s.parityDoubt.Store(false)
	}
	return res, nil
}
