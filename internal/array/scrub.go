package array

import (
	"fmt"

	"declust/internal/layout"
	"declust/internal/sim"
)

// The scrubber is the background process that turns latent sector errors
// from silent MTTDL killers into repaired ones: an LSE is harmless until
// the stripe it sits in loses another unit, so the exposure window is the
// time from the error's arrival to its next read — and the scrubber bounds
// that window by reading every stripe on a fixed cadence. It runs in a
// disk scheduling class below both user and reconstruction traffic, so an
// idle array scrubs at full speed and a busy one barely notices it.

// ScrubStats counts scrubber activity. Repairs performed on the scrubber's
// behalf are counted in FaultStats (LatentRepairs / LostUnits) alongside
// repairs triggered by user reads.
type ScrubStats struct {
	Passes       int64 // full sweeps over all stripes completed
	UnitsScanned int64 // stripe units read
	ErrorsFound  int64 // media errors the scan surfaced
}

// ScrubStats returns a copy of the scrubber counters.
func (a *Array) ScrubStats() ScrubStats { return a.scrubStats }

// StartScrub begins the background scrub: one parity stripe is read and
// verified every spacingMS, lowest disk priority, looping over the array
// forever (a full pass takes Stripes()×spacingMS plus service time). Any
// media error found goes down the one repair path (repairLocked): rebuilt
// from parity on the spot, or recorded as a DataLossEvent when the stripe
// is past its code's budget. Stop with StopScrub; the engine cannot drain
// while a scrub is scheduled.
func (a *Array) StartScrub(spacingMS float64) error {
	if spacingMS <= 0 {
		return fmt.Errorf("array: scrub spacing %v ms", spacingMS)
	}
	if a.scrubOn {
		return fmt.Errorf("array: scrub already running")
	}
	a.scrubOn = true
	a.scrubSpacing = spacingMS
	a.scheduleScrub()
	return nil
}

// StopScrub halts the scrubber. A stripe scan already in flight finishes;
// no further stripe is scheduled.
func (a *Array) StopScrub() {
	a.scrubOn = false
	a.eng.Cancel(a.scrubEv) // no-op on the zero Timer or a stale handle
	a.scrubEv = sim.Timer{}
}

func (a *Array) scheduleScrub() {
	a.scrubEv = a.eng.Schedule(a.scrubSpacing, func() {
		a.scrubEv = sim.Timer{}
		if !a.scrubOn {
			return
		}
		a.scrubStripe()
	})
}

// scrubStripe scans one stripe under its lock: read every readable unit,
// repair whatever surfaced, advance the cursor, schedule the next.
func (a *Array) scrubStripe() {
	s := a.scrubCursor
	a.scrubCursor++
	if a.scrubCursor == a.numStripes {
		a.scrubCursor = 0
		a.scrubStats.Passes++
	}
	a.locks.acquire(s, func() {
		next := func() {
			a.locks.release(s)
			if a.scrubOn {
				a.scheduleScrub()
			}
		}
		g := a.lay.G()
		var locs []layout.Loc
		for j := 0; j < g; j++ {
			u := a.lay.Unit(s, j)
			if a.available(u) {
				locs = append(locs, u)
			}
		}
		if len(locs) == 0 {
			next()
			return
		}
		a.scrubStats.UnitsScanned += int64(len(locs))
		phase := reads(locs)
		a.io(phase, scrubPriority, func(fails []xfer) {
			a.scrubStats.ErrorsFound += int64(len(fails))
			a.repairThen(s, fails, phase, nil, scrubPriority, next)
		})
	})
}
