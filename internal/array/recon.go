package array

import (
	"fmt"

	"declust/internal/layout"
	"declust/internal/stats"
	"declust/internal/telemetry"
)

// Reconstruct starts cfg.ReconProcs parallel reconstruction processes that
// sweep the failed disk's units in offset order, reconstructing each from
// its parity stripe's survivors and writing it to the replacement — or,
// under distributed sparing, into its stripe's spare unit on a surviving
// disk. done fires when every lost unit is live again; with a replacement
// the array then heals to the fault-free state, with distributed sparing
// it enters the spared state (Spared reports true).
func (a *Array) Reconstruct(done func()) error {
	if a.failed < 0 {
		return fmt.Errorf("array: nothing to reconstruct; no disk failed")
	}
	if !a.replacement && a.spareLay == nil {
		return fmt.Errorf("array: no replacement installed")
	}
	if a.reconActive {
		return fmt.Errorf("array: reconstruction already running")
	}
	a.reconActive = true
	a.reconStartMS = a.eng.Now()
	a.reconCursor = 0
	a.reconOnDone = done
	a.reconRemaining = 0
	for _, d := range a.reconDone {
		if !d {
			a.reconRemaining++
		}
	}
	a.reconTotal = a.reconRemaining
	for i := range a.reconReads {
		a.reconReads[i] = 0
	}
	if a.reconRemaining == 0 {
		a.finishRecon()
		return nil
	}
	procs := a.cfg.ReconProcs
	if int64(procs) > a.reconRemaining {
		procs = int(a.reconRemaining)
	}
	a.reconProcsLive = procs
	for i := 0; i < procs; i++ {
		a.reconStep()
	}
	return nil
}

// reconPrio returns the disk scheduling class for reconstruction accesses.
func (a *Array) reconPrio() int {
	if a.cfg.ReconLowPriority {
		return reconPriority
	}
	return userPriority
}

// nextReconOffset advances the shared sweep cursor to the next offset not
// yet reconstructed.
func (a *Array) nextReconOffset() (int64, bool) {
	for a.reconCursor < a.unitsPerDisk {
		o := a.reconCursor
		a.reconCursor++
		if !a.reconDone[o] {
			return o, true
		}
	}
	return 0, false
}

// deferRecon schedules a reconstruction step after delay, tagged with the
// current epoch: if an abort or completion bumps the epoch meanwhile, the
// callback quietly dies instead of touching a newer run's state.
func (a *Array) deferRecon(delay float64) {
	e := a.reconEpoch
	a.eng.Schedule(delay, func() {
		if e != a.reconEpoch {
			return
		}
		a.reconStep()
	})
}

// reconStep runs one reconstruction cycle of one process: claim the next
// unit, lock its stripe, decode it (decodeLost: its layout.RebuildSources,
// G−1 under P, G−2 under P+Q, and the one repair path for any of them
// found unreadable), write the result to the replacement, then schedule
// the next cycle.
func (a *Array) reconStep() {
	if !a.reconActive {
		a.reconProcsLive--
		return
	}
	off, ok := a.nextReconOffset()
	if !ok {
		// Sweep exhausted; remaining units (if any) are being finished
		// by other processes or user activity.
		a.reconProcsLive--
		return
	}
	e := a.reconEpoch
	cycleStart := a.eng.Now()
	loc := layout.Loc{Disk: a.failed, Offset: off}
	stripe, _ := a.lay.Locate(loc)
	// Each sweep cycle is its own trace: the lock wait, survivor reads and
	// write-back become phases whose disk segments let the analyzer measure
	// how much rebuild traffic overlaps user requests. Abandoned cycles
	// (epoch bump, free reconstruction) never End and are never recorded.
	cycleSp := a.spans.Root(telemetry.SpanReconCycle, telemetry.KindRecon, off, cycleStart)
	lockSp := cycleSp.Child(telemetry.PhaseLockWait, cycleStart)
	a.locks.acquire(stripe, func() {
		lockSp.End(a.eng.Now())
		if e != a.reconEpoch {
			a.locks.release(stripe)
			return
		}
		if a.reconDone[off] {
			// A user write or piggyback reconstructed it first
			// ("free reconstruction"); skip. Trampoline through the
			// engine to bound recursion over long reconstructed runs.
			a.locks.release(stripe)
			a.deferRecon(0)
			return
		}
		readStart := a.eng.Now()
		readSp := cycleSp.Child(telemetry.PhaseReconRead, readStart)
		surv := a.decodeLost(loc, readSp, a.reconPrio(), func(value uint64) {
			if e != a.reconEpoch {
				a.locks.release(stripe)
				return
			}
			a.readPhase.Add(a.eng.Now() - readStart)
			readSp.End(a.eng.Now())
			writeStart := a.eng.Now()
			writeSp := cycleSp.Child(telemetry.PhaseReconWrit, writeStart)
			a.phaseSpan = writeSp
			a.io([]xfer{{loc: loc, write: true}}, a.reconPrio(), func(_ []xfer) {
				if e != a.reconEpoch {
					a.locks.release(stripe)
					return
				}
				a.setUnitVal(loc, value)
				a.writePhase.Add(a.eng.Now() - writeStart)
				writeSp.End(a.eng.Now())
				cycleSp.End(a.eng.Now())
				a.reconCycles++
				a.mReconCyc.Inc()
				a.markReconstructed(off)
				a.locks.release(stripe)
				a.scheduleNextCycle(cycleStart)
			})
		})
		for _, u := range surv {
			a.reconReads[u.Disk]++
		}
	})
}

// scheduleNextCycle continues a process, honoring the optional throttle.
func (a *Array) scheduleNextCycle(cycleStart float64) {
	if !a.reconActive {
		a.reconProcsLive--
		return
	}
	if rate := a.cfg.ReconThrottleCyclesPerSec; rate > 0 {
		minSpacing := 1000 / rate
		if wait := cycleStart + minSpacing - a.eng.Now(); wait > 0 {
			a.deferRecon(wait)
			return
		}
	}
	a.reconStep()
}

// InterruptRecon aborts the running reconstruction processes but keeps the
// replacement disk and the progress bitmap — the checkpoint. A later
// Reconstruct resumes from it: already-reconstructed units are skipped,
// so only the remainder is swept again. A cycle in flight at the
// interrupt is discarded (its unit stays unreconstructed).
func (a *Array) InterruptRecon() error {
	if !a.reconActive {
		return fmt.Errorf("array: no reconstruction running")
	}
	a.abortRecon()
	return nil
}

// abortRecon tears down the running sweep: every pending continuation
// dies on the epoch bump, so no stale callback can touch the state of a
// restarted run.
func (a *Array) abortRecon() {
	a.reconActive = false
	a.reconEpoch++
	a.reconProcsLive = 0
	a.reconOnDone = nil
}

// markReconstructed records that the failed slot's unit at off is now valid
// on the replacement, whichever path produced it (sweep, user write, or
// piggyback), and completes reconstruction when it was the last one. It is
// a no-op when there is nowhere valid to reconstruct to — the replacement
// died (FailReplacement) with a write still in flight.
func (a *Array) markReconstructed(off int64) {
	if !a.replacement && a.spareLay == nil {
		return
	}
	if a.reconDone[off] {
		return
	}
	a.reconDone[off] = true
	if a.reconActive {
		a.reconRemaining--
		if a.reconRemaining == 0 {
			a.finishRecon()
		}
	}
}

// finishRecon completes recovery. With a replacement disk the array heals
// (the slot is no longer failed); with distributed sparing the slot stays
// dead but every lost unit is live in its spare, so the array enters the
// spared state — copying back onto a new disk is left to operators.
func (a *Array) finishRecon() {
	a.reconEndMS = a.eng.Now()
	a.reconActive = false
	// Bump the epoch so throttled/deferred sweep callbacks from this run
	// die instead of outliving it into a future reconstruction.
	a.reconEpoch++
	if a.spareLay != nil && a.failed >= 0 {
		a.spared = true
	} else {
		a.failed = -1
		a.replacement = false
	}
	if a.reconOnDone != nil {
		done := a.reconOnDone
		a.reconOnDone = nil
		done()
	}
}

// ReconTimeMS returns the duration of the last completed reconstruction.
func (a *Array) ReconTimeMS() float64 { return a.reconEndMS - a.reconStartMS }

// ReconStartMS returns when the last reconstruction began.
func (a *Array) ReconStartMS() float64 { return a.reconStartMS }

// ReconProgress reports how many lost units are live again out of the
// total the current (or last) reconstruction set out to recover. Units
// reconstructed by user writes or piggybacking count as done.
func (a *Array) ReconProgress() (done, total int64) {
	return a.reconTotal - a.reconRemaining, a.reconTotal
}

// ReconReadLoad returns, per disk slot, how many survivor units the
// reconstruction sweep read (the failed slot reads nothing) — the direct
// observable behind the paper's claim that declustering spreads rebuild
// load over the survivors. Under single parity the load is even, α of
// each survivor; under P+Q it is not, since a lone erasure never reads the
// parity its decode skips (layout.DecodeParity).
func (a *Array) ReconReadLoad() []int64 {
	out := make([]int64, len(a.reconReads))
	copy(out, a.reconReads)
	return out
}

// ReconCycles returns how many stripe units the sweep itself reconstructed
// (units reconstructed by user activity are not counted).
func (a *Array) ReconCycles() int64 { return a.reconCycles }

// ReadPhase returns the per-cycle read phase durations (collect and XOR
// the survivors), as in the paper's Table 8-1.
func (a *Array) ReadPhase() *stats.Sample { return &a.readPhase }

// WritePhase returns the per-cycle write phase durations (the replacement
// disk write), as in the paper's Table 8-1.
func (a *Array) WritePhase() *stats.Sample { return &a.writePhase }
