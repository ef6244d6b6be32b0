package array

import (
	"fmt"

	"declust/internal/disk"
	"declust/internal/gf256"
	"declust/internal/layout"
	"declust/internal/telemetry"
)

// SetOpSpan hands the array the parent span for the next synchronous
// Read/Write/ReadRange/WriteRange call, which consumes it. The array opens
// lifecycle-phase children under it (lock wait, pre-reads, commits,
// on-the-fly reconstruction) and tags every disk transfer so the drives
// attach queue/seek/rotate/transfer segments. All of it is nil-safe: with
// no tracer the handoff is a nil store and the hot paths pay nil checks.
func (a *Array) SetOpSpan(sp *telemetry.Span) { a.opSpan = sp }

func (a *Array) takeOpSpan() *telemetry.Span {
	sp := a.opSpan
	a.opSpan = nil
	return sp
}

// xfer is one unit-sized disk transfer. A write issued by a write plan
// carries in val the content its unit takes when the plan's round
// completes (see userOp); other transfers leave it zero.
type xfer struct {
	loc   layout.Loc
	write bool
	val   uint64
}

const (
	userPriority  = 0
	reconPriority = -1
	scrubPriority = -2
)

// Transient-timeout retries back off exponentially from retryBaseMS,
// doubling up to retryBaseMS << retryMaxShift per attempt. Retries are
// unbounded: each attempt draws an independent outcome (the injector caps
// the timeout rate at 0.9), so service terminates with probability one.
const (
	retryBaseMS   = 1.0
	retryMaxShift = 5
)

// ioPhase tracks one parallel transfer phase: the countdown of outstanding
// transfers and the media-error failures collected so far. Phases are
// pooled on the Array; the fails slice is not reused (callers may retain
// it past the phase), but fault-free phases never allocate it.
type ioPhase struct {
	a     *Array
	n     int
	fails []xfer
	done  func(fails []xfer)
}

func (a *Array) getPhase() *ioPhase {
	if n := len(a.phaseFree); n > 0 {
		ph := a.phaseFree[n-1]
		a.phaseFree = a.phaseFree[:n-1]
		return ph
	}
	return &ioPhase{a: a}
}

// finishOne retires one transfer; the last one recycles the phase before
// invoking done, so done may immediately start a new phase on the same node.
func (ph *ioPhase) finishOne() {
	ph.n--
	if ph.n > 0 {
		return
	}
	a, done, fails := ph.a, ph.done, ph.fails
	ph.done = nil
	ph.fails = nil
	a.phaseFree = append(a.phaseFree, ph)
	done(fails)
}

// ioReq wraps one in-flight disk transfer. The embedded disk.Request and
// the two bound callbacks are allocated once per pooled node, so
// steady-state transfers — including transient-timeout retries — allocate
// nothing.
type ioReq struct {
	req     disk.Request
	a       *Array
	ph      *ioPhase
	x       xfer
	target  layout.Loc
	attempt int
	retryFn func()
}

func (a *Array) getReq() *ioReq {
	if n := len(a.reqFree); n > 0 {
		r := a.reqFree[n-1]
		a.reqFree = a.reqFree[:n-1]
		return r
	}
	r := &ioReq{a: a}
	r.req.OnDone = r.complete
	r.retryFn = r.resubmit
	return r
}

// complete is every transfer's disk.Request OnDone. Timeouts retry with
// capped exponential backoff on the same node; OK and MediaError outcomes
// recycle the node and retire the transfer in its phase.
func (r *ioReq) complete(_, _ float64, st disk.Status) {
	a := r.a
	if st == disk.Timeout {
		a.fstats.Retries++
		a.mRetries.Inc()
		shift := r.attempt
		if shift > retryMaxShift {
			shift = retryMaxShift
		}
		r.attempt++
		a.eng.Schedule(retryBaseMS*float64(int64(1)<<shift), r.retryFn)
		return
	}
	ph, x := r.ph, r.x
	r.ph = nil
	a.reqFree = append(a.reqFree, r)
	if st == disk.MediaError {
		a.fstats.MediaErrors++
		ph.fails = append(ph.fails, x)
	}
	ph.finishOne()
}

func (r *ioReq) resubmit() {
	r.a.disks[r.target.Disk].Submit(&r.req)
}

// io issues a set of transfers in parallel and calls done when the last
// completes, passing the transfers that failed with a media error (always
// reads under the stock injector; empty on a clean phase). Transient
// timeouts are retried internally and never surface.
//
// Writes addressed to a failed slot with no replacement are dropped: a
// disk can fail between an operation's phases (its path was chosen while
// the disk was healthy), and a fail-stop disk simply loses the write — the
// stripe stays recoverable through the surviving write of the pair, which
// is why parity and data commit in the same phase. Reads of such a slot,
// or of a not-yet-reconstructed replacement unit, can never be correct and
// panic as driver bugs.
func (a *Array) io(xs []xfer, prio int, done func(fails []xfer)) {
	if len(xs) == 0 {
		panic("array: empty io phase")
	}
	// Consume the span set for this phase (nil when tracing is off or the
	// phase is internal): every transfer of the phase carries it, so the
	// drives know where to attach their service segments.
	sp := a.phaseSpan
	a.phaseSpan = nil
	ph := a.getPhase()
	ph.n = len(xs)
	ph.done = done
	for _, x := range xs {
		if x.loc.Disk == a.failed {
			if !x.write {
				if !a.replacement && a.spareLay == nil {
					panic(fmt.Sprintf("array: read of failed disk %d with no replacement", x.loc.Disk))
				}
				if !a.reconDone[x.loc.Offset] {
					panic(fmt.Sprintf("array: read of unreconstructed unit %v", x.loc))
				}
			} else if !a.replacement && a.spareLay == nil {
				// Dropped write to a dead disk.
				ph.finishOne()
				continue
			}
		}
		// Under distributed sparing, units of the failed disk live (or
		// will live) in their stripes' spare slots on survivors.
		a.submitIO(x, a.phys(x.loc), prio, ph, sp)
	}
}

// submitIO issues one transfer to its resolved target. The target is
// resolved once: a retry lands on the same drive slot the operation chose,
// even if the array's failure state moved underneath it (the enclosing
// phase's drop/panic rules already ran).
func (a *Array) submitIO(x xfer, target layout.Loc, prio int, ph *ioPhase, sp *telemetry.Span) {
	r := a.getReq()
	r.ph = ph
	r.x = x
	r.target = target
	r.attempt = 0
	r.req.Start = a.unitSector(target.Offset)
	r.req.Count = a.cfg.UnitSectors
	r.req.Write = x.write
	r.req.Priority = prio
	r.req.Span = sp // always stored: pooled nodes must not leak stale spans
	a.disks[target.Disk].Submit(&r.req)
}

// reads builds read transfers for a set of locations.
func reads(locs []layout.Loc) []xfer {
	xs := make([]xfer, len(locs))
	for i, l := range locs {
		xs[i] = xfer{loc: l}
	}
	return xs
}

// writesOf builds write transfers for a set of locations.
func writesOf(locs []layout.Loc) []xfer {
	xs := make([]xfer, len(locs))
	for i, l := range locs {
		xs[i] = xfer{loc: l, write: true}
	}
	return xs
}

// newValue mints a fresh distinct content word for a user write.
func (a *Array) newValue() uint64 {
	a.writeSeq++
	return splitmix64(a.writeSeq | 1<<63)
}

// weigh multiplies v by the coefficient a stripe's d-th data unit carries
// in its k-th parity, g^(k·d): 1 throughout P (k = 0), which is therefore
// the plain XOR of the data, and g^d in Q (k = 1), the Reed–Solomon sum.
// Every parity word the driver computes — initial contents, write plans,
// reconstruction, the consistency check — is a sum of these terms, so
// single parity is the same arithmetic with one equation, not a second
// code path.
func weigh(k, d int, v uint64) uint64 {
	if k == 0 {
		return v
	}
	return gf256.MulWord(gf256.Exp(k*d), v)
}

// term is data unit loc's contribution to its stripe's k-th parity when it
// holds v.
func (a *Array) term(k int, stripe int64, loc layout.Loc, v uint64) uint64 {
	if k == 0 {
		return v // skip the ordinal lookup P never needs
	}
	_, j := a.lay.Locate(loc)
	return weigh(k, layout.DataOrdinal(a.lay, stripe, j), v)
}

// paritySum is the k-th parity of the current contents of a set of one
// stripe's data units. With k = 0 it is a plain XOR and the set may
// include parity units too (the P equation sums to zero over the stripe).
func (a *Array) paritySum(k int, stripe int64, locs []layout.Loc) uint64 {
	var v uint64
	for _, u := range locs {
		v ^= a.term(k, stripe, u, a.unitVal(u))
	}
	return v
}

// reconValue computes loc's contents from its layout.RebuildSources, the
// sum of its layout.DecodeParity equation over them. A parity unit is its
// equation's sum over the data; a data unit is the XOR of the other data
// and P, which is the P sum taken over all the sources.
func (a *Array) reconValue(loc layout.Loc, srcs []layout.Loc) uint64 {
	stripe, j := a.lay.Locate(loc)
	return a.paritySum(layout.DecodeParity(a.lay, stripe, j), stripe, srcs)
}

// allAvailable reports whether every unit of locs can be accessed directly.
func (a *Array) allAvailable(locs []layout.Loc) bool {
	for _, u := range locs {
		if !a.available(u) {
			return false
		}
	}
	return true
}

// target is one logical data unit a write covers: where it lives and the
// value it is given.
type target struct {
	unit  int64
	loc   layout.Loc
	value uint64
}

// parityUnit is one of a stripe's parity units: P (k = 0) or Q (k = 1).
type parityUnit struct {
	k   int
	loc layout.Loc
}

// userOp tracks one user operation through its rounds of transfers: a
// direct read (one round of one transfer), or a write — Write's single
// unit or one stripe's share of a WriteRange — which, once its stripe lock
// is held, is a plan: at most two rounds, the units of the second usually
// being the ones the first pre-read. A planner (writeLocked for Write,
// planGroup for WriteRange) fills the plan from what the stripe has — which
// of its parity units are live, whether the data unit is — and run plays
// it: round 1, repair of its failed reads, round 2, finish. Every write
// transfer carries the value its unit takes when its round completes.
//
// All of those values are computed while planning, i.e. when the first
// round is submitted, not when it completes: the stripe lock guarantees no
// writer changes the sampled units in flight, while a concurrent Replace()
// swaps the failed slot's content array and would otherwise make a
// completion-time sample read fresh zeros instead of what the platter
// returned.
//
// Nodes are pooled on the Array with the stage continuations pre-bound and
// the plan's buffers kept, so unit reads and writes allocate nothing in
// steady state, whatever the stripe's condition (a fold's list of
// surviving data units excepted).
type userOp struct {
	a         *Array
	stripe    int64
	data      []target     // what a write covers
	live      []parityUnit // the stripe's available parity units, P first
	rounds    [2][]xfer
	names     [2]string // span of round 1 (or of a lone round 2), and of round 2 ("" stays in it)
	redirect  bool      // the plan writes a lost data unit to its replacement, reconstructing it
	readDone  func(value uint64)
	writeDone func()
	span      *telemetry.Span // root span handed over by the caller; nil when off
	phase     *telemetry.Span // open lifecycle-phase child, ended by the stage that retires it

	// Stage continuations, bound once per node.
	readPlainFn   func([]xfer)
	writeLockedFn func()
	repairFn      func([]xfer)
	commitFn      func()
	commitDoneFn  func([]xfer)
}

func (a *Array) getOp() *userOp {
	if n := len(a.opFree); n > 0 {
		op := a.opFree[n-1]
		a.opFree = a.opFree[:n-1]
		return op
	}
	op := &userOp{a: a}
	op.readPlainFn = op.readPlain
	op.writeLockedFn = op.writeLocked
	op.repairFn = op.repair
	op.commitFn = op.commit
	op.commitDoneFn = op.commitDone
	return op
}

func (a *Array) putOp(op *userOp) {
	op.data = op.data[:0]
	op.live = op.live[:0]
	op.rounds[0] = op.rounds[0][:0]
	op.rounds[1] = op.rounds[1][:0]
	op.names = [2]string{}
	op.redirect = false
	op.readDone = nil
	op.writeDone = nil
	op.span = nil
	op.phase = nil
	a.opFree = append(a.opFree, op)
}

// Read performs a user read of one data unit, invoking done with the value
// read. In degraded mode, reads of lost units reconstruct on the fly;
// under the Redirect algorithms, reads of already-reconstructed units go
// to the replacement disk.
func (a *Array) Read(unit int64, done func(value uint64)) {
	a.mUserReads.Inc()
	a.read(unit, done)
}

// read is Read without the user-operation count: a range read passes its
// lost units on through it.
func (a *Array) read(unit int64, done func(value uint64)) {
	if unit < 0 || unit >= a.dataUnits {
		panic(fmt.Sprintf("array: data unit %d out of range [0,%d)", unit, a.dataUnits))
	}
	sp := a.takeOpSpan()
	loc := a.mapper.Loc(unit)
	if loc.Disk != a.failed || a.redirectableRead(loc) {
		op := a.getOp()
		op.readDone = done
		op.span = sp
		op.read(loc)
		a.phaseSpan = sp // segments attach to the root: one phase only
		a.io(op.rounds[0], userPriority, op.readPlainFn)
		return
	}
	// On-the-fly reconstruction under the stripe lock: a consistent
	// multi-unit read that must not interleave with parity updates.
	stripe, _ := a.lay.Locate(loc)
	lockSp := sp.Child(telemetry.PhaseLockWait, a.eng.Now())
	a.locks.acquire(stripe, func() {
		lockSp.End(a.eng.Now())
		// Re-evaluate: reconstruction or healing may have happened
		// while waiting for the lock.
		if loc.Disk != a.failed || a.redirectableRead(loc) {
			a.phaseSpan = sp
			a.io([]xfer{{loc: loc}}, userPriority, func(fails []xfer) {
				a.repairThen(stripe, fails, userPriority, func() {
					a.locks.release(stripe)
					done(a.unitVal(loc))
				})
			})
			return
		}
		surv := layout.RebuildSources(a.lay, loc)
		a.mOTFRecons.Inc()
		otf := sp.Child(telemetry.PhaseOTF, a.eng.Now())
		a.phaseSpan = otf
		a.io(reads(surv), userPriority, func(fails []xfer) {
			// An unreadable survivor means the lost unit is really gone
			// (two dead units in the stripe): repairThen records the
			// loss and restores out of band; the value read below is
			// the model's, standing in for the backup's.
			a.repairThen(stripe, fails, userPriority, func() {
				value := a.reconValue(loc, surv)
				otf.End(a.eng.Now())
				if a.cfg.Algorithm == RedirectPiggyback && (a.replacement || a.spareLay != nil) && !a.reconDone[loc.Offset] {
					// The user's data is ready now; the piggybacked
					// write to the replacement continues under the
					// stripe lock. Its span is a fresh root: the user's
					// response does not include it.
					done(value)
					pg := a.spans.Root(telemetry.PhasePiggyback, telemetry.KindRecon, unit, a.eng.Now())
					a.phaseSpan = pg
					a.io([]xfer{{loc: loc, write: true}}, userPriority, func(_ []xfer) {
						a.setUnitVal(loc, value)
						a.markReconstructed(loc.Offset)
						pg.End(a.eng.Now())
						a.locks.release(stripe)
					})
					return
				}
				a.locks.release(stripe)
				done(value)
			})
		})
	})
}

// readPlain completes the direct-read path. The clean case recycles the
// node before answering; the media-error case falls back to closures for
// the repair (rare, and its latency is dominated by disk accesses anyway).
func (op *userOp) readPlain(fails []xfer) {
	a, loc, done := op.a, op.rounds[0][0].loc, op.readDone
	a.putOp(op)
	if len(fails) == 0 {
		done(a.unitVal(loc))
		return
	}
	// Latent sector error: recover under the stripe lock (the repair
	// updates the platter, racing parity writers), then answer — the
	// user's latency includes the recovery.
	stripe, _ := a.lay.Locate(loc)
	a.locks.acquire(stripe, func() {
		a.repairLocked(stripe, fails, userPriority, func() {
			a.locks.release(stripe)
			done(a.unitVal(loc))
		})
	})
}

// redirectableRead reports whether a read of a lost unit may be serviced
// directly from its reconstructed copy (replacement disk or spare unit).
// During recovery only the Redirect algorithms do so; once a distributed-
// sparing reconstruction has completed, every algorithm serves spared
// units directly — recovery is over.
func (a *Array) redirectableRead(loc layout.Loc) bool {
	if !a.reconDone[loc.Offset] {
		return false
	}
	if a.spared {
		return true
	}
	return (a.replacement || a.spareLay != nil) &&
		(a.cfg.Algorithm == Redirect || a.cfg.Algorithm == RedirectPiggyback)
}

// Write performs a user write of one data unit, invoking done when the
// array has committed data and parity. All writes serialize on their
// stripe's lock because they read-modify-write the shared parity unit.
func (a *Array) Write(unit int64, done func()) {
	a.mUserWrites.Inc()
	a.write(unit, done)
}

// write is Write without the user-operation count: a range write passes
// the units of a degraded stripe on through it.
func (a *Array) write(unit int64, done func()) {
	if unit < 0 || unit >= a.dataUnits {
		panic(fmt.Sprintf("array: data unit %d out of range [0,%d)", unit, a.dataUnits))
	}
	op := a.getOp()
	loc := a.mapper.Loc(unit)
	op.stripe, _ = a.lay.Locate(loc)
	op.data = append(op.data, target{unit: unit, loc: loc, value: a.newValue()})
	op.writeDone = done
	op.span = a.takeOpSpan()
	op.phase = op.span.Child(telemetry.PhaseLockWait, a.eng.Now())
	a.locks.acquire(op.stripe, op.writeLockedFn)
}

// read adds reads of locs to the first round.
func (op *userOp) read(locs ...layout.Loc) {
	for _, loc := range locs {
		op.rounds[0] = append(op.rounds[0], xfer{loc: loc})
	}
}

// write adds to round r a write of loc, which takes the value v when the
// round completes.
func (op *userOp) write(r int, loc layout.Loc, v uint64) {
	op.rounds[r] = append(op.rounds[r], xfer{loc: loc, write: true, val: v})
}

// writeData adds the covered data units' writes to round r.
func (op *userOp) writeData(r int) {
	for _, t := range op.data {
		op.write(r, t.loc, t.value)
	}
}

// writeParities adds to the second round a write of each live parity,
// recomputed from the new data and the current contents of others — the
// stripe's data units the write does not cover, which the first round
// reads unless there are none.
func (op *userOp) writeParities(others []layout.Loc) {
	a := op.a
	for _, p := range op.live {
		v := a.paritySum(p.k, op.stripe, others)
		for _, t := range op.data {
			v ^= a.term(p.k, op.stripe, t.loc, t.value)
		}
		op.write(1, p.loc, v)
	}
}

// planRMW plans the read-modify-write: pre-read the covered data units and
// the live parities, then overwrite them all, each parity moved by the
// data's change — 2(k+1) accesses under single parity, or P+Q with one
// parity lost, the paper's four for k = 1 (§6); 2(k+2) with P and Q live.
func (op *userOp) planRMW() {
	a := op.a
	op.names = [2]string{telemetry.PhasePreread, telemetry.PhaseCommit}
	for _, t := range op.data {
		op.read(t.loc)
	}
	op.writeData(1)
	for _, p := range op.live {
		v := a.unitVal(p.loc)
		for _, t := range op.data {
			v ^= a.term(p.k, op.stripe, t.loc, a.unitVal(t.loc)^t.value)
		}
		op.read(p.loc)
		op.write(1, p.loc, v)
	}
}

// findLive lists the stripe's available parity units.
func (op *userOp) findLive() {
	a := op.a
	for k := 0; k < a.parities; k++ {
		if pl := layout.ParityLocOf(a.lay, op.stripe, k); a.available(pl) {
			op.live = append(op.live, parityUnit{k, pl})
		}
	}
}

// uncovered returns the stripe's data units the write does not cover.
func (op *userOp) uncovered() []layout.Loc {
	a := op.a
	g := a.lay.G()
	out := make([]layout.Loc, 0, g-1)
	for j := 0; j < g; j++ {
		if layout.IsParityPos(a.lay, op.stripe, j) {
			continue
		}
		if u := a.lay.Unit(op.stripe, j); !op.covers(u) {
			out = append(out, u)
		}
	}
	return out
}

func (op *userOp) covers(u layout.Loc) bool {
	for _, t := range op.data {
		if t.loc == u {
			return true
		}
	}
	return false
}

// writeLocked plans a unit write with the stripe lock held, so the failure
// state it sees cannot change under it, and starts it. The plan depends
// only on what the stripe has:
//
//   - data unit lost: fold — read the surviving data, write each live
//     parity so that a later sweep reconstructs the new value. Under
//     Baseline (or with no replacement installed) that is all; the other
//     algorithms also send the new data to the replacement, which counts
//     as reconstruction. With no surviving data (G = 2, or G = 3 under
//     P+Q) the parities encode the new value directly and nothing is read.
//   - no live parity: there is nothing to pre-read for, so the write is a
//     single data access (§7); the parity unit is recomputed from data
//     when its turn in the sweep comes.
//   - G = 2: the parity unit is a copy of the data unit, so the write is
//     two plain writes with no pre-reads — the G = 2 declustered layout
//     behaves as declustered mirroring (Copeland & Keller's interleaved
//     declustering, §3).
//   - three-unit stripe with the small-write optimization on: overlap the
//     read of the one other data unit with the data write, then write
//     parity computed from the two new values — three accesses.
//   - otherwise: read-modify-write over the live parities (planRMW).
func (op *userOp) writeLocked() {
	a := op.a
	op.phase.End(a.eng.Now()) // lock wait is over
	op.phase = nil
	op.findLive()
	if loc := op.data[0].loc; !a.available(loc) {
		others := op.uncovered()
		op.redirect = (a.replacement || a.spareLay != nil) && a.cfg.Algorithm != Baseline
		op.names[0] = telemetry.PhaseFold
		op.read(others...)
		op.writeParities(others)
		if op.redirect {
			op.writeData(1)
		}
	} else if len(op.live) == 0 {
		op.names[0] = telemetry.PhaseDataWrite
		op.writeData(1)
	} else if a.lay.G() == 2 {
		op.names[0] = telemetry.PhaseMirror
		op.writeData(1)
		op.writeParities(nil)
	} else if others := op.smallWriteCompanion(); others != nil {
		op.names = [2]string{telemetry.PhaseSWPreread, telemetry.PhaseSWCommit}
		op.read(others...)
		op.writeData(0)
		op.writeParities(others)
	} else {
		op.planRMW()
	}
	op.run()
}

// smallWriteCompanion returns the stripe's one other data unit when the
// three-access write applies to it, nil otherwise.
func (op *userOp) smallWriteCompanion() []layout.Loc {
	a := op.a
	if a.lay.G() != 3 {
		return nil
	}
	others := op.uncovered()
	if len(others) != 1 || !a.available(others[0]) {
		return nil
	}
	return others
}

// run plays the plan: the first round if it has one, then commit.
func (op *userOp) run() {
	a := op.a
	op.phase = op.span.Child(op.names[0], a.eng.Now())
	if len(op.rounds[0]) == 0 {
		op.commit()
		return
	}
	a.phaseSpan = op.phase
	a.io(op.rounds[0], userPriority, op.repairFn)
}

// repair recovers the first round's unreadable units before the plan
// continues. In a fold they are survivors of a stripe that already lost a
// unit, so the value being folded rests on a loss: repairThen records it
// and restores out of band.
func (op *userOp) repair(fails []xfer) {
	op.a.repairThen(op.stripe, fails, userPriority, op.commitFn)
}

// commit issues the second round.
func (op *userOp) commit() {
	a := op.a
	a.land(op.rounds[0])
	if name := op.names[1]; name != "" {
		op.phase.End(a.eng.Now())
		op.phase = op.span.Child(name, a.eng.Now())
	}
	a.phaseSpan = op.phase
	a.io(op.rounds[1], userPriority, op.commitDoneFn)
}

// land gives every unit a completed round wrote the value its transfer
// carried.
func (a *Array) land(xs []xfer) {
	for _, x := range xs {
		if x.write {
			a.setUnitVal(x.loc, x.val)
		}
	}
}

// commitDone finishes the write: the array has committed data and parity.
// It closes whatever lifecycle phase was still open, releases the stripe
// lock, recycles the node and delivers the completion.
func (op *userOp) commitDone(_ []xfer) {
	a, done := op.a, op.writeDone
	a.land(op.rounds[1])
	for _, t := range op.data {
		a.expected[t.unit] = t.value
	}
	if op.redirect {
		a.markReconstructed(op.data[0].loc.Offset)
	}
	op.phase.End(a.eng.Now())
	a.locks.release(op.stripe)
	a.putOp(op)
	done()
}
