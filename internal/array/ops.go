package array

import (
	"fmt"
	"slices"

	"declust/internal/disk"
	"declust/internal/drive"
	"declust/internal/gf256"
	"declust/internal/layout"
	"declust/internal/telemetry"
)

// SetOpSpan hands the array the parent span for the next synchronous
// ReadRange or WriteRange call, which consumes it. The array opens
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

// newValue mints a fresh distinct content word for a user write.
func (a *Array) newValue() uint64 {
	a.writeSeq++
	return drive.Mix((a.writeSeq | 1<<63) + phi)
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

// userOp tracks one stripe's share of a user operation through its rounds
// of transfers. A read's share is one round: the direct reads of the units
// its disks still hold, whose values land in dst when the round completes
// (fetched). A write's share — of a WriteRange — is, once its stripe lock
// is held, a plan: at most two rounds, the units of the second usually
// being the ones the first pre-read. The one planner, plan, fills it from
// what the stripe has — which of its parity units are live, whether the
// written units are — and how many of its data units the write covers;
// run plays it: round 1, repair of its failed reads, round 2, finish. Every
// write transfer carries the value its unit takes when its round completes.
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
// steady state, whatever the stripe's condition (the list of data units a
// from-scratch plan reads excepted).
type userOp struct {
	a        *Array
	stripe   int64
	data     []target     // the units read, or what a write covers
	live     []parityUnit // the stripe's available parity units, P first
	rounds   [2][]xfer
	names    [2]string // span of round 1 (or of a lone round 2), and of round 2 ("" stays in it)
	redirect bool      // the plan writes a lost data unit to its replacement, reconstructing it
	first    int64     // a read's first unit: unit n lands in dst[n-first]
	dst      []uint64
	done     func()
	span     *telemetry.Span // root span handed over by the caller; nil when off
	phase    *telemetry.Span // open lifecycle-phase child, ended by the stage that retires it

	// Stage continuations, bound once per node.
	fetchedFn    func([]xfer)
	planFn       func()
	repairFn     func([]xfer)
	commitFn     func()
	commitDoneFn func([]xfer)
}

func (a *Array) getOp() *userOp {
	if n := len(a.opFree); n > 0 {
		op := a.opFree[n-1]
		a.opFree = a.opFree[:n-1]
		return op
	}
	op := &userOp{a: a}
	op.fetchedFn = op.fetched
	op.planFn = op.plan
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
	op.dst = nil
	op.done = nil
	op.span = nil
	op.phase = nil
	a.opFree = append(a.opFree, op)
}

// fetched completes a stripe's direct reads. The clean case hands every
// value over and recycles the node before answering; a latent sector error
// is first recovered under the stripe lock (the repair updates the
// platter, racing parity writers), so the user's latency includes the
// recovery. The reads were made before the lock, so the units that failed
// are read again under it — a writer, or a degraded read of the same
// stripe, may have rewritten them meanwhile, as the store's healRead
// allows for — and the repair reads its sources afresh. A unit whose disk
// failed since is not read again: it is lost, so the repair counts it as
// an erasure, and the read decodes it as readLost would.
func (op *userOp) fetched(fails []xfer) {
	a := op.a
	if len(fails) == 0 {
		op.deliver()
		return
	}
	a.locks.acquire(op.stripe, func() {
		lost := -1
		for i, t := range op.data {
			if !a.available(t.loc) && slices.ContainsFunc(fails, func(x xfer) bool { return x.loc == t.loc }) {
				lost = i
			}
		}
		again := slices.DeleteFunc(fails, func(x xfer) bool { return !a.available(x.loc) })
		finish := func(still []xfer) {
			a.repairThen(op.stripe, still, again, nil, userPriority, func() {
				if lost < 0 {
					a.locks.release(op.stripe)
					op.deliver()
					return
				}
				t := op.data[lost]
				op.data = slices.Delete(op.data, lost, lost+1)
				a.decodeLost(t.loc, nil, userPriority, func(v uint64) {
					a.locks.release(op.stripe)
					op.dst[t.unit-op.first] = v
					op.deliver()
				})
			})
		}
		if len(again) == 0 {
			finish(nil)
			return
		}
		a.io(again, userPriority, finish)
	})
}

// deliver puts the value of every unit read in dst, recycles the node and
// calls done. A unit whose disk failed while it was read gets the value it
// held when the read was issued: the platter answered before it went, and
// a replacement installed since holds nothing yet.
func (op *userOp) deliver() {
	a, done := op.a, op.done
	for _, t := range op.data {
		v := t.value
		if a.available(t.loc) {
			v = a.unitVal(t.loc)
		}
		op.dst[t.unit-op.first] = v
	}
	a.putOp(op)
	done()
}

// readLost reads a lost data unit into *v, then calls done: on-the-fly
// reconstruction from its stripe's survivors, under the stripe lock — a
// consistent multi-unit read that must not interleave with parity updates.
// Under RedirectPiggyback with a replacement installed, the value is also
// written there once the user has it.
func (a *Array) readLost(sp *telemetry.Span, unit int64, v *uint64, done func()) {
	loc := a.mapper.Loc(unit)
	stripe, _ := a.lay.Locate(loc)
	lockSp := sp.Child(telemetry.PhaseLockWait, a.eng.Now())
	a.locks.acquire(stripe, func() {
		lockSp.End(a.eng.Now())
		// Re-evaluate: reconstruction or healing may have happened
		// while waiting for the lock.
		if loc.Disk != a.failed || a.redirectableRead(loc) {
			a.phaseSpan = sp
			a.io([]xfer{{loc: loc}}, userPriority, func(fails []xfer) {
				a.repairThen(stripe, fails, nil, nil, userPriority, func() {
					a.locks.release(stripe)
					*v = a.unitVal(loc)
					done()
				})
			})
			return
		}
		a.mOTFRecons.Inc()
		otf := sp.Child(telemetry.PhaseOTF, a.eng.Now())
		a.decodeLost(loc, otf, userPriority, func(value uint64) {
			otf.End(a.eng.Now())
			if a.cfg.Algorithm == RedirectPiggyback && (a.replacement || a.spareLay != nil) && !a.reconDone[loc.Offset] {
				// The user's data is ready now; the piggybacked write to
				// the replacement continues under the stripe lock. Its
				// span is a fresh root: the user's response does not
				// include it.
				*v = value
				done()
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
			*v = value
			done()
		})
	})
}

// decodeLost decodes the lost unit loc under its stripe's lock, which the
// caller holds, and hands its value to then: it reads loc's
// layout.RebuildSources in a phase under sp, sends any of them found
// unreadable down the one repair path (repairThen) with the ones it read,
// and returns the sources it reads. The value is the sum of loc's layout.DecodeParity
// equation over them — a parity unit's sum over the data, a data unit's
// P sum over the others — taken from the model, which stands in for the
// backup when the repair found the stripe past its code's budget.
func (a *Array) decodeLost(loc layout.Loc, sp *telemetry.Span, prio int, then func(value uint64)) []layout.Loc {
	stripe, j := a.lay.Locate(loc)
	surv := layout.RebuildSources(a.lay, loc)
	phase := reads(surv)
	a.phaseSpan = sp
	a.io(phase, prio, func(fails []xfer) {
		a.repairThen(stripe, fails, phase, nil, prio, func() {
			then(a.paritySum(layout.DecodeParity(a.lay, stripe, j), stripe, surv))
		})
	})
	return surv
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

// read adds reads of locs to the first round.
func (op *userOp) read(locs ...layout.Loc) {
	for _, loc := range locs {
		op.rounds[0] = append(op.rounds[0], xfer{loc: loc})
	}
}

// writeAt adds to round r a write of loc, which takes the value v when the
// round completes.
func (op *userOp) writeAt(r int, loc layout.Loc, v uint64) {
	op.rounds[r] = append(op.rounds[r], xfer{loc: loc, write: true, val: v})
}

// writeData adds the covered data units' writes to round r.
func (op *userOp) writeData(r int) {
	for _, t := range op.data {
		op.writeAt(r, t.loc, t.value)
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
		op.writeAt(1, p.loc, v)
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
		op.writeAt(1, p.loc, v)
	}
}

// planFromScratch plans a write that builds every live parity from the
// stripe's new contents: read the data units the write leaves alone, then
// write the data, in round dataRound, and the parities. What it reads names
// the plan:
//
//   - nothing: the large write; at G = 2 mirroring, the parity unit a copy
//     of the data unit (Copeland & Keller's interleaved declustering, §3);
//   - some units: the reconstruct-write, or, with dataRound 0, the small
//     write, its one read overlapping the data write;
//   - with the written unit lost, whatever it reads: the fold. The parities
//     carry the new value until the sweep rebuilds it; once a replacement
//     is installed, every algorithm but Baseline also writes it there,
//     which counts as reconstruction.
//
// A lost unit among the ones it would read would cost a decode, so the
// read-modify-write runs instead, which never needs one.
func (op *userOp) planFromScratch(lost bool, dataRound int) {
	a := op.a
	others := op.uncovered()
	if !lost && slices.ContainsFunc(others, func(u layout.Loc) bool { return !a.available(u) }) {
		op.planRMW()
		return
	}
	op.read(others...)
	switch {
	case lost:
		op.names[0] = telemetry.PhaseFold
		op.redirect = (a.replacement || a.spareLay != nil) && a.cfg.Algorithm != Baseline
		op.writeParities(others)
		if op.redirect {
			op.writeData(1)
		}
		return
	case dataRound == 0:
		op.names = [2]string{telemetry.PhaseSWPreread, telemetry.PhaseSWCommit}
	case a.lay.G() == 2:
		op.names[0] = telemetry.PhaseMirror
	case len(others) == 0:
		op.names[0] = telemetry.PhaseCommit
	default:
		op.names = [2]string{telemetry.PhasePreread, telemetry.PhaseCommit}
	}
	op.writeData(dataRound)
	op.writeParities(others)
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

// uncovered returns the stripe's data units the write does not cover, in
// position order: nil, allocating nothing, when it covers them all.
func (op *userOp) uncovered() []layout.Loc {
	a := op.a
	var out []layout.Loc
	for d := 0; d < layout.DataPerStripe(a.lay); d++ {
		u := a.lay.Unit(op.stripe, layout.DataPos(a.lay, op.stripe, d))
		if !slices.ContainsFunc(op.data, func(t target) bool { return t.loc == u }) {
			out = append(out, u)
		}
	}
	return out
}

// writable reports whether every parity unit of the write's stripe and
// every unit the write covers is available.
func (op *userOp) writable() bool {
	a := op.a
	for k := 0; k < a.parities; k++ {
		if !a.available(layout.ParityLocOf(a.lay, op.stripe, k)) {
			return false
		}
	}
	return !slices.ContainsFunc(op.data, func(t target) bool { return !a.available(t.loc) })
}

// split recycles a multi-unit write and writes its units one at a time, as
// separate one-unit writes sharing its span and completion: the write of a
// stripe that has lost a unit or a parity is planned unit by unit.
func (op *userOp) split() {
	a, sp, part := op.a, op.span, join(len(op.data), op.done)
	units := make([]int64, len(op.data))
	for i, t := range op.data {
		units[i] = t.unit
	}
	a.putOp(op)
	for _, n := range units {
		a.writeUnits(sp, part, n)
	}
}

// plan is the array's one write planner. It runs with the stripe lock
// held, so the failure state it sees cannot change under it, and starts
// the plan it makes. The plan depends only on what the stripe has and on
// how many of its data units the write covers, weighed by the rule the
// store plans by, layout.FromScratch:
//
//   - no live parity: there is nothing to keep, so the write is the data
//     alone (§7); the parity is recomputed from data when its turn in the
//     sweep comes.
//   - single parity, G = 3, one unit written: the small write (§6's
//     α = 0.1 exception) — overlap the read of the other data unit with the
//     data write, then write parity from the two new values, three
//     accesses; the store takes the four-access delta here. The overlap
//     has a price under latent errors: if the read fails, the old data
//     that would decode the other unit is already overwritten, so that
//     unit is lost (repairLocked).
//   - the written unit lost, or layout.FromScratch: build every live parity
//     from the stripe's new contents (planFromScratch).
//   - otherwise: read-modify-write over the live parities (planRMW).
//
// A multi-unit write whose stripe lost a unit or a parity while it waited
// for the lock is split, as WriteRange splits it before the lock.
func (op *userOp) plan() {
	a := op.a
	op.phase.End(a.eng.Now()) // lock wait is over; run opens the next phase
	if len(op.data) > 1 && !op.writable() {
		a.locks.release(op.stripe)
		op.split()
		return
	}
	op.findLive()
	g, k, lost := a.lay.G(), len(op.data), !a.available(op.data[0].loc)
	switch {
	case len(op.live) == 0:
		op.names[0] = telemetry.PhaseDataWrite
		op.writeData(1)
	case a.parities == 1 && g == 3 && k == 1 && !lost:
		op.planFromScratch(false, 0)
	case lost || layout.FromScratch(g-a.parities, k):
		op.planFromScratch(lost, 1)
	default:
		op.planRMW()
	}
	op.run()
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
// continues, reading none of the round's clean reads again. The units the
// write covers are not booked lost if the stripe is past its budget: they
// take the write's new contents.
func (op *userOp) repair(fails []xfer) {
	op.a.repairThen(op.stripe, fails, op.rounds[0], op.data, userPriority, op.commitFn)
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
	a, done := op.a, op.done
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
