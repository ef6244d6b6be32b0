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

// paritySum is the k-th parity of the current contents of the units a
// round of one stripe's transfers reads. With k = 0 it is a plain XOR and
// the units may include parity units too (the P equation sums to zero over
// the stripe).
func (a *Array) paritySum(k int, stripe int64, xs []xfer) uint64 {
	var v uint64
	for _, x := range xs {
		v ^= a.term(k, stripe, x.loc, a.unitVal(x.loc))
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

// userOp tracks one stripe's share of a user operation through its rounds
// of transfers. A read's share is a plan's one round of reads: the direct
// reads of the units its disks still hold, whose values land in dst when
// the round completes (fetched), or, when the span holds the stripe's lost
// unit or the direct round met a media error, the reads layout.PlanStripe
// lists, under the stripe lock, their repair and the decode (locked). A
// write's share — of a WriteRange — is, once its stripe lock is held, a
// plan of at most two rounds, the units of the second usually being the
// ones the first pre-read: layout.PlanStripe's, priced here, or §6's small
// write, the one plan the simulator makes itself (price). run plays it:
// round 1, repair of its failed reads, round 2, finish. Every write
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
// steady state, whatever the stripe's condition.
type userOp struct {
	a        *Array
	stripe   int64
	data     []target // the units read, or what a write covers
	pos      []int    // data's positions in the stripe
	erased   []int    // the stripe's positions the plan treats as lost
	plan     layout.Plan
	rounds   [2][]xfer
	names    [2]string  // span of round 1 (or of a lone round 2), and of round 2 ("" stays in it)
	redirect bool       // the plan writes its lost data unit to the replacement, reconstructing it
	rebuilt  layout.Loc // that unit
	first    int64      // a read's first unit: unit n lands in dst[n-first]
	dst      []uint64
	done     func()
	span     *telemetry.Span // root span handed over by the caller; nil when off
	phase    *telemetry.Span // open lifecycle-phase child, ended by the stage that retires it

	// Stage continuations, bound once per node; a read and a write share
	// the ones after the lock.
	fetchedFn    func([]xfer)
	lockedFn     func()
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
	g := a.lay.G()
	buf := make([]int, 5*g) // one allocation: pos, erased and the plan's three lists
	op := &userOp{a: a, pos: buf[:0:g], erased: buf[g : g : 2*g],
		plan: layout.Plan{Reads: buf[2*g : 2*g : 3*g], Decode: buf[3*g : 3*g : 4*g], Writes: buf[4*g : 4*g : 5*g]}}
	op.fetchedFn = op.fetched
	op.lockedFn = op.locked
	op.repairFn = op.repair
	op.commitFn = op.commit
	op.commitDoneFn = op.commitDone
	return op
}

func (a *Array) putOp(op *userOp) {
	op.data = op.data[:0]
	op.pos = op.pos[:0]
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
// value over and recycles the node before answering. A read that met a
// media error serves nothing from them: it clears its round and runs again
// under the stripe lock (locked), which plans afresh — a writer may have
// rewritten the units meanwhile, and a unit whose disk failed since is lost
// by then, which the plan decodes — and repairs what that round finds
// unreadable (the repair updates the platter, racing parity writers), so
// the user's latency includes the recovery. The store does the same: a span
// read that met damage under the read lock is served again under the write
// lock.
func (op *userOp) fetched(fails []xfer) {
	if len(fails) == 0 {
		op.deliver()
		return
	}
	op.rounds[0] = op.rounds[0][:0]
	op.a.locks.acquire(op.stripe, op.lockedFn)
}

// deliver puts the value of every unit read in dst, recycles the node and
// calls done. A unit its disk cannot serve — lost, or failed while it was
// read — gets the value planned for it: the one decoded, or the one it
// held when its read was issued (the platter answered before it went, and
// a replacement installed since holds nothing yet).
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

// erasures lists in out the positions of stripe an op must treat as lost:
// none while no disk is failed, or else the failed disk's unit, unless it
// serves the op directly — available, to a write; to a read, readable from
// its rebuilt copy (redirectableRead).
func (a *Array) erasures(stripe int64, read bool, out []int) []int {
	out = out[:0]
	for j := 0; a.failed >= 0 && j < a.lay.G(); j++ {
		if u := a.lay.Unit(stripe, j); u.Disk == a.failed && (read && !a.redirectableRead(u) || !read && !a.available(u)) {
			out = append(out, j)
		}
	}
	return out
}

// locked plans the op once its stripe lock is held, so the failure state
// it sees cannot change under it, and starts it: a write's share (price),
// or a read's that holds the lost unit or whose direct round met damage.
func (op *userOp) locked() {
	a, read := op.a, op.dst != nil
	op.phase.End(a.eng.Now()) // lock wait is over; the plan opens the next phase
	for _, t := range op.data {
		_, j := a.lay.Locate(t.loc)
		op.pos = append(op.pos, j)
	}
	op.erased = a.erasures(op.stripe, read, op.erased)
	layout.PlanStripe(&op.plan, a.lay, op.stripe, !read, op.pos, op.erased)
	if !read {
		op.price()
		op.run()
		return
	}
	// A read's share that holds the lost unit (§7: a consistent multi-unit
	// read must not interleave with parity updates), or that met damage.
	// Its plan — the unit may have been rebuilt while the read waited, and
	// is then read directly; a unit whose disk failed since it was read is
	// lost, and decoded — reads one round: the span, or, holding a lost
	// unit, the span's other units and the decode's sources, G − m in all.
	// The round's unreadable units are repaired (repair) before the read
	// finishes (decoded).
	for _, j := range op.plan.Reads {
		op.read(a.lay.Unit(op.stripe, j))
	}
	a.phaseSpan = op.span
	if len(op.plan.Decode) > 0 {
		a.mOTFRecons.Inc()
		op.phase = op.span.Child(telemetry.PhaseOTF, a.eng.Now())
		a.phaseSpan = op.phase
	}
	a.io(op.rounds[0], userPriority, op.repairFn)
}

// decoded finishes a locked read: the lost unit's value is its
// layout.DecodeParity equation summed over what the round read — taken
// from the model, which stands in for the backup when the repair found the
// stripe past its code's budget. The array holds one failed disk, so a
// read decodes at most one unit. Under RedirectPiggyback with a
// replacement installed, the value is also written there once the user has
// it, under the stripe lock, in a root span of its own: the user's
// response does not include it.
func (op *userOp) decoded() {
	a, stripe := op.a, op.stripe
	if len(op.plan.Decode) == 0 {
		a.locks.release(stripe)
		op.deliver()
		return
	}
	j := op.plan.Decode[0]
	lost, value := a.lay.Unit(stripe, j), a.paritySum(layout.DecodeParity(a.lay, stripe, j), stripe, op.rounds[0])
	i := slices.Index(op.pos, j)
	op.data[i].value = value
	unit := op.data[i].unit
	op.phase.End(a.eng.Now())
	piggyback := a.cfg.Algorithm == RedirectPiggyback && (a.replacement || a.spareLay != nil) && !a.reconDone[lost.Offset]
	if !piggyback {
		a.locks.release(stripe)
	}
	op.deliver()
	if !piggyback {
		return
	}
	pg := a.spans.Root(telemetry.PhasePiggyback, telemetry.KindRecon, unit, a.eng.Now())
	a.phaseSpan = pg
	a.io([]xfer{{loc: lost, write: true}}, userPriority, func(_ []xfer) {
		a.setUnitVal(lost, value)
		a.markReconstructed(lost.Offset)
		pg.End(a.eng.Now())
		a.locks.release(stripe)
	})
}

// decodeLost is the rebuild sweep's decode (reconStep): it decodes the lost
// unit loc under its stripe's lock, which the caller holds, and hands its
// value to then: it reads loc's layout.RebuildSources in a phase under sp,
// sends any of them found unreadable down the one repair path (repairThen)
// with the ones it read, and returns the sources it reads. A user read
// decodes through its plan instead (locked). The value is the sum of loc's
// layout.DecodeParity equation over them — a parity unit's sum over the
// data, a data unit's P sum over the others — taken from the model, which
// stands in for the backup when the repair found the stripe past its
// code's budget.
func (a *Array) decodeLost(loc layout.Loc, sp *telemetry.Span, prio int, then func(value uint64)) []layout.Loc {
	stripe, j := a.lay.Locate(loc)
	surv := layout.RebuildSources(a.lay, loc)
	phase := reads(surv)
	a.phaseSpan = sp
	a.io(phase, prio, func(fails []xfer) {
		a.repairThen(stripe, fails, phase, nil, prio, func() {
			then(a.paritySum(layout.DecodeParity(a.lay, stripe, j), stripe, phase))
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

// price turns a write's plan into the two rounds of transfers, each write
// carrying its unit's new value, and names their phases:
//
//   - the delta: pre-read the written data and the live parities, then
//     overwrite them all, each parity moved by the data's change — 2(k+1)
//     accesses with one live parity, the paper's four for k = 1 (§6);
//     2(k+2) with P and Q live. With no live parity there is nothing to
//     keep, and the data is written alone (§7);
//   - from scratch: read the data units the write leaves alone, then write
//     the data and every live parity, built from the stripe's new contents
//     — nothing read for the large write (at G = 2 mirroring, the parity a
//     copy of the data, Copeland & Keller's interleaved declustering, §3),
//     some units for the reconstruct-write, and with a written unit lost
//     the fold: the parities carry its new value until the sweep rebuilds
//     it, and once a replacement is installed every algorithm but Baseline
//     also writes it there, which counts as reconstruction.
//
// It overrides the plan once: a one-unit write to a whole single-parity
// stripe of G = 3 is §6's small write (its α = 0.1 exception), where the
// layout plans the delta — overlap the read of the other data unit with the
// data write, then write P from the two new values, three accesses. The
// store takes the delta. The overlap has a price under latent errors: if
// the read fails, the old data that would decode the other unit is
// already overwritten, so that unit is lost (repairLocked).
func (op *userOp) price() {
	a, p := op.a, &op.plan
	if a.parities == 1 && a.lay.G() == 3 && len(op.data) == 1 && len(op.erased) == 0 {
		t := op.data[0]
		other := a.lay.Unit(op.stripe, 3-op.pos[0]-a.lay.ParityPos(op.stripe, 0))
		op.names = [2]string{telemetry.PhaseSWPreread, telemetry.PhaseSWCommit}
		op.read(other)
		op.writeAt(0, t.loc, t.value)
		op.writeAt(1, layout.ParityLoc(a.lay, op.stripe), a.unitVal(other)^t.value)
		return
	}
	for _, j := range p.Reads {
		op.read(a.lay.Unit(op.stripe, j))
	}
	fold := false
	for _, j := range p.Writes {
		loc := a.lay.Unit(op.stripe, j)
		switch i := slices.Index(op.pos, j); {
		case i < 0:
			op.writeAt(1, loc, op.parity(j, loc))
		case !a.available(loc):
			fold = true
			op.redirect, op.rebuilt = (a.replacement || a.spareLay != nil) && a.cfg.Algorithm != Baseline, loc
			if op.redirect {
				op.writeAt(1, loc, op.data[i].value)
			}
		default:
			op.writeAt(1, loc, op.data[i].value)
		}
	}
	switch {
	case !p.FromScratch && len(p.Reads) == 0:
		op.names[0] = telemetry.PhaseDataWrite
	case fold:
		op.names[0] = telemetry.PhaseFold
	case p.FromScratch && a.lay.G() == 2:
		op.names[0] = telemetry.PhaseMirror
	case len(p.Reads) == 0:
		op.names[0] = telemetry.PhaseCommit
	default:
		op.names = [2]string{telemetry.PhasePreread, telemetry.PhaseCommit}
	}
}

// parity is the new value of the stripe's parity unit at position j, loc
// — P's or Q's sum: under the delta its old value moved by each written
// unit's change; from scratch the sum of the new data and of the units the
// first round reads, which are the data units the write leaves alone.
func (op *userOp) parity(j int, loc layout.Loc) uint64 {
	a, k := op.a, 0
	if j != a.lay.ParityPos(op.stripe, 0) {
		k = 1
	}
	var v uint64
	if op.plan.FromScratch {
		v = a.paritySum(k, op.stripe, op.rounds[0])
		for _, t := range op.data {
			v ^= a.term(k, op.stripe, t.loc, t.value)
		}
		return v
	}
	v = a.unitVal(loc)
	for _, t := range op.data {
		v ^= a.term(k, op.stripe, t.loc, a.unitVal(t.loc)^t.value)
	}
	return v
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
// continues, reading none of the round's clean reads again. The units a
// write covers are not booked lost if the stripe is past its budget: they
// take the write's new contents. A read overwrites nothing.
func (op *userOp) repair(fails []xfer) {
	written := op.data
	if op.dst != nil {
		written = nil
	}
	op.a.repairThen(op.stripe, fails, op.rounds[0], written, userPriority, op.commitFn)
}

// commit issues a write's second round, or finishes a locked read
// (decoded).
func (op *userOp) commit() {
	a := op.a
	if op.dst != nil {
		op.decoded()
		return
	}
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
		a.markReconstructed(op.rebuilt.Offset)
	}
	op.phase.End(a.eng.Now())
	a.locks.release(op.stripe)
	a.putOp(op)
	done()
}
