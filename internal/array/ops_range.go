package array

import (
	"fmt"

	"declust/internal/layout"
	"declust/internal/telemetry"
)

// Range operations: multi-unit user accesses. The paper's simulations use
// 4 KB (single-unit) accesses, but its §4.1 criteria 5 and 6 exist for the
// sake of larger ones: a write covering a whole parity stripe needs no
// pre-reads (large-write optimization), and a read of C consecutive units
// wants C distinct disks (maximal parallelism). These paths make both
// effects measurable.

// stripeGroup collects the portion of a range that falls in one parity
// stripe.
type stripeGroup struct {
	stripe int64
	units  []int64      // logical data units
	locs   []layout.Loc // their stripe units, parallel to units
}

// groupByStripe splits [unit, unit+count) by owning parity stripe,
// preserving encounter order.
func (a *Array) groupByStripe(unit int64, count int) []stripeGroup {
	order := make(map[int64]int)
	var groups []stripeGroup
	for n := unit; n < unit+int64(count); n++ {
		loc := a.mapper.Loc(n)
		s, _ := a.lay.Locate(loc)
		i, ok := order[s]
		if !ok {
			i = len(groups)
			order[s] = i
			groups = append(groups, stripeGroup{stripe: s})
		}
		groups[i].units = append(groups[i].units, n)
		groups[i].locs = append(groups[i].locs, loc)
	}
	return groups
}

// join invokes done after n sub-completions.
func join(n int, done func()) func() {
	if n <= 0 {
		panic("array: join of zero parts")
	}
	return func() {
		n--
		if n == 0 {
			done()
		}
	}
}

// ReadRange reads count consecutive logical data units starting at unit,
// invoking done when all are available. Healthy units are read directly
// (in parallel across disks); lost units reconstruct on the fly exactly as
// single-unit reads do.
func (a *Array) ReadRange(unit int64, count int, done func()) {
	a.checkRange(unit, count)
	a.mUserReads.Inc()
	sp := a.takeOpSpan()
	groups := a.groupByStripe(unit, count)
	part := join(len(groups), done)
	for _, grp := range groups {
		grp := grp
		var direct []layout.Loc
		lost := int64(-1)
		for _, loc := range grp.locs {
			if loc.Disk != a.failed || a.redirectableRead(loc) {
				direct = append(direct, loc)
			} else {
				lost = a.mapper.Index(grp.stripe, a.posOf(loc, grp.stripe))
			}
		}
		sub := 0
		if len(direct) > 0 {
			sub++
		}
		if lost >= 0 {
			sub++
		}
		grpDone := join(sub, part)
		if len(direct) > 0 {
			a.phaseSpan = sp
			a.io(reads(direct), userPriority, func(fails []xfer) {
				if len(fails) == 0 {
					grpDone()
					return
				}
				a.locks.acquire(grp.stripe, func() {
					a.repairLocked(grp.stripe, fails, userPriority, func() {
						a.locks.release(grp.stripe)
						grpDone()
					})
				})
			})
		}
		if lost >= 0 {
			// At most one unit per stripe can be lost; reuse the
			// single-unit degraded read path (locking, redirection,
			// piggybacking included). Its phases nest under this
			// range's root span.
			a.SetOpSpan(sp)
			a.read(lost, func(uint64) { grpDone() })
		}
	}
}

// posOf returns loc's position within stripe s.
func (a *Array) posOf(loc layout.Loc, s int64) int {
	s2, j := a.lay.Locate(loc)
	if s2 != s {
		panic(fmt.Sprintf("array: location %v not in stripe %d", loc, s))
	}
	return j
}

// WriteRange writes count consecutive logical data units starting at unit.
// Per stripe touched, the driver picks the cheapest correct path:
//
//   - large write: the group covers all G−1 data units and every unit
//     (including parity) is writable — write all G units, no pre-reads;
//   - read-modify-write: pre-read the k old data units and parity, write
//     k+1 (2k+2 accesses);
//   - reconstruct-write: read the G−1−k untouched data units, write k+1
//     (G accesses) — cheaper than RMW when k+2 > G−k;
//   - degraded stripes (a lost, unreconstructed unit among data or
//     parity) fall back to the single-unit degraded paths per unit.
func (a *Array) WriteRange(unit int64, count int, done func()) {
	a.checkRange(unit, count)
	a.mUserWrites.Inc()
	sp := a.takeOpSpan()
	groups := a.groupByStripe(unit, count)
	part := join(len(groups), done)
	for _, grp := range groups {
		a.writeGroup(grp, sp, part)
	}
}

func (a *Array) writeGroup(grp stripeGroup, sp *telemetry.Span, done func()) {
	// Degraded stripes use the single-unit paths, which handle folding,
	// redirection and reconstruction marking; the group degenerates to
	// per-unit writes.
	perUnit := func() {
		part := join(len(grp.units), done)
		for _, n := range grp.units {
			a.SetOpSpan(sp)
			a.write(n, part)
		}
	}
	if !a.groupWritable(grp) {
		perUnit()
		return
	}
	op := a.getOp()
	op.stripe = grp.stripe
	for i, n := range grp.units {
		op.data = append(op.data, target{unit: n, loc: grp.locs[i], value: a.newValue()})
	}
	op.writeDone = done
	op.span = sp
	op.phase = sp.Child(telemetry.PhaseLockWait, a.eng.Now())
	a.locks.acquire(grp.stripe, func() {
		op.phase.End(a.eng.Now())
		op.phase = nil
		// State may have changed while waiting; bail to per-unit writes
		// if the stripe degraded (writeLocked handles every case, but
		// we must not hold the lock across its own acquire).
		if !a.groupWritable(grp) {
			a.locks.release(grp.stripe)
			a.putOp(op)
			perUnit()
			return
		}
		op.planGroup()
		op.run()
	})
}

// groupWritable reports whether a stripe group can be written as a whole:
// every parity unit and every unit the group covers is available.
func (a *Array) groupWritable(grp stripeGroup) bool {
	for k := 0; k < a.parities; k++ {
		if !a.available(layout.ParityLocOf(a.lay, grp.stripe, k)) {
			return false
		}
	}
	return a.allAvailable(grp.locs)
}

// planGroup plans a whole-group write (see WriteRange) of k data units,
// its stripe locked and groupWritable.
func (op *userOp) planGroup() {
	a := op.a
	op.findLive()
	others := op.uncovered()
	switch k := len(op.data); {
	case len(others) == 0:
		// Large write: parity from the new data alone.
		op.names[0] = telemetry.PhaseCommit
		op.writeData(1)
		op.writeParities(nil)
	case 2*(k+a.parities) <= a.lay.G() || !a.allAvailable(others):
		// Reconstruct-write would pre-read the stripe's untouched data
		// units, so it is only eligible when they are all readable (they
		// may include a lost, unreconstructed unit even though everything
		// the group writes is available).
		op.planRMW()
	default:
		// Reconstruct-write: read the untouched data units.
		op.names = [2]string{telemetry.PhasePreread, telemetry.PhaseCommit}
		op.read(others...)
		op.writeData(1)
		op.writeParities(others)
	}
}

func (a *Array) checkRange(unit int64, count int) {
	if count <= 0 {
		panic(fmt.Sprintf("array: range of %d units", count))
	}
	if unit < 0 || unit+int64(count) > a.dataUnits {
		panic(fmt.Sprintf("array: range [%d,%d) outside data space [0,%d)",
			unit, unit+int64(count), a.dataUnits))
	}
}
