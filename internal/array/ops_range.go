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

// WriteRange writes count consecutive logical data units starting at unit,
// invoking done when the array has committed data and parity. It is the
// array's one way to write: each stripe's share of the range is one write,
// planned once its stripe lock is held (userOp.plan) by the rule the store
// plans by — large write, reconstruct-write or read-modify-write, with the
// fold and the small write among them. The share of a stripe that has lost
// a unit or a parity is written unit by unit.
func (a *Array) WriteRange(unit int64, count int, done func()) {
	a.checkRange(unit, count)
	a.mUserWrites.Inc()
	sp := a.takeOpSpan()
	if count == 1 {
		a.writeUnits(sp, done, unit) // nothing to group, nothing allocated
		return
	}
	groups := a.groupByStripe(unit, count)
	part := join(len(groups), done)
	for _, grp := range groups {
		a.writeUnits(sp, part, grp.units...)
	}
}

// writeUnits writes units, which share one stripe, as one write under the
// stripe's lock, then calls done; sp is the user operation's root span.
func (a *Array) writeUnits(sp *telemetry.Span, done func(), units ...int64) {
	op := a.getOp()
	for _, n := range units {
		op.data = append(op.data, target{unit: n, loc: a.mapper.Loc(n), value: a.newValue()})
	}
	op.stripe, _ = a.lay.Locate(op.data[0].loc)
	op.writeDone = done
	op.span = sp
	if len(units) > 1 && !op.writable() {
		op.split()
		return
	}
	op.phase = sp.Child(telemetry.PhaseLockWait, a.eng.Now())
	a.locks.acquire(op.stripe, op.planFn)
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
