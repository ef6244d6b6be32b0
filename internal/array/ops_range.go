package array

import (
	"fmt"

	"declust/internal/telemetry"
)

// Range operations: multi-unit user accesses. The paper's simulations use
// 4 KB (single-unit) accesses, but its §4.1 criteria 5 and 6 exist for the
// sake of larger ones: a write covering a whole parity stripe needs no
// pre-reads (large-write optimization), and a read of C consecutive units
// wants C distinct disks (maximal parallelism). These paths make both
// effects measurable.

// groupByStripe splits [unit, unit+count) by owning parity stripe,
// preserving encounter order: the units of each stripe the range touches.
func (a *Array) groupByStripe(unit int64, count int) [][]int64 {
	order := make(map[int64]int)
	var groups [][]int64
	for n := unit; n < unit+int64(count); n++ {
		s, _ := a.lay.Locate(a.mapper.Loc(n))
		i, ok := order[s]
		if !ok {
			i = len(groups)
			order[s] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], n)
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

// ReadRange reads len(dst) consecutive logical data units starting at unit
// into dst, invoking done once every value has landed. It is the array's
// one way to read, as WriteRange is its one way to write: each stripe's
// share of the range is one read (readUnits). Healthy units are read
// directly, in parallel across disks; a lost unit is reconstructed on the
// fly or, under the Redirect algorithms once rebuilt, read from the
// replacement.
func (a *Array) ReadRange(unit int64, dst []uint64, done func()) {
	a.checkRange(unit, len(dst))
	a.mUserReads.Inc()
	sp := a.takeOpSpan()
	if len(dst) == 1 {
		a.readUnits(sp, unit, dst, done, unit) // nothing to group, nothing allocated
		return
	}
	groups := a.groupByStripe(unit, len(dst))
	part := join(len(groups), done)
	for _, units := range groups {
		a.readUnits(sp, unit, dst, part, units...)
	}
}

// readUnits reads units, which share one stripe, into dst — unit n lands in
// dst[n-first] — then calls done; sp is the user operation's root span. The
// units a disk can serve (redirectableRead counts a rebuilt one) are one
// round of direct reads; the stripe's lost unit, if the range holds it, is
// read by readLost.
func (a *Array) readUnits(sp *telemetry.Span, first int64, dst []uint64, done func(), units ...int64) {
	op := a.getOp()
	lost := int64(-1)
	for _, n := range units {
		if loc := a.mapper.Loc(n); loc.Disk != a.failed || a.redirectableRead(loc) {
			op.data = append(op.data, target{unit: n, loc: loc, value: a.unitVal(loc)})
			op.read(loc)
		} else {
			lost = n
		}
	}
	if len(op.data) == 0 {
		a.putOp(op)
		a.readLost(sp, lost, &dst[lost-first], done)
		return
	}
	if lost >= 0 {
		done = join(2, done)
	}
	op.stripe, _ = a.lay.Locate(op.data[0].loc)
	op.first, op.dst, op.done = first, dst, done
	a.phaseSpan = sp // segments attach to the root: one phase only
	a.io(op.rounds[0], userPriority, op.fetchedFn)
	if lost >= 0 {
		a.readLost(sp, lost, &dst[lost-first], done)
	}
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
	for _, units := range groups {
		a.writeUnits(sp, part, units...)
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
	op.done = done
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
	if unit < 0 || unit > a.dataUnits-int64(count) {
		panic(fmt.Sprintf("array: %d units at %d outside data space [0,%d)", count, unit, a.dataUnits))
	}
}
