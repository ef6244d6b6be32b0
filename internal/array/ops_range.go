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
// directly, in parallel across disks; a share that holds a lost unit is
// read under its stripe lock in one round, which decodes the unit on the
// fly or, under the Redirect algorithms once rebuilt, reads it from the
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
// dst[n-first] — then calls done; sp is the user operation's root span.
// When a disk can serve every unit (redirectableRead counts a rebuilt one)
// they are one round of direct reads; when the share holds the stripe's
// lost unit, or the direct round met a media error (userOp.fetched), it
// waits for the stripe lock and reads what its plan names (userOp.locked).
func (a *Array) readUnits(sp *telemetry.Span, first int64, dst []uint64, done func(), units ...int64) {
	op := a.getOp()
	direct := true
	for _, n := range units {
		loc := a.mapper.Loc(n)
		op.data = append(op.data, target{unit: n, loc: loc, value: a.unitVal(loc)})
		direct = direct && (loc.Disk != a.failed || a.redirectableRead(loc))
	}
	op.stripe, _ = a.lay.Locate(op.data[0].loc)
	op.first, op.dst, op.done, op.span = first, dst, done, sp
	if !direct {
		op.phase = sp.Child(telemetry.PhaseLockWait, a.eng.Now())
		a.locks.acquire(op.stripe, op.lockedFn)
		return
	}
	for _, t := range op.data {
		op.read(t.loc)
	}
	a.phaseSpan = sp // segments attach to the root: one phase only
	a.io(op.rounds[0], userPriority, op.fetchedFn)
}

// WriteRange writes count consecutive logical data units starting at unit,
// invoking done when the array has committed data and parity. It is the
// array's one way to write: each stripe's share of the range is one write,
// planned once its stripe lock is held (userOp.locked) by the plan the
// store runs too, layout.PlanStripe — large write, reconstruct-write,
// read-modify-write or fold — or as §6's small write.
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
	op.phase = sp.Child(telemetry.PhaseLockWait, a.eng.Now())
	a.locks.acquire(op.stripe, op.lockedFn)
}

func (a *Array) checkRange(unit int64, count int) {
	if count <= 0 {
		panic(fmt.Sprintf("array: range of %d units", count))
	}
	if unit < 0 || unit > a.dataUnits-int64(count) {
		panic(fmt.Sprintf("array: %d units at %d outside data space [0,%d)", count, unit, a.dataUnits))
	}
}
