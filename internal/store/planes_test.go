package store

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"declust/internal/array"
	"declust/internal/disk"
	"declust/internal/drive"
	"declust/internal/layout"
	"declust/internal/sim"
)

// TestPlanesAgree holds the storage engine to the simulator, its
// executable specification. One seeded stream of steps — unit and range
// reads and writes, aligned and not, a disk failing, a rebuild onto a fresh
// replacement, a latent unit placed on a disk — runs on both planes: the
// simulator on its event engine until idle, the store serially (IOWorkers
// 1, RebuildWorkers 1). Both planes' disks hold the same latent units, one
// drive.Latent per disk and plane, and count every access, the
// replacement's too. After every step the planes must agree on each unit's
// backend reads and writes, on what every read returned (the last value
// written, or lost in both: the store's ErrUnrecoverable), on the units
// healed and lost, on the latent units left, and on parity
// (CheckConsistency, CheckParity). Where a count rule differs, planeRows
// names it and its reason, and the test adds the difference it pins; every
// other difference fails the test with its seed and the step list shrunk
// to a minimal one.
//
// The fixed seeds reach every decode shape: a lone data unit, P and Q, the
// pairs {P,Q}, {P,d}, {d,Q} and {d,d}, and a stripe past its budget; -v
// prints the shapes and rows each configuration reached. One more seed is
// fresh each run (printed; CHAOS_SEED replays it, and STORE_CHAOS_DIR keeps
// a failing one).
func TestPlanesAgree(t *testing.T) {
	fresh := chaosSeed(t)
	recordChaosSeed(t, fresh)
	shapes := map[string]bool{} // reached by the fixed seeds
	for _, cfg := range []struct {
		name  string
		lay   layout.Layout
		seeds []int64
	}{
		{"P/G=3", testLayout(t, 7, 3), []int64{1, 2, 3, 4}},
		{"P/G=4", testLayout(t, 7, 4), []int64{1, 2, 3, 4}},
		{"P+Q/G=4", testPQLayout(t, 7, 4), []int64{1, 2, 3, 4, 5, 6, 7, 8}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			var rows [len(planeRows)]int
			reached := map[string]bool{}
			for _, seed := range append(cfg.seeds, fresh) {
				steps := genSteps(cfg.lay, seed, planeSteps)
				res := replay(cfg.lay, steps)
				if res.at >= 0 {
					min := shrink(cfg.lay, steps[:res.at+1])
					why := replay(cfg.lay, min).err
					t.Errorf("seed %d: step %d, %v: %v\nshrunk to %d steps: %v\n%v", seed, res.at, steps[res.at], res.err, len(min), min, why)
					continue
				}
				for i, n := range res.rows {
					rows[i] += n
				}
				for s := range res.shapes {
					reached[s] = true
					if seed != fresh {
						shapes[s] = true
					}
				}
			}
			t.Logf("decode shapes both planes reached: %s", strings.Join(sortedKeys(reached), " "))
			for i, r := range planeRows {
				t.Logf("%-18s met %d times", r.rule, rows[i])
			}
		})
	}
	for _, s := range []string{"{d}", "{P}", "{Q}", "{P,Q}", "{P,d}", "{d,Q}", "{d,d}", "past the budget"} {
		if !shapes[s] {
			t.Errorf("no fixed seed reached the decode shape %s", s)
		}
	}
}

// planeSteps is the length of one seed's stream.
const planeSteps = 100

// planeSectors is the simulator's unit size in sectors: its 1/1000-scale
// drive of 1344 sectors holds 24 units, as the store's disks do.
const planeSectors = 56

// planeUnitSize is the store's unit size: small, since only counts and
// patterns are compared.
const planeUnitSize = 64

// planeRow is one count rule on which the store differs from the
// simulator on purpose.
type planeRow struct {
	rule   string
	reason string
}

// The rows of planeRows.
const (
	rowSmallWrite = iota
	rowSharedDecode
	rowTwoDown
	rowCarryOn
)

// planeRows is the one list of the count rules on which the store and the
// simulator differ, each with its reason; DESIGN.md §6 points here. Every
// row is deliberate: within one lock hold both planes read a unit once
// (the store's record of the hold, stripeScratch), and the rows that read
// more read under a new hold. A row that changes counts adds exactly the
// store's extra reads its rule names (want), a row that changes what the
// stream plays says so, and no row is keyed to a seed.
var planeRows = [...]planeRow{
	rowSmallWrite: {"small write",
		"a one-unit write to a healthy single-parity stripe of G = 3 is §6's small write in the simulator: it reads the other data unit beside the data write, then writes P. " +
			"The store takes the delta as at every G: it reads the old data and P, and not the other data unit. One more store read of each of the two, one fewer of the other unit. " +
			"The two meet different units, so with a latent unit in the stripe they heal or lose different ones (the simulator loses a latent other unit: its data write has overwritten the old data a decode would need); " +
			"the stream passes such a write over on both planes"},
	rowSharedDecode: {"shared-lock decode",
		"the store reads a span that holds its stripe's lost unit under the stripe's shared read lock; when that pass meets damage it serves nothing, and the span is served again from the start under the write lock, a new hold: the read lock was released, so a writer may have rewritten what the read read. " +
			"So the store reads its degraded span's plan again under the write lock; the simulator reads and repairs under its one exclusive lock. One more read of each unit of the plan"},
	rowTwoDown: {"two disks down",
		"the simulator holds one failed disk (SecondFail restores the second at once), so the stream fails one disk at a time, under P+Q too"},
	rowCarryOn: {"carryOn re-run",
		"after a loss the store runs the operation again on the rewritten stripe (carryOn), under a new record, so as to find a rewrite the device dropped: a read or a write reads its first round again; " +
			"a rebuild of a parity unit, which the rewrite does not write, decodes it again. The simulator carries on from the rewrite. One more read of each"},
}

// stepKind is what one step of the stream does.
type stepKind uint8

const (
	stepRead    stepKind = iota // ReadRange (ReadUnit for one unit) of n units from unit
	stepWrite                   // WriteRange (WriteUnit for one unit) of n units from unit
	stepFail                    // Fail(loc.Disk)
	stepRebuild                 // a fresh replacement for the failed disk, rebuilt to completion
	stepLatent                  // the unit at loc turns latent on both planes
)

// step is one step of the stream. A step the state does not allow — a
// second failure, a rebuild with nothing failed, a latent unit on the
// failed disk — is passed over, so any sublist of a stream is a stream.
type step struct {
	kind    stepKind
	unit, n int64
	loc     layout.Loc
}

func (s step) String() string {
	switch s.kind {
	case stepRead:
		return fmt.Sprintf("read(%d,%d)", s.unit, s.n)
	case stepWrite:
		return fmt.Sprintf("write(%d,%d)", s.unit, s.n)
	case stepFail:
		return fmt.Sprintf("fail(%d)", s.loc.Disk)
	case stepRebuild:
		return "rebuild"
	default:
		return fmt.Sprintf("latent(%v)", s.loc)
	}
}

// tally is one unit's backend accesses in one step.
type tally struct{ reads, writes int }

// planes is the two planes on one layout, and the stream's model of them.
type planes struct {
	lay layout.Layout
	upd int64 // units per disk, both planes
	m   int   // parities per stripe
	dps int64 // data units per stripe

	eng    *sim.Engine
	arr    *array.Array
	simLat []drive.Latent // per disk, keyed by unit

	st  *Store
	lat *latentUnits

	mu    sync.Mutex // the store's rebuild sweep runs on a goroutine of its own
	quiet bool       // the store's accesses are a check's: neither counted nor faulted
	count [2][]tally // per plane (0 simulator, 1 store), per unit: disk·upd + offset

	version []uint64 // the store's last version written to each data unit
	lost    []bool   // data units the simulator booked lost, not since written
	losses  int      // the simulator's loss events consumed
	failed  int      // the failed disk, or −1

	want   []int // the store's reads per unit beyond the simulator's, this step
	rows   [len(planeRows)]int
	shapes map[string]bool
	latent map[layout.Loc]bool // the model's latent units, on live disks
}

// newPlanes builds both planes on lay: the simulator's 1/1000-scale drives
// and the store's memory disks behind the scripted device, each with the
// same number of units, every one counted.
func newPlanes(lay layout.Layout) (*planes, error) {
	eng := sim.New()
	arr, err := array.New(eng, array.Config{
		Layout:      lay,
		Geom:        drive.IBM0661().Scaled(1000),
		UnitSectors: planeSectors,
		ReconProcs:  1,
		Algorithm:   array.Redirect,
	})
	if err != nil {
		return nil, err
	}
	c := lay.Disks()
	p := &planes{lay: lay, upd: arr.UnitsPerDisk(), m: lay.Parities(), dps: int64(layout.DataPerStripe(lay)),
		eng: eng, arr: arr, simLat: make([]drive.Latent, c), lat: &latentUnits{}, failed: -1,
		shapes: map[string]bool{}, latent: map[layout.Loc]bool{}}
	for i := range p.count {
		p.count[i] = make([]tally, int64(c)*p.upd)
	}
	p.want = make([]int, int64(c)*p.upd)
	for i := range c {
		p.hookSim(i)
	}
	st, err := New(Config{Layout: lay, UnitsPerDisk: p.upd, UnitSize: planeUnitSize, IOWorkers: 1, RebuildWorkers: 1,
		Disks: scriptedDisks(c, p.upd, planeUnitSize, p.storeHook)})
	if err != nil {
		return nil, err
	}
	p.st = st
	if st.DataUnits() != arr.DataUnits() {
		st.Close()
		return nil, fmt.Errorf("store holds %d data units, simulator %d", st.DataUnits(), arr.DataUnits())
	}
	p.version = make([]uint64, st.DataUnits())
	p.lost = make([]bool, st.DataUnits())
	if err := st.WriteRange(0, p.pattern(0, st.DataUnits())); err != nil {
		st.Close()
		return nil, err
	}
	return p, nil
}

// pattern returns the contents of the data units [unit, unit+n) at their
// versions.
func (p *planes) pattern(unit, n int64) []byte {
	buf := make([]byte, n*planeUnitSize)
	for i := range n {
		fill(buf[i*planeUnitSize:(i+1)*planeUnitSize], unit+i, p.version[unit+i])
	}
	return buf
}

// index is u's slot in the per-unit counts.
func (p *planes) index(u layout.Loc) int64 { return int64(u.Disk)*p.upd + u.Offset }

// hookSim installs disk d's counting hook in the simulator: every transfer
// is counted, a write heals the latent unit it covers, and a read of a
// latent unit meets a media error.
func (p *planes) hookSim(d int) {
	p.arr.Disk(d).SetFaultHook(func(start int64, count int, write bool) disk.Status {
		u := layout.Loc{Disk: d, Offset: start / planeSectors}
		if write {
			p.count[0][p.index(u)].writes++
			p.simLat[d].Heal(u.Offset, 1)
			return disk.OK
		}
		p.count[0][p.index(u)].reads++
		if p.simLat[d].Hit(u.Offset, 1) {
			return disk.MediaError
		}
		return disk.OK
	}, 1)
}

// storeHook counts the store's unit accesses and hands them to its latent
// units, unless a check is reading.
func (p *planes) storeHook(c call, pass func() error) error {
	if !c.access() {
		return pass()
	}
	p.mu.Lock()
	quiet := p.quiet
	if !quiet {
		i := p.index(layout.Loc{Disk: c.disk, Offset: c.off})
		if c.op == opRead {
			p.count[1][i].reads++
		} else {
			p.count[1][i].writes++
		}
	}
	p.mu.Unlock()
	if quiet {
		return pass()
	}
	return p.lat.hook(c, pass)
}

func (p *planes) close() { p.st.Close() }

// apply runs one step on both planes and compares them. A step the state
// does not allow changes nothing.
func (p *planes) apply(s step) error {
	for i := range p.count {
		clear(p.count[i])
	}
	clear(p.want)
	switch s.kind {
	case stepRead:
		return p.read(s.unit, s.n)
	case stepWrite:
		return p.write(s.unit, s.n)
	case stepFail:
		if p.failed >= 0 {
			p.rows[rowTwoDown]++
			return nil
		}
		if err := p.arr.Fail(s.loc.Disk); err != nil {
			return fmt.Errorf("simulator: %v", err)
		}
		if err := p.st.Fail(s.loc.Disk); err != nil {
			return fmt.Errorf("store: %v", err)
		}
		p.failed = s.loc.Disk
		for u := range p.latent {
			if u.Disk == p.failed {
				delete(p.latent, u)
			}
		}
		return nil
	case stepRebuild:
		if p.failed < 0 {
			return nil
		}
		return p.rebuild()
	default:
		if s.loc.Disk == p.failed {
			return nil
		}
		p.simLat[s.loc.Disk].Add(s.loc.Offset)
		p.lat.add(s.loc)
		p.latent[s.loc] = true
		return nil
	}
}

// run runs the simulator's engine until it is idle and reports whether
// the operation it was given finished.
func (p *planes) run(done *bool) error {
	p.eng.Run()
	if !*done {
		return errors.New("simulator: the operation did not finish")
	}
	return nil
}

// segments splits [unit, unit+n) by stripe.
func (p *planes) segments(unit, n int64) (segs [][2]int64) {
	for lo := unit; lo < unit+n; {
		hi := min((lo/p.dps+1)*p.dps, unit+n)
		segs = append(segs, [2]int64{lo, hi})
		lo = hi
	}
	return segs
}

func (p *planes) read(unit, n int64) error {
	for _, sg := range p.segments(unit, n) {
		p.modelRead(sg[0], sg[1])
	}
	vals, done := make([]uint64, n), false
	p.arr.ReadRange(unit, vals, func() { done = true })
	if err := p.run(&done); err != nil {
		return err
	}
	for i := range n {
		if want := p.arr.ExpectedValue(unit + i); vals[i] != want {
			return fmt.Errorf("simulator: unit %d read %#x, last written %#x", unit+i, vals[i], want)
		}
	}
	buf := make([]byte, n*planeUnitSize)
	var err error
	if n == 1 {
		err = p.st.ReadUnit(unit, buf)
	} else {
		err = p.st.ReadRange(unit, buf)
	}
	p.bookLosses()
	switch lost := slices.Contains(p.lost[unit:unit+n], true); {
	case lost && !errors.Is(err, ErrUnrecoverable):
		return fmt.Errorf("store: a read of lost units returned %v, want ErrUnrecoverable", err)
	case !lost && err != nil:
		return fmt.Errorf("store: %v", err)
	}
	for i := range n {
		got := buf[i*planeUnitSize : (i+1)*planeUnitSize]
		if !p.lost[unit+i] && string(got) != string(p.pattern(unit+i, 1)) {
			return fmt.Errorf("store: unit %d does not read back its last write", unit+i)
		}
	}
	return p.compare()
}

func (p *planes) write(unit, n int64) error {
	for _, sg := range p.segments(unit, n) {
		if p.smallOverLatent(sg[0], sg[1]) {
			p.rows[rowSmallWrite]++
			return nil
		}
	}
	for _, sg := range p.segments(unit, n) {
		p.modelWrite(sg[0], sg[1])
	}
	done := false
	p.arr.WriteRange(unit, int(n), func() { done = true })
	if err := p.run(&done); err != nil {
		return err
	}
	for i := range n {
		p.version[unit+i]++
	}
	var err error
	if n == 1 {
		err = p.st.WriteUnit(unit, p.pattern(unit, 1))
	} else {
		err = p.st.WriteRange(unit, p.pattern(unit, n))
	}
	if err != nil {
		return fmt.Errorf("store: writing [%d,%d): %v", unit, unit+n, err)
	}
	p.bookLosses()
	for i := range n {
		p.lost[unit+i] = false
	}
	return p.compare()
}

// rebuild installs a fresh drive in the failed slot of each plane — its
// accesses counted, no latent unit on it — and rebuilds it to completion.
func (p *planes) rebuild() error {
	d := p.failed
	for off := range p.upd {
		p.modelRebuild(layout.Loc{Disk: d, Offset: off})
	}
	if err := p.arr.Replace(); err != nil {
		return fmt.Errorf("simulator: %v", err)
	}
	p.simLat[d] = drive.Latent{}
	p.hookSim(d)
	done := false
	if err := p.arr.Reconstruct(func() { done = true }); err != nil {
		return fmt.Errorf("simulator: %v", err)
	}
	if err := p.run(&done); err != nil {
		return err
	}
	p.lat.mu.Lock()
	delete(p.lat.bad, d)
	p.lat.mu.Unlock()
	if err := p.st.Rebuild(&scriptedDisk{under: NewMemDisk(p.upd, planeUnitSize), slot: d, hook: p.storeHook}); err != nil {
		return fmt.Errorf("store: %v", err)
	}
	p.failed = -1
	p.bookLosses()
	return p.compare()
}

// bookLosses marks lost the data units of the simulator's new loss events.
func (p *planes) bookLosses() {
	events := p.arr.DataLosses()
	m := layout.StripeIndexMapper{L: p.lay}
	for _, ev := range events[p.losses:] {
		for _, u := range ev.Units {
			if stripe, j := p.lay.Locate(u); !layout.IsParityPos(p.lay, stripe, j) {
				p.lost[m.Index(stripe, j)] = true
			}
		}
	}
	p.losses = len(events)
}

// compare holds the store to the simulator after a step: every unit's
// reads — the simulator's and what the rows add — and writes, the units
// healed and lost, the latent units left, and parity.
func (p *planes) compare() error {
	var diffs []string
	for i, a := range p.count[0] {
		b, extra := p.count[1][i], p.want[i]
		if a.writes != b.writes || a.reads+extra != b.reads {
			u := layout.Loc{Disk: int(int64(i) / p.upd), Offset: int64(i) % p.upd}
			diffs = append(diffs, fmt.Sprintf("%v (%s): simulator %dr %dw, rows %+dr, store %dr %dw",
				u, p.role(u), a.reads, a.writes, extra, b.reads, b.writes))
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("accesses differ: %s", strings.Join(diffs, "; "))
	}
	fs, ss := p.arr.FaultStats(), p.st.Stats()
	if fs.LatentRepairs != ss.HealedUnits || fs.LostUnits != ss.LostUnits {
		return fmt.Errorf("simulator healed %d and lost %d units, store healed %d and lost %d",
			fs.LatentRepairs, fs.LostUnits, ss.HealedUnits, ss.LostUnits)
	}
	for d := range p.simLat {
		for off := range p.upd {
			u := layout.Loc{Disk: d, Offset: off}
			a, b := p.simLat[d].Hit(off, 1), p.lat.bad[d] != nil && p.lat.bad[d].Hit(off, 1)
			if a != b || d != p.failed && a != p.latent[u] {
				return fmt.Errorf("unit %v latent in the simulator %v, in the store %v, in the model %v", u, a, b, p.latent[u])
			}
		}
	}
	if err := p.arr.CheckConsistency(); err != nil {
		return fmt.Errorf("simulator: %v", err)
	}
	p.mu.Lock()
	p.quiet = true
	p.mu.Unlock()
	err := p.st.CheckParity()
	p.mu.Lock()
	p.quiet = false
	p.mu.Unlock()
	if err != nil {
		return fmt.Errorf("store: %v", err)
	}
	return nil
}

// role names unit u's stripe and role in it: P, Q or d (data).
func (p *planes) role(u layout.Loc) string {
	stripe, _ := p.lay.Locate(u)
	return fmt.Sprintf("stripe %d %s", stripe, p.roleOf(u))
}

func (p *planes) roleOf(u layout.Loc) string {
	stripe, j := p.lay.Locate(u)
	for k := range p.m {
		if j == p.lay.ParityPos(stripe, k) {
			return "PQ"[k : k+1]
		}
	}
	return "d"
}

// shape names an erasure set by its roles, P first and Q last.
func (p *planes) shape(erased []layout.Loc) string {
	roles := make([]string, len(erased))
	for i, u := range erased {
		roles[i] = p.roleOf(u)
	}
	order := map[string]int{"P": 0, "d": 1, "Q": 2}
	slices.SortFunc(roles, func(a, b string) int { return order[a] - order[b] })
	return "{" + strings.Join(roles, ",") + "}"
}

// The model: what the rows make of a step, worked out from the state before
// it — the failed disk and the latent units — and the rule each plane
// follows. Both planes solve one erasure set at a time, the same sets in
// the same order (layout.RebuildSources, growing by each source found
// unreadable, lost past the budget), and neither reads a unit twice under
// one lock hold; the rows say which reads the store makes again under a new
// one.

// lostOf returns stripe's unit on the failed disk.
func (p *planes) lostOf(stripe int64) (layout.Loc, bool) {
	for j := range p.lay.G() {
		if u := p.lay.Unit(stripe, j); u.Disk == p.failed {
			return u, true
		}
	}
	return layout.Loc{}, false
}

// dataOf lists stripe's data units in data order.
func (p *planes) dataOf(stripe int64) []layout.Loc {
	out := make([]layout.Loc, p.dps)
	for d := range out {
		out[d] = p.lay.Unit(stripe, layout.DataPos(p.lay, stripe, d))
	}
	return out
}

// latentOf lists the units of locs that are latent.
func (p *planes) latentOf(locs []layout.Loc) []layout.Loc {
	var out []layout.Loc
	for _, u := range locs {
		if p.latent[u] {
			out = append(out, u)
		}
	}
	return out
}

// reread adds one store read of each of locs to row r.
func (p *planes) reread(r int, locs ...layout.Loc) {
	for _, u := range locs {
		p.want[p.index(u)]++
	}
	if len(locs) > 0 {
		p.rows[r]++
	}
}

func without(locs, drop []layout.Loc) []layout.Loc {
	return slices.DeleteFunc(slices.Clone(locs), func(u layout.Loc) bool { return slices.Contains(drop, u) })
}

// repair models one damaged stripe's repair from the erasure set erased.
// Each round both planes read the sources of the set that they do not hold
// under their lock hold, and a source found latent joins the set; past the
// budget both read the data units not erased that they do not hold, and
// rewrite the stripe's live units. Both hold the same units, so the repair
// adds no row. It reports whether the stripe was lost.
func (p *planes) repair(stripe int64, erased []layout.Loc) bool {
	for {
		if len(erased) > p.m {
			erased = append(erased, p.latentOf(without(p.dataOf(stripe), erased))...)
			p.shapes["past the budget"] = true
			for j := range p.lay.G() {
				delete(p.latent, p.lay.Unit(stripe, j))
			}
			return true
		}
		src := layout.RebuildSources(p.lay, erased...)
		p.shapes[p.shape(erased)] = true
		found := p.latentOf(src)
		if len(found) == 0 {
			for _, u := range erased {
				delete(p.latent, u)
			}
			return false
		}
		erased = append(erased, found...)
	}
}

// planOf returns the plan both planes make of an access to the data units
// [lo, hi) of stripe, and its first round's units.
func (p *planes) planOf(stripe, lo, hi int64, write bool) (layout.Plan, []layout.Loc) {
	var span, erased []int
	for n := lo; n < hi; n++ {
		span = append(span, layout.DataPos(p.lay, stripe, int(n-stripe*p.dps)))
	}
	if f, degraded := p.lostOf(stripe); degraded {
		_, j := p.lay.Locate(f)
		erased = []int{j}
	}
	plan := layout.NewPlan(p.lay.G())
	layout.PlanStripe(&plan, p.lay, stripe, write, span, erased)
	var first []layout.Loc
	for _, j := range plan.Reads {
		first = append(first, p.lay.Unit(stripe, j))
	}
	return plan, first
}

// modelRead models a read of the data units [lo, hi) of one stripe. Both
// planes read its first round twice when it meets damage — the simulator
// directly and then under the stripe lock, the store under the read lock
// and then under the write lock — but for a span holding the lost unit,
// which the simulator reads under the lock alone (rowSharedDecode).
func (p *planes) modelRead(lo, hi int64) {
	stripe := lo / p.dps
	plan, first := p.planOf(stripe, lo, hi, false)
	f, degraded := p.lostOf(stripe)
	if len(plan.Decode) > 0 {
		p.shapes[p.shape([]layout.Loc{f})] = true
	}
	damaged := p.latentOf(first)
	if len(damaged) == 0 {
		return
	}
	if len(plan.Decode) > 0 {
		p.reread(rowSharedDecode, first...)
	}
	erased := damaged
	if degraded {
		erased = append([]layout.Loc{f}, damaged...)
	}
	if p.repair(stripe, erased) {
		p.reread(rowCarryOn, first...)
	}
}

// smallOverLatent reports whether the share [lo, hi) of a stripe is the
// simulator's small write to a stripe that holds a latent unit
// (rowSmallWrite).
func (p *planes) smallOverLatent(lo, hi int64) bool {
	stripe := lo / p.dps
	if _, degraded := p.lostOf(stripe); p.m != 1 || p.lay.G() != 3 || hi-lo != 1 || degraded {
		return false
	}
	return len(p.latentOf(layout.StripeUnits(p.lay, stripe))) > 0
}

// modelWrite models one write plan: the data units [lo, hi) of one stripe.
func (p *planes) modelWrite(lo, hi int64) {
	stripe := lo / p.dps
	f, degraded := p.lostOf(stripe)
	plan, first := p.planOf(stripe, lo, hi, true)
	if p.m == 1 && p.lay.G() == 3 && hi-lo == 1 && !degraded {
		// rowSmallWrite: the store reads the old data and P, the simulator
		// the other data unit; no unit of the stripe is latent.
		p.reread(rowSmallWrite, first...)
		p.want[p.index(without(p.dataOf(stripe), first)[0])]--
		return
	}
	if damaged := p.latentOf(first); len(damaged) > 0 {
		erased := damaged
		if degraded {
			erased = append([]layout.Loc{f}, damaged...)
		}
		if p.repair(stripe, erased) {
			p.reread(rowCarryOn, first...)
		}
	}
	for _, j := range plan.Writes {
		delete(p.latent, p.lay.Unit(stripe, j))
	}
}

// modelRebuild models the sweep's cycle for lost unit f: the simulator
// decodes it, then repairs what the decode found unreadable; the store's
// recoverInto solves it from the start, and its first round is that
// decode.
func (p *planes) modelRebuild(f layout.Loc) {
	stripe, _ := p.lay.Locate(f)
	src := layout.RebuildSources(p.lay, f)
	p.shapes[p.shape([]layout.Loc{f})] = true
	found := p.latentOf(src)
	if len(found) > 0 && p.repair(stripe, append([]layout.Loc{f}, found...)) && p.roleOf(f) != "d" {
		p.reread(rowCarryOn, src...)
	}
}

// result is one replay of a stream.
type result struct {
	at     int // the first step the planes disagreed on, or −1
	err    error
	rows   [len(planeRows)]int
	shapes map[string]bool
}

// replay runs steps on fresh planes.
func replay(lay layout.Layout, steps []step) result {
	p, err := newPlanes(lay)
	if err != nil {
		return result{at: 0, err: err}
	}
	defer p.close()
	for i, s := range steps {
		if err := p.apply(s); err != nil {
			return result{at: i, err: err}
		}
	}
	return result{at: -1, rows: p.rows, shapes: p.shapes}
}

// shrink returns a minimal sublist of steps that still fails: no single
// step can be taken out of it and leave a failing list.
func shrink(lay layout.Layout, steps []step) []step {
	for i := 0; i < len(steps); {
		try := slices.Delete(slices.Clone(steps), i, i+1)
		if res := replay(lay, try); res.at >= 0 {
			steps = try[:res.at+1]
			i = 0
			continue
		}
		i++
	}
	return steps
}

// genSteps generates n steps for lay from seed, in episodes on one stripe
// each — latent units, perhaps a failure of one of its disks, a few reads
// and writes in and around it, perhaps a rebuild — so latent units, a
// failure and the operations that meet them collide. Most episodes are on
// one of three focus stripes, so damage piles up there.
func genSteps(lay layout.Layout, seed int64, n int) []step {
	rng := rand.New(rand.NewSource(seed))
	dps := int64(layout.DataPerStripe(lay))
	upd := layout.UsableUnitsPerDisk(lay, planeUnitsPerDisk)
	data := layout.DataUnits(lay, upd)
	stripes := data / dps
	focus := []int64{rng.Int63n(stripes), rng.Int63n(stripes), rng.Int63n(stripes)}
	var steps []step
	add := func(s step) {
		if len(steps) < n {
			steps = append(steps, s)
		}
	}
	for len(steps) < n {
		// An episode on one stripe: latent units, perhaps a failure, a few
		// operations around it, perhaps a rebuild.
		stripe := focus[rng.Intn(len(focus))]
		if rng.Intn(3) == 0 {
			stripe = rng.Int63n(stripes)
		}
		first := stripe * dps
		for range rng.Intn(lay.Parities() + 2) {
			add(step{kind: stepLatent, loc: lay.Unit(stripe, rng.Intn(lay.G()))})
		}
		if rng.Intn(2) == 0 {
			add(step{kind: stepFail, loc: lay.Unit(stripe, rng.Intn(lay.G()))})
		}
		for range 1 + rng.Intn(4) {
			unit, k := spanAround(rng, first, dps, data)
			if rng.Intn(2) == 0 {
				add(step{kind: stepRead, unit: unit, n: k})
			} else {
				add(step{kind: stepWrite, unit: unit, n: k})
			}
		}
		if rng.Intn(3) == 0 {
			add(step{kind: stepRebuild})
		}
	}
	return steps
}

// planeUnitsPerDisk is the raw units per disk of both planes.
const planeUnitsPerDisk = 1344 / planeSectors

// spanAround picks a span of data units in or around the stripe whose
// first data unit is first: one unit, the stripe aligned, or an unaligned
// span of up to two stripes' worth.
func spanAround(rng *rand.Rand, first, dps, data int64) (int64, int64) {
	switch rng.Intn(3) {
	case 0:
		return first + rng.Int63n(dps), 1
	case 1:
		return first, dps
	}
	unit := first + rng.Int63n(dps)
	return unit, min(1+rng.Int63n(2*dps), data-unit)
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
