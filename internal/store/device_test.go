package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"declust/internal/drive"
	"declust/internal/layout"
)

// The suite's one scripted device. A proof that needs a backend or an
// intent log to misbehave — hold an access until others arrive, fail one,
// record the order of calls, drop a write, go slow — writes a hook, not a
// type: every call the two doubles below receive goes to their hook, which
// may delay it, fail it, record it, drop it (return without calling pass)
// or pass it on to the device underneath. TestOneTestDevice keeps it the
// only one.

// op names a call of the Disk or the IntentLog contract.
type op uint8

const (
	opRead       op = iota // Disk.ReadUnit
	opWrite                // Disk.WriteUnit
	opGeometry             // Disk.Geometry
	opSync                 // Disk.Sync
	opClose                // Disk.Close or IntentLog.Close
	opInit                 // IntentLog.Init
	opMark                 // IntentLog.Mark
	opMarkBatch            // IntentLog.MarkBatch
	opClear                // IntentLog.Clear
	opClearBatch           // IntentLog.ClearBatch
)

// call is what a double tells its hook about one call.
type call struct {
	op      op
	disk    int     // the Disk double's slot; -1 from the IntentLog double
	off     int64   // opRead, opWrite: the unit
	regions []int64 // opMark, opClear: the region; the batches: their list
}

// access reports whether c is a unit read or write.
func (c call) access() bool { return c.op == opRead || c.op == opWrite }

// hook decides what becomes of a call; pass makes it on the device
// underneath. A nil hook passes every call.
type hook func(c call, pass func() error) error

func (h hook) do(c call, pass func() error) error {
	if h == nil {
		return pass()
	}
	return h(c, pass)
}

// scriptedDisk is the suite's one Disk double. Geometry goes through the
// hook too; should the hook not pass it, the disk reports none.
type scriptedDisk struct {
	under Disk
	slot  int // reported to the hook as call.disk
	hook  hook
}

func (d *scriptedDisk) ReadUnit(off int64, p []byte) error {
	return d.hook.do(call{op: opRead, disk: d.slot, off: off}, func() error { return d.under.ReadUnit(off, p) })
}

func (d *scriptedDisk) WriteUnit(off int64, p []byte) error {
	return d.hook.do(call{op: opWrite, disk: d.slot, off: off}, func() error { return d.under.WriteUnit(off, p) })
}

func (d *scriptedDisk) Geometry() (units int64, unitSize int) {
	d.hook.do(call{op: opGeometry, disk: d.slot}, func() error {
		units, unitSize = d.under.Geometry()
		return nil
	})
	return units, unitSize
}

func (d *scriptedDisk) Sync() error {
	return d.hook.do(call{op: opSync, disk: d.slot}, d.under.Sync)
}

func (d *scriptedDisk) Close() error {
	return d.hook.do(call{op: opClose, disk: d.slot}, d.under.Close)
}

// scriptedIntent is the suite's one IntentLog double.
type scriptedIntent struct {
	under IntentLog
	hook  hook
}

func (l *scriptedIntent) Init(regions int64) (dirty []int64, err error) {
	err = l.hook.do(call{op: opInit, disk: -1}, func() error {
		dirty, err = l.under.Init(regions)
		return err
	})
	return dirty, err
}

func (l *scriptedIntent) Mark(r int64) error {
	return l.hook.do(call{op: opMark, disk: -1, regions: []int64{r}}, func() error { return l.under.Mark(r) })
}

func (l *scriptedIntent) MarkBatch(rs []int64) error {
	return l.hook.do(call{op: opMarkBatch, disk: -1, regions: rs}, func() error { return l.under.MarkBatch(rs) })
}

func (l *scriptedIntent) Clear(r int64) error {
	return l.hook.do(call{op: opClear, disk: -1, regions: []int64{r}}, func() error { return l.under.Clear(r) })
}

func (l *scriptedIntent) ClearBatch(rs []int64) error {
	return l.hook.do(call{op: opClearBatch, disk: -1, regions: rs}, func() error { return l.under.ClearBatch(rs) })
}

func (l *scriptedIntent) Close() error { return l.hook.do(call{op: opClose, disk: -1}, l.under.Close) }

// scriptedDisks returns n memory disks behind doubles that share h, disk i
// in slot i.
func scriptedDisks(n int, units int64, unitSize int, h hook) []Disk {
	disks := make([]Disk, n)
	for i := range disks {
		disks[i] = &scriptedDisk{under: NewMemDisk(units, unitSize), slot: i, hook: h}
	}
	return disks
}

// scriptedStore opens a store of cfg's layout and geometry over
// scriptedDisks sharing h, closed when the test ends.
func scriptedStore(t testing.TB, cfg Config, h hook) *Store {
	t.Helper()
	cfg.Disks = scriptedDisks(cfg.Layout.Disks(), cfg.UnitsPerDisk, cfg.UnitSize, h)
	return openStore(t, cfg)
}

// failAt is a hook that fails, without retry, every o-access of the unit
// at u.
func failAt(o op, u layout.Loc) hook {
	return func(c call, pass func() error) error {
		if c.op == o && c.disk == u.Disk && c.off == u.Offset {
			return errPlanted
		}
		return pass()
	}
}

// failWith is a hook that answers every o-call of disk i (-1: the intent
// log) with errs[i], where there is one, without passing it.
func failWith(o op, errs map[int]error) hook {
	return func(c call, pass func() error) error {
		if err := errs[c.disk]; c.op == o && err != nil {
			return err
		}
		return pass()
	}
}

// latentUnits scripts latent sector errors: a unit made latent fails every
// read with ErrMedia until it is next written, which remaps it.
type latentUnits struct {
	mu     sync.Mutex
	bad    map[int]*drive.Latent // disk → its latent units
	healed atomic.Int64
}

func (l *latentUnits) add(u layout.Loc) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.bad == nil {
		l.bad = map[int]*drive.Latent{}
	}
	if l.bad[u.Disk] == nil {
		l.bad[u.Disk] = new(drive.Latent)
	}
	l.bad[u.Disk].Add(u.Offset)
}

func (l *latentUnits) hook(c call, pass func() error) error {
	l.mu.Lock()
	bad := l.bad[c.disk]
	hit := bad != nil && c.op == opRead && bad.Hit(c.off, 1)
	if bad != nil && c.op == opWrite {
		l.healed.Add(int64(bad.Heal(c.off, 1)))
	}
	l.mu.Unlock()
	if hit {
		return fmt.Errorf("latent sector error at %v: %w", layout.Loc{Disk: c.disk, Offset: c.off}, ErrMedia)
	}
	return pass()
}
