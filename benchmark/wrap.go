package main

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"declust/internal/layout"
	"declust/internal/store"
)

// The store discovers a backend's optional methods by type assertion, so
// a wrapper that does not forward them changes the workload without a
// word: dropping Sync turns file-p into a no-fsync run, dropping Geometry
// skips the store's size check. Both wrappers below forward both.
type (
	sizedDisk interface{ Geometry() (int64, int) }
	syncDisk  interface{ Sync() error }
)

func geometryOf(d store.Disk) (int64, int) {
	if sd, ok := d.(sizedDisk); ok {
		return sd.Geometry()
	}
	return 0, 0
}

// syncOf flushes d when it can be flushed and reports whether it could.
func syncOf(d store.Disk) (bool, error) {
	if sd, ok := d.(syncDisk); ok {
		return true, sd.Sync()
	}
	return false, nil
}

// sleepDisk adds a fixed device time to every access of the disk it
// wraps, once armed. It is how slowdisk-p models a device: the array is
// filled at memory speed, then armed.
type sleepDisk struct {
	store.Disk
	armed *atomic.Bool
	d     time.Duration
}

func (s *sleepDisk) wait() {
	if s.armed.Load() {
		time.Sleep(s.d)
	}
}

func (s *sleepDisk) ReadUnit(off int64, dst []byte) error {
	s.wait()
	return s.Disk.ReadUnit(off, dst)
}

func (s *sleepDisk) WriteUnit(off int64, src []byte) error {
	s.wait()
	return s.Disk.WriteUnit(off, src)
}

func (s *sleepDisk) Geometry() (int64, int) { return geometryOf(s.Disk) }

func (s *sleepDisk) Sync() error {
	_, err := syncOf(s.Disk)
	return err
}

// bucket says on whose behalf a recorded access ran.
type bucket int32

const (
	byHarness     bucket = iota // fill, verification, anything unmeasured
	byHealthy                   // a client op, all disks in service
	byDegraded                  // a client op, victims failed
	byRebuilding                // a client op while a Rebuild is in flight
	bySweepLoaded               // the Rebuild sweep, racing the client
	bySweepIdle                 // the Rebuild sweep with no client running
	numBuckets
)

// counters are one bucket's totals. Index 0 of a pair is for read ops (and
// for sweeps), index 1 for write ops.
type counters struct {
	ops, opNs, userBytes  [2]atomic.Int64
	diskReads, diskWrites [2]atomic.Int64
	diskNs                atomic.Int64 // Σ time inside backend calls
	intentCalls           atomic.Int64
	intentNs              atomic.Int64
}

// span is one recorded interval: a client op, a Rebuild, or a call into a
// backend or the intent log, with the span that caused it.
type span struct {
	name       string
	id, parent uint32 // parent 0: the harness itself
	disk       int    // backend calls: the slot; otherwise -1
	off        int64  // backend: unit offset; op: first data unit; intent: regions in the batch
	start, end time.Duration
}

// opInfo is the client op in flight: its span id and the parity stripes
// it touches.
type opInfo struct {
	id          uint32
	b           bucket // the mode it started in
	write       int    // 0 read, 1 write
	unit, units int64  // the data units it covers
	first, last int64  // the stripes they lie in
	start       time.Duration
}

// recorder wraps every backend and the intent log of a traced array. It
// keeps exact counts per bucket in atomics — they are what the trace.*
// metrics are computed from — and the spans themselves in preallocated
// memory for the trace file; spans beyond the preallocation are counted
// and dropped, the counts never are.
//
// The traced pass has a single client, so outside a rebuild every access
// belongs to the op in flight. During a rebuild the sweep's accesses are
// told from the client's by stripe: a sweep holds its stripe's lock
// exclusively while it works on it, so an access to a stripe of the op in
// flight is the op's. (The one exception is a client waiting for the
// sweep to release that very stripe; it is rare enough not to show in the
// per-op means and it cannot occur in the phases whose counts are checked
// exactly.)
type recorder struct {
	lay       layout.Layout
	perStripe int64 // data units per stripe
	epoch     time.Time

	on      atomic.Bool  // off: the wrappers only forward
	mode    atomic.Int32 // the bucket a client op started now books to; a sweep mode while a Rebuild runs
	cur     atomic.Pointer[opInfo]
	sweepID atomic.Uint32 // span id of the Rebuild in flight
	lastID  atomic.Uint32

	agg           [numBuckets]counters
	survivorReads []atomic.Int64 // per slot: reads by the idle sweep
	syncs, syncNs atomic.Int64

	spans   []span
	used    atomic.Int64
	dropped atomic.Int64
}

func newRecorder(lay layout.Layout, maxSpans int) *recorder {
	return &recorder{
		lay:           lay,
		perStripe:     int64(layout.DataPerStripe(lay)),
		epoch:         time.Now(),
		survivorReads: make([]atomic.Int64, lay.Disks()),
		spans:         make([]span, maxSpans),
	}
}

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

func (r *recorder) add(s span) {
	if i := r.used.Add(1) - 1; i < int64(len(r.spans)) {
		r.spans[i] = s
	} else {
		r.dropped.Add(1)
	}
}

// beginOp and endOp bracket one client op of `units` data units at `unit`.
func (r *recorder) beginOp(read bool, unit, units int64) {
	if !r.on.Load() {
		return
	}
	op := &opInfo{
		id:    r.lastID.Add(1),
		b:     bucket(r.mode.Load()),
		first: unit / r.perStripe,
		last:  (unit + units - 1) / r.perStripe,
		unit:  unit,
		units: units,
		start: r.now(),
	}
	if !read {
		op.write = 1
	}
	r.cur.Store(op)
}

func (r *recorder) endOp() {
	op := r.cur.Swap(nil)
	if op == nil {
		return
	}
	end := r.now()
	c := &r.agg[op.b]
	c.ops[op.write].Add(1)
	c.opNs[op.write].Add(int64(end - op.start))
	c.userBytes[op.write].Add(op.units * unitSize)
	r.add(span{name: [2]string{"op.read", "op.write"}[op.write], id: op.id, disk: -1, off: op.unit, start: op.start, end: end})
}

// owner resolves which bucket and which parent span an access to (slot,
// off) belongs to, and whether a write op caused it.
func (r *recorder) owner(slot int, off int64) (b bucket, parent uint32, write int) {
	mode := bucket(r.mode.Load())
	sweeping := mode == byRebuilding || mode == bySweepIdle
	if op := r.cur.Load(); op != nil {
		if !sweeping {
			return op.b, op.id, op.write
		}
		if stripe, _ := r.lay.Locate(layout.Loc{Disk: slot, Offset: off}); op.first <= stripe && stripe <= op.last {
			return op.b, op.id, op.write
		}
	}
	switch mode {
	case byRebuilding:
		return bySweepLoaded, r.sweepID.Load(), 0
	case bySweepIdle:
		return bySweepIdle, r.sweepID.Load(), 0
	}
	return byHarness, 0, 0
}

// sweep runs one Rebuild as a span of its own, booking its wall-clock and
// the units it restored to the sweep bucket of the current mode.
func (r *recorder) sweep(units int64, rebuild func() error) error {
	id := r.lastID.Add(1)
	r.sweepID.Store(id)
	b := bySweepLoaded
	if bucket(r.mode.Load()) == bySweepIdle {
		b = bySweepIdle
	}
	start := r.now()
	err := rebuild()
	end := r.now()
	r.agg[b].ops[0].Add(units)
	r.agg[b].opNs[0].Add(int64(end - start))
	r.add(span{name: "rebuild", id: id, disk: -1, start: start, end: end})
	return err
}

// recDisk records every call into the backend it wraps.
type recDisk struct {
	store.Disk
	r    *recorder
	slot int
}

func (r *recorder) wrapDisk(slot int, d store.Disk) store.Disk {
	return &recDisk{Disk: d, r: r, slot: slot}
}

func (d *recDisk) ReadUnit(off int64, dst []byte) error {
	if !d.r.on.Load() {
		return d.Disk.ReadUnit(off, dst)
	}
	start := d.r.now()
	err := d.Disk.ReadUnit(off, dst)
	end := d.r.now()
	b, parent, write := d.r.owner(d.slot, off)
	c := &d.r.agg[b]
	c.diskReads[write].Add(1)
	c.diskNs.Add(int64(end - start))
	if b == bySweepIdle {
		d.r.survivorReads[d.slot].Add(1)
	}
	d.r.add(span{name: "disk.read", parent: parent, disk: d.slot, off: off, start: start, end: end})
	return err
}

func (d *recDisk) WriteUnit(off int64, src []byte) error {
	if !d.r.on.Load() {
		return d.Disk.WriteUnit(off, src)
	}
	start := d.r.now()
	err := d.Disk.WriteUnit(off, src)
	end := d.r.now()
	b, parent, write := d.r.owner(d.slot, off)
	c := &d.r.agg[b]
	c.diskWrites[write].Add(1)
	c.diskNs.Add(int64(end - start))
	d.r.add(span{name: "disk.write", parent: parent, disk: d.slot, off: off, start: start, end: end})
	return err
}

func (d *recDisk) Geometry() (int64, int) { return geometryOf(d.Disk) }

func (d *recDisk) Sync() error {
	start := d.r.now()
	could, err := syncOf(d.Disk)
	if could && d.r.on.Load() {
		end := d.r.now()
		d.r.syncs.Add(1)
		d.r.syncNs.Add(int64(end - start))
		d.r.add(span{name: "disk.sync", disk: d.slot, start: start, end: end})
	}
	return err
}

// recIntent records every durability barrier of the intent log it wraps.
type recIntent struct {
	store.IntentLog
	r *recorder
}

func (r *recorder) wrapIntent(l store.IntentLog) store.IntentLog {
	return &recIntent{IntentLog: l, r: r}
}

// record times one barrier. Marks are booked to the op in flight (the
// first write into a clean region pays for them); clears happen inside
// Store.Sync, between ops, and are kept as spans only.
func (l *recIntent) record(name string, regions int, f func() error) error {
	if !l.r.on.Load() {
		return f()
	}
	start := l.r.now()
	err := f()
	end := l.r.now()
	var parent uint32
	if op := l.r.cur.Load(); op != nil && name == "intent.mark" {
		parent = op.id
		c := &l.r.agg[op.b]
		c.intentCalls.Add(1)
		c.intentNs.Add(int64(end - start))
	}
	l.r.add(span{name: name, parent: parent, disk: -1, off: int64(regions), start: start, end: end})
	return err
}

func (l *recIntent) Mark(r int64) error {
	return l.record("intent.mark", 1, func() error { return l.IntentLog.Mark(r) })
}

func (l *recIntent) MarkBatch(rs []int64) error {
	return l.record("intent.mark", len(rs), func() error { return l.IntentLog.MarkBatch(rs) })
}

func (l *recIntent) Clear(r int64) error {
	return l.record("intent.clear", 1, func() error { return l.IntentLog.Clear(r) })
}

func (l *recIntent) ClearBatch(rs []int64) error {
	return l.record("intent.clear", len(rs), func() error { return l.IntentLog.ClearBatch(rs) })
}

// writeTrace writes the recorded spans as JSON lines, and a last line
// saying how many were dropped for want of room.
func (r *recorder) writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	n := min(r.used.Load(), int64(len(r.spans)))
	for _, s := range r.spans[:n] {
		fmt.Fprintf(w, `{"name":%q,"id":%d,"parent":%d,"disk":%d,"off":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			s.name, s.id, s.parent, s.disk, s.off, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	fmt.Fprintf(w, `{"name":"trace.end","spans":%d,"dropped":%d}`+"\n", n, r.dropped.Load())
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
