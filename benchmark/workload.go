package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"declust/internal/core"
	"declust/internal/layout"
	"declust/internal/store"
)

// unitSize is the data unit size of every workload: the paper's 4 KiB.
const unitSize = 4096

// workload is one configuration of the engine the benchmark drives
// through the whole lifecycle. The five in the table below differ in the
// layer that bounds them; README.md gives the reasoning per row.
type workload struct {
	name string
	why  string

	c, g         int
	unitsPerDisk int64
	pq           bool          // P+Q code, two victims per cycle
	file         bool          // file backends + file intent log
	sleep        time.Duration // per-access device time behind a mem disk
	rangeUnits   int           // units per client op (1 = ReadUnit/WriteUnit)
	syncEvery    int           // a client calls Store.Sync after this many ops
	segOps       int           // ops per throughput segment
	traceOps     int           // ops per phase of the traced pass
	ioWorkers    int           // Config.IOWorkers; 0 = the engine's default
	cpuBound     bool          // clients and rebuild workers sized to n/2
	clients      int           // used when !cpuBound
	rebuildWork  int           // used when !cpuBound
}

// workloads is the benchmark's fixed table. C = 21, G = 5 (α = 0.2) is
// the paper's array.
var workloads = []workload{
	{
		name: "mem-p", c: 21, g: 5, unitsPerDisk: 420, rangeUnits: 1, segOps: 256, traceOps: 10000, ioWorkers: 1, cpuBound: true,
		why: "CPU-bound: XOR, crc32c, locks and allocation are nearly all of the time; backend work does not show",
	},
	{
		name: "mem-pq", c: 21, g: 5, unitsPerDisk: 420, rangeUnits: 1, segOps: 256, traceOps: 10000, ioWorkers: 1, cpuBound: true, pq: true,
		why: "same engine under the P+Q code: gf256 folds and the pq.go decode paths dominate degraded ops and rebuild",
	},
	{
		name: "mem-range", c: 21, g: 5, unitsPerDisk: 420, rangeUnits: 16, segOps: 64, traceOps: 2000, ioWorkers: 1, cpuBound: true,
		why: "64 KiB unaligned range ops: full-stripe large writes in the middle, read-modify-write at head and tail",
	},
	{
		name: "file-p", c: 21, g: 5, unitsPerDisk: 420, rangeUnits: 1, segOps: 256, traceOps: 10000, file: true, syncEvery: 5000, cpuBound: true,
		why: "backend-bound: pread/pwrite syscalls, the 21-disk fsync loop in Sync and the intent-log fsync after it",
	},
	{
		name: "slowdisk-p", c: 21, g: 5, unitsPerDisk: 210, rangeUnits: 1, segOps: 8, traceOps: 100, sleep: 2 * time.Millisecond,
		ioWorkers: 8, clients: 2, rebuildWork: 4,
		why: "device-bound, the paper's regime: 2 ms per access, so only overlapping independent device waits helps",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// halfProcs keeps the busy goroutines of a CPU-bound workload (clients
// plus rebuild workers) within the processors the run has.
func halfProcs() int {
	if n := runtime.GOMAXPROCS(0) / 2; n > 1 {
		return n
	}
	return 1
}

func (w workload) numClients() int {
	if w.cpuBound {
		return halfProcs()
	}
	return w.clients
}

func (w workload) numRebuildWorkers() int {
	if w.cpuBound {
		return halfProcs()
	}
	return w.rebuildWork
}

// victimsPerCycle is how many disks a cycle fails before its degraded
// window: the code's full erasure budget.
func (w workload) victimsPerCycle() int {
	if w.pq {
		return 2
	}
	return 1
}

// stamp fills buf with the payload of (unit, version): every 8-byte word
// is a function of both, so a unit served from the wrong place or the
// wrong time never verifies.
func stamp(buf []byte, unit int64, version uint32) {
	x := (uint64(unit)<<32 | uint64(version)) * 0x9e3779b97f4a7c15
	for i := 0; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], x)
		x += 0xbf58476d1ce4e5b9
	}
}

// stamped reports whether buf holds exactly the payload of (unit, version).
func stamped(buf []byte, unit int64, version uint32) bool {
	x := (uint64(unit)<<32 | uint64(version)) * 0x9e3779b97f4a7c15
	for i := 0; i+8 <= len(buf); i += 8 {
		if binary.LittleEndian.Uint64(buf[i:]) != x {
			return false
		}
		x += 0xbf58476d1ce4e5b9
	}
	return true
}

// rig is one built array: the store, what the harness needs to cycle it
// through failures, and the version every data unit was last written at.
type rig struct {
	w     workload
	lay   layout.Layout
	s     *store.Store
	ver   []uint32     // last written version per data unit
	armed *atomic.Bool // switches the slow disks' device time on
	rec   *recorder    // nil on an untraced rig
	dir   string       // backing directory of a file rig
	repl  []func() (store.Disk, error)
}

// build sets an array up from nothing: layout selection, backends,
// store.New, every data unit written at version 1 through WriteRange, and
// a Sync. scratch is where a file workload keeps its disks; a traced rig
// has every backend and the intent log wrapped by a recorder, switched off.
func build(w workload, scratch string, traced bool) (*rig, error) {
	newMapping := core.NewMapping
	if w.pq {
		newMapping = core.NewPQMapping
	}
	m, err := newMapping(w.c, w.g, 0)
	if err != nil {
		return nil, err
	}
	r := &rig{w: w, lay: m.Layout, armed: new(atomic.Bool)}
	if traced {
		r.rec = newRecorder(r.lay, maxSpans)
	}
	rec := r.rec
	usable := layout.UsableUnitsPerDisk(r.lay, w.unitsPerDisk)

	// wrap layers the workload's device time and the run's recorder over
	// a bare backend; an untraced mem or file rig hands the engine the
	// bare backend itself.
	wrap := func(slot int, d store.Disk) store.Disk {
		if w.sleep > 0 {
			d = &sleepDisk{Disk: d, armed: r.armed, d: w.sleep}
		}
		if rec != nil {
			d = rec.wrapDisk(slot, d)
		}
		return d
	}

	cfg := store.Config{
		Layout:         r.lay,
		UnitsPerDisk:   w.unitsPerDisk,
		UnitSize:       unitSize,
		IOWorkers:      w.ioWorkers,
		RebuildWorkers: w.numRebuildWorkers(),
		Disks:          make([]store.Disk, w.c),
	}
	r.repl = make([]func() (store.Disk, error), w.c)
	if w.file {
		if r.dir, err = os.MkdirTemp(scratch, "array-"); err != nil {
			return nil, err
		}
		base, err := store.OpenFileDisks(r.dir, w.c, usable, unitSize)
		if err != nil {
			os.RemoveAll(r.dir)
			return nil, err
		}
		for i := range base {
			slot := i
			cfg.Disks[i] = wrap(i, base[i])
			// A failed file disk stays open inside the store until
			// Close, so its replacement is a second handle on the same,
			// already written file: page-cache resident, like a
			// recycled memory disk.
			r.repl[i] = func() (store.Disk, error) {
				d, err := store.OpenFileDisk(filepath.Join(r.dir, fmt.Sprintf("disk%04d.dat", slot)), usable, unitSize)
				if err != nil {
					return nil, err
				}
				return wrap(slot, d), nil
			}
		}
		cfg.Intent = store.OpenFileIntent(filepath.Join(r.dir, "intent.log"))
		if rec != nil {
			cfg.Intent = rec.wrapIntent(cfg.Intent)
		}
	} else {
		for i := range cfg.Disks {
			d := wrap(i, store.NewMemDisk(usable, unitSize))
			cfg.Disks[i] = d
			// The replacement for a failed memory disk is that disk
			// again: its pages are already faulted in. A fresh
			// NewMemDisk would spend the rebuild page-faulting.
			r.repl[i] = func() (store.Disk, error) { return d, nil }
		}
	}
	if r.s, err = store.New(cfg); err != nil {
		for _, d := range cfg.Disks {
			d.Close() // New adopts the backends only when it succeeds
		}
		r.cleanup()
		return nil, err
	}

	// Fill in whole-stripe multiples so every write takes the large-write
	// path; 16 stripes per call keeps the buffer at 256 KiB.
	r.ver = make([]uint32, r.s.DataUnits())
	per := int64(layout.DataPerStripe(r.lay)) * 16
	buf := make([]byte, per*unitSize)
	for start := int64(0); start < r.s.DataUnits(); start += per {
		n := min(per, r.s.DataUnits()-start)
		for i := int64(0); i < n; i++ {
			r.ver[start+i] = 1
			stamp(buf[i*unitSize:(i+1)*unitSize], start+i, 1)
		}
		if err := r.s.WriteRange(start, buf[:n*unitSize]); err != nil {
			r.close()
			return nil, fmt.Errorf("fill: %w", err)
		}
	}
	if err := r.s.Sync(); err != nil {
		r.close()
		return nil, fmt.Errorf("fill: %w", err)
	}
	r.armed.Store(true)
	return r, nil
}

// close shuts the store and removes a file rig's directory.
func (r *rig) close() error {
	r.armed.Store(false)
	err := r.s.Close()
	r.cleanup()
	return err
}

// release closes the rig and frees its memory for the next array set up
// in this process, so that the process never holds two. A store stays
// reachable through the runtime's sync.Pool registry until the second
// collection after its last use, hence two. The memory is not handed back
// to the system: the next set-up would spend its time faulting it in
// again, which is the host's speed, not the engine's.
func (r *rig) release() error {
	err := r.close()
	*r = rig{}
	runtime.GC()
	runtime.GC()
	return err
}

func (r *rig) cleanup() {
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

// verifyAll is the end-of-run gate: every data unit must read back as its
// last written version, and every stripe's parity must balance. It
// returns the units read and the units that did not verify.
func (r *rig) verifyAll() (read, bad int64, err error) {
	r.armed.Store(false) // the verdict does not depend on device time
	const chunk = 64
	buf := make([]byte, chunk*unitSize)
	total := r.s.DataUnits()
	for start := int64(0); start < total; start += chunk {
		n := min(chunk, total-start)
		if err := r.s.ReadRange(start, buf[:n*unitSize]); err != nil {
			return read, bad, fmt.Errorf("verify: %w", err)
		}
		for i := int64(0); i < n; i++ {
			read++
			if !stamped(buf[i*unitSize:(i+1)*unitSize], start+i, r.ver[start+i]) {
				bad++
			}
		}
	}
	if err := r.s.CheckParity(); err != nil {
		return read, bad, fmt.Errorf("verify: %w", err)
	}
	return read, bad, nil
}
