package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"declust/internal/core"
	"declust/internal/gf256"
	"declust/internal/layout"
	"declust/internal/store"
)

// The layer probes time one exported call of one module each, in a single
// goroutine. They are the same for every workload; the trace.* metrics are
// what differs. numProbes is how many share the probing time.
const numProbes = 37

// prober runs the probes and collects their metrics. Like every timing of
// the benchmark a probe reports the quiet tail of many short batches
// (see stats.go).
type prober struct {
	each  time.Duration // measuring time per probe
	units int64         // units per disk of the arrays probed
	m     map[string]metric
	err   error
}

func (p *prober) fail(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

// perOp times body(n), which performs n operations, in batches of about a
// millisecond and returns the quiet-tail nanoseconds per operation.
func (p *prober) perOp(body func(n int)) float64 {
	n := 1
	for ; n < 1<<24; n *= 2 {
		t0 := time.Now()
		body(n)
		if dt := time.Since(t0); dt > 100*time.Microsecond {
			n = max(1, int(float64(n)*float64(time.Millisecond)/float64(dt)))
			break
		}
	}
	var ns []float64
	for deadline := time.Now().Add(p.each); len(ns) < 3 || time.Now().Before(deadline); {
		t0 := time.Now()
		body(n)
		ns = append(ns, float64(time.Since(t0))/float64(n))
	}
	return quiet(ns, false)
}

// perCall is perOp for operations with untimed preparation: once performs
// one operation and returns how long the timed part took.
func (p *prober) perCall(once func() time.Duration) float64 {
	var ns []float64
	for deadline := time.Now().Add(p.each); len(ns) < 3 || time.Now().Before(deadline); {
		ns = append(ns, float64(once()))
	}
	return quiet(ns, false)
}

func (p *prober) ns(name string, body func(n int)) { p.m[name] = metric{p.perOp(body), "ns"} }

// gbs and mbs report an operation that moves bytesPerOp in nsPerOp as a
// decimal rate; bytes per nanosecond is GB/s.
func (p *prober) gbs(name string, bytesPerOp int64, nsPerOp float64) {
	p.m[name] = metric{float64(bytesPerOp) / nsPerOp, "GB/s"}
}

func (p *prober) mbs(name string, bytesPerOp int64, nsPerOp float64) {
	p.m[name] = metric{float64(bytesPerOp) / nsPerOp * 1e3, "MB/s"}
}

// allocs reports the heap allocations per operation, from the runtime's
// own count.
func (p *prober) allocs(name string, body func(n int)) {
	const n = 500
	body(n) // warm pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	body(n)
	runtime.ReadMemStats(&after)
	p.m[name] = metric{float64(after.Mallocs-before.Mallocs) / n, "count"}
}

// runProbes measures every layer metric into m within about the budget.
func runProbes(o options, budget time.Duration, m map[string]metric) error {
	return (&prober{each: budget / numProbes, units: probeUnits, m: m}).run(o.scratch)
}

func (p *prober) run(scratch string) error {
	dir, err := os.MkdirTemp(scratch, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	p.probeGF()
	p.probeLayout()
	p.probeBackends(dir)
	p.probeIntent(dir)
	p.probeStore(false)
	p.probeStore(true)
	p.probeFileStore(dir)
	fmt.Printf("layer probes: %v each\n", p.each)
	return p.err
}

func (p *prober) probeGF() {
	dst, src := make([]byte, unitSize), make([]byte, unitSize)
	for i := range src {
		src[i] = byte(i*7 + 1)
	}
	p.gbs("gf256.muladd_gb_s", unitSize, p.perOp(func(n int) {
		for i := 0; i < n; i++ {
			gf256.MulAddSlice(dst, src, byte(i)|2)
		}
	}))
	p.gbs("gf256.mul_gb_s", unitSize, p.perOp(func(n int) {
		for i := 0; i < n; i++ {
			gf256.MulSlice(dst, src, byte(i)|2)
		}
	}))
	var sink byte
	p.ns("gf256.two_erasure_coeffs_ns", func(n int) {
		for i := 0; i < n; i++ {
			a, b := gf256.TwoErasureCoeffs(i%100, i%100+1+i%50)
			sink ^= a ^ b
		}
	})
	_ = sink
}

// The store and layout probes run on the array of the mem-* workloads: the
// paper's C and G, 420 units per disk.
const (
	probeC, probeG = 21, 5
	probeUnits     = 420
)

func (p *prober) probeLayout() {
	p.m["layout.select_ms"] = metric{p.perOp(func(n int) {
		for i := 0; i < n; i++ {
			if _, err := core.NewMapping(probeC, probeG, 0); err != nil {
				p.fail(err)
			}
		}
	}) / 1e6, "ms"}
	single, err := core.NewMapping(probeC, probeG, 0)
	if err != nil {
		p.fail(err)
		return
	}
	dual, err := core.NewPQMapping(probeC, probeG, 0)
	if err != nil {
		p.fail(err)
		return
	}
	l := single.Layout
	units, stripes := layout.DataUnits(l, p.units), layout.UsableStripes(l, p.units)
	var sink int64
	p.ns("layout.dataloc_ns", func(n int) {
		for i := 0; i < n; i++ {
			sink += layout.DataLoc(l, int64(i)*7919%units).Offset
		}
	})
	dualUnits := layout.DataUnits(dual.Layout, p.units)
	p.ns("layout.dataloc_pq_ns", func(n int) {
		for i := 0; i < n; i++ {
			sink += layout.DataLoc(dual.Layout, int64(i)*7919%dualUnits).Offset
		}
	})
	p.ns("layout.locate_ns", func(n int) {
		for i := 0; i < n; i++ {
			s, _ := l.Locate(layout.Loc{Disk: i % probeC, Offset: int64(i) * 31 % p.units})
			sink += s
		}
	})
	p.ns("layout.stripe_units_ns", func(n int) {
		for i := 0; i < n; i++ {
			sink += layout.StripeUnits(l, int64(i)*7919%stripes)[0].Offset
		}
	})
	_ = sink
}

func (p *prober) probeBackends(dir string) {
	buf := make([]byte, store.PhysUnitSize(unitSize))
	access := func(prefix string, d store.Disk) {
		p.ns(prefix+"write_ns", func(n int) {
			for i := 0; i < n; i++ {
				p.fail(d.WriteUnit(int64(i)*7919%p.units, buf))
			}
		})
		p.ns(prefix+"read_ns", func(n int) {
			for i := 0; i < n; i++ {
				p.fail(d.ReadUnit(int64(i)*7919%p.units, buf))
			}
		})
	}
	access("backend.mem.", store.NewMemDisk(p.units, unitSize))
	fd, err := store.OpenFileDisk(filepath.Join(dir, "backend.dat"), p.units, unitSize)
	if err != nil {
		p.fail(err)
		return
	}
	defer fd.Close()
	access("backend.file.", fd)
	// One flush of 64 freshly written units.
	p.m["backend.file.sync_us"] = metric{p.perCall(func() time.Duration {
		for i := int64(0); i < 64; i++ {
			p.fail(fd.WriteUnit(i*97%p.units, buf))
		}
		t0 := time.Now()
		p.fail(fd.(syncDisk).Sync())
		return time.Since(t0)
	}) / 1e3, "us"}
}

func (p *prober) probeIntent(dir string) {
	const regions = 256
	l := store.OpenFileIntent(filepath.Join(dir, "intent.log"))
	if _, err := l.Init(regions); err != nil {
		p.fail(err)
		return
	}
	defer l.Close()
	all := make([]int64, regions)
	for i := range all {
		all[i] = int64(i)
	}
	next := int64(0)
	p.m["intent.file.mark1_us"] = metric{p.perCall(func() time.Duration {
		next = (next + 1) % regions
		t0 := time.Now()
		p.fail(l.Mark(next))
		return time.Since(t0)
	}) / 1e3, "us"}
	// One MarkBatch of 16 regions: the group commit's amortisation.
	p.m["intent.file.mark16_us"] = metric{p.perCall(func() time.Duration {
		next = (next + 16) % (regions - 16)
		t0 := time.Now()
		p.fail(l.MarkBatch(all[next : next+16]))
		return time.Since(t0)
	}) / 1e3, "us"}
	p.m["intent.file.clear_all_us"] = metric{p.perCall(func() time.Duration {
		t0 := time.Now()
		p.fail(l.ClearBatch(all))
		return time.Since(t0)
	}) / 1e3, "us"}
}

// probeStore times single engine ops on a memory-backed store with
// IOWorkers = 1. The address of each op is chosen with the layout so that
// it takes exactly the named path.
func (p *prober) probeStore(pq bool) {
	w := workload{c: probeC, g: probeG, unitsPerDisk: p.units, pq: pq, ioWorkers: 1, rebuildWork: 1, rangeUnits: 1}
	r, err := build(w, "", false)
	if err != nil {
		p.fail(err)
		return
	}
	defer r.close()
	s, l := r.s, r.lay
	usable := layout.UsableUnitsPerDisk(l, p.units)
	pre := "store."
	if pq {
		pre = "store.pq."
	}
	buf := make([]byte, unitSize)
	// units lists the data units for which pick holds, in a scattered order.
	units := func(pick func(n int64) bool) []int64 {
		var out []int64
		for i := int64(0); i < s.DataUnits(); i++ {
			if n := i * 7919 % s.DataUnits(); pick(n) {
				out = append(out, n)
			}
		}
		return out
	}
	reads := func(ns []int64) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				p.fail(s.ReadUnit(ns[i%len(ns)], buf))
			}
		}
	}
	writes := func(ns []int64) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				p.fail(s.WriteUnit(ns[i%len(ns)], buf))
			}
		}
	}
	stripeOf := func(n int64) int64 { return n / int64(layout.DataPerStripe(l)) }
	holds := func(stripe int64, disk int) bool {
		for _, u := range layout.StripeUnits(l, stripe) {
			if u.Disk == disk {
				return true
			}
		}
		return false
	}

	all := units(func(int64) bool { return true })
	p.ns(pre+"write.healthy_ns", writes(all))
	p.allocs(pre+"write.healthy_allocs", writes(all))
	if !pq {
		p.ns(pre+"read.healthy_ns", reads(all))
		p.allocs(pre+"read.healthy_allocs", reads(all))
		p.probeRanges(s, l)
		arrayBytes := int64(probeC) * usable * unitSize
		p.mbs("store.scrub_mb_s", arrayBytes, p.perCall(func() time.Duration {
			t0 := time.Now()
			_, err := s.Scrub()
			p.fail(err)
			return time.Since(t0)
		}))
		p.mbs("store.checkparity_mb_s", arrayBytes, p.perCall(func() time.Duration {
			t0 := time.Now()
			p.fail(s.CheckParity())
			return time.Since(t0)
		}))
	}
	const d1, d2 = 3, 11
	p.mbs(pre+"rebuild_idle_mb_s", usable*unitSize, p.perCall(func() time.Duration {
		p.fail(s.Fail(d1))
		repl, _ := r.repl[d1]() // a memory rig's replacement cannot fail
		t0 := time.Now()
		p.fail(s.Rebuild(repl))
		return time.Since(t0)
	}))

	p.fail(s.Fail(d1))
	lost := units(func(n int64) bool { return layout.DataLoc(l, n).Disk == d1 })
	if !pq {
		p.ns("store.read.lost_ns", reads(lost))
		p.allocs("store.read.lost_allocs", reads(lost))
		p.ns("store.write.lost_ns", writes(lost))
		p.ns("store.write.parity_lost_ns", writes(units(func(n int64) bool {
			return layout.ParityLoc(l, stripeOf(n)).Disk == d1
		})))
		return
	}
	p.ns("store.pq.read.lost1_ns", reads(lost))
	p.fail(s.Fail(d2))
	p.ns("store.pq.read.lost2_ns", reads(units(func(n int64) bool {
		return layout.DataLoc(l, n).Disk == d1 && holds(stripeOf(n), d2)
	})))
}

// probeRanges times 16-unit range ops on a healthy single-parity store:
// reads, writes that cover whole stripes (parity from the new data, no
// pre-reads), and two-unit writes inside one stripe (read-modify-write).
func (p *prober) probeRanges(s *store.Store, l layout.Layout) {
	per := int64(layout.DataPerStripe(l))
	buf := make([]byte, 16*unitSize)
	span := s.DataUnits() - 16
	p.mbs("store.range.read_mb_s", 16*unitSize, p.perOp(func(n int) {
		for i := 0; i < n; i++ {
			p.fail(s.ReadRange(int64(i)*7919%span, buf))
		}
	}))
	whole := 16 / per * per // the most whole stripes 16 units hold
	p.mbs("store.range.write_full_mb_s", whole*unitSize, p.perOp(func(n int) {
		for i := 0; i < n; i++ {
			p.fail(s.WriteRange(int64(i)*7919%(span/per)*per, buf[:whole*unitSize]))
		}
	}))
	p.mbs("store.range.write_partial_mb_s", 2*unitSize, p.perOp(func(n int) {
		for i := 0; i < n; i++ {
			p.fail(s.WriteRange(int64(i)*7919%(span/per)*per, buf[:2*unitSize]))
		}
	}))
}

// probeFileStore times opening a cleanly closed file-backed array and a
// Store.Sync after 256 unit writes.
func (p *prober) probeFileStore(dir string) {
	m, err := core.NewMapping(probeC, probeG, 0)
	if err != nil {
		p.fail(err)
		return
	}
	units := min(p.units, 210)
	open := func() (*store.Store, error) {
		disks, err := store.OpenFileDisks(dir, probeC, units, unitSize)
		if err != nil {
			return nil, err
		}
		return store.New(store.Config{
			Layout: m.Layout, UnitsPerDisk: units, UnitSize: unitSize, Disks: disks,
			Intent: store.OpenFileIntent(filepath.Join(dir, "array.intent")),
		})
	}
	s, err := open()
	if err != nil {
		p.fail(err)
		return
	}
	buf := make([]byte, unitSize)
	p.m["store.sync_file_ms"] = metric{p.perCall(func() time.Duration {
		for i := int64(0); i < 256; i++ {
			p.fail(s.WriteUnit(i*7919%s.DataUnits(), buf))
		}
		t0 := time.Now()
		p.fail(s.Sync())
		return time.Since(t0)
	}) / 1e6, "ms"}
	p.fail(s.Close())
	p.m["store.open_ms"] = metric{p.perCall(func() time.Duration {
		t0 := time.Now()
		s, err := open()
		dt := time.Since(t0)
		if err != nil {
			p.fail(err)
			return dt
		}
		p.fail(s.Close())
		return dt
	}) / 1e6, "ms"}
}
