package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"declust/internal/layout"
)

// phase is what the array is doing while a client op runs.
type phase int

const (
	idle       phase = iota // a transition: ops run but are not recorded
	healthy                 // all disks in service
	degraded                // the cycle's victims failed, no replacement yet
	rebuilding              // a Rebuild is in flight
	numPhases
)

var phaseNames = [numPhases]string{"idle", "healthy", "degraded", "rebuilding"}

// gate publishes the current phase to the clients. The word changes at
// every transition, also between two windows of the same phase, so
// anything that reads the same word at its start and its end ran wholly
// inside one window.
type gate struct{ word atomic.Uint64 }

func (g *gate) enter(p phase)   { g.word.Store((g.word.Load()>>2+1)<<2 | uint64(p)) }
func (g *gate) current() uint64 { return g.word.Load() }
func phaseOf(word uint64) phase { return phase(word & 3) }

// inside runs f as one window of phase p.
func (g *gate) inside(p phase, f func()) {
	g.enter(p)
	f()
	g.enter(idle)
}

// client is one closed-loop caller: it issues its next op when the
// previous one has returned and been verified. Each client owns a
// contiguous slice of the data units, so every unit has one writer and its
// expected version is always known; together the clients cover the array
// uniformly.
type client struct {
	r      *rig
	lo, hi int64 // owned data units
	rng    *rand.Rand
	buf    []byte

	lat  [numPhases][]uint32  // store-call time per recorded op in issue order: ns, writeFlag set on a write
	rate [numPhases][]float64 // ops/s of each segment of segOps ops

	attempted int64
	failed    int64
	firstErr  error
}

// writeFlag marks a latency sample as a write's; the low 31 bits hold the
// nanoseconds (capped at 2.1 s).
const writeFlag = 1 << 31

func newClients(r *rig, n int, seed int64, latCap int) []*client {
	total := r.s.DataUnits()
	cs := make([]*client, n)
	for i := range cs {
		c := &client{
			r:   r,
			lo:  total * int64(i) / int64(n),
			hi:  total * int64(i+1) / int64(n),
			rng: rand.New(rand.NewSource(seed*1000003 + int64(i))),
			buf: make([]byte, r.w.rangeUnits*unitSize),
		}
		for p := healthy; p < numPhases; p++ {
			c.lat[p] = make([]uint32, 0, latCap)
			c.rate[p] = make([]float64, 0, latCap/r.w.segOps+1)
		}
		cs[i] = c
	}
	return cs
}

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// run issues ops until stop, asked before the ops-th op, says so: half
// reads, half writes, each
// rangeUnits long at a uniform unit-aligned start inside the client's
// slice.
//
// Latency is the store call alone — stamping and verification sit outside
// its timestamps — and is kept only for ops that ran wholly inside one
// window. Throughput is what the client got, think time included: every
// iteration's wall-clock is booked to the phase its op started in, and each
// segOps iterations of a phase make one segment (stitched, if need be, from
// two windows of that phase; it never holds another phase's work). A
// segment's rate is taken at the nominal mix — two ops per mean read
// iteration plus mean write iteration — because a write costs four times a
// read, and the luck of the draw in a short segment (five reads in eight
// ops, say) would otherwise pass for speed.
func (c *client) run(g *gate, stop func(ops int) bool) {
	s, w, ru := c.r.s, c.r.w, int64(c.r.w.rangeUnits)
	rec := c.r.rec
	// seg is a phase's segment in the making: iterations and their
	// wall-clock, reads (0) and writes (1) apart.
	var seg [numPhases]struct {
		n   [2]int
		dur [2]time.Duration
	}
	iterStart := time.Now()
	for ops := 1; !stop(ops); ops++ {
		start := c.lo + c.rng.Int63n(c.hi-c.lo-ru+1)
		read := c.rng.Intn(2) == 0
		if !read {
			for i := int64(0); i < ru; i++ {
				c.r.ver[start+i]++
				stamp(c.buf[i*unitSize:(i+1)*unitSize], start+i, c.r.ver[start+i])
			}
		}
		c.attempted++
		if rec != nil {
			rec.beginOp(read, start, ru)
		}
		before := g.current()
		t0 := time.Now()
		var err error
		switch {
		case read && ru == 1:
			err = s.ReadUnit(start, c.buf)
		case read:
			err = s.ReadRange(start, c.buf)
		case ru == 1:
			err = s.WriteUnit(start, c.buf)
		default:
			err = s.WriteRange(start, c.buf)
		}
		dt := time.Since(t0)
		if rec != nil {
			rec.endOp()
		}
		ph := phaseOf(before)
		if ph != idle && g.current() == before {
			sample := uint32(min(dt, writeFlag-1))
			if !read {
				sample |= writeFlag
			}
			c.lat[ph] = append(c.lat[ph], sample)
		}
		switch {
		case err != nil:
			c.fail(err)
		case read:
			for i := int64(0); i < ru; i++ {
				if !stamped(c.buf[i*unitSize:(i+1)*unitSize], start+i, c.r.ver[start+i]) {
					c.fail(fmt.Errorf("unit %d read back wrong (want version %d)", start+i, c.r.ver[start+i]))
					break
				}
			}
		}
		now := time.Now()
		if ph != idle {
			sg, kind := &seg[ph], 0
			if !read {
				kind = 1
			}
			sg.n[kind]++
			sg.dur[kind] += now.Sub(iterStart)
			if sg.n[0]+sg.n[1] == w.segOps {
				if sg.n[0] > 0 && sg.n[1] > 0 {
					perRead := sg.dur[0].Seconds() / float64(sg.n[0])
					perWrite := sg.dur[1].Seconds() / float64(sg.n[1])
					c.rate[ph] = append(c.rate[ph], 2/(perRead+perWrite))
				}
				*sg = struct {
					n   [2]int
					dur [2]time.Duration
				}{}
			}
		}
		// A due Sync runs between two iterations, outside latency and
		// throughput alike: an fsync on a shared host takes anything from
		// half to twice its usual time from one run to the next, so what
		// it costs is reported per layer and no end-to-end metric rests
		// on it. What a Sync leaves behind is measured: the first write
		// into each clean region then pays the intent log's fsync inside
		// its own latency.
		if w.syncEvery > 0 && ops%w.syncEvery == 0 {
			c.attempted++
			if err := s.Sync(); err != nil {
				c.fail(err)
			}
			now = time.Now()
		}
		iterStart = now
	}
}

// lifecycle is what one pass over an array measured.
type lifecycle struct {
	clients []*client // each with its latency samples and segment rates
	// rebuildMB[k] holds the MB/s of every cycle's k-th rebuild: the data
	// bytes of one disk over the Rebuild call's wall-clock. Under P+Q a
	// cycle's first rebuild decodes around a second dead disk and its
	// second does not, so the two run at different speeds and are kept
	// apart.
	rebuildMB [][]float64
	cycles    int
	attempted int64
	failed    int64
	firstErr  error
}

// plan is how a pass spends its time.
type plan struct {
	total    time.Duration // cycles repeat this long
	firstWin time.Duration // the first cycle's healthy and degraded windows
	clients  int
}

func planFor(w workload, seconds float64) plan {
	d := time.Duration(seconds * float64(time.Second))
	return plan{total: d, firstWin: d / 100, clients: w.numClients()}
}

// runLifecycle drives r through healthy → cycles of [fail, degraded,
// rebuild under load] with closed-loop clients running throughout. The
// collector is off inside the measured windows and runs between them, so
// a collection lands in no window.
//
// Rates are booked per short piece — a segment of a client's ops, one
// rebuild — not as totals over wall-clock; stats.go says why and what is
// reported from them.
func runLifecycle(r *rig, seed int64, p plan) *lifecycle {
	lc := &lifecycle{}
	g := &gate{}
	var stop atomic.Bool
	latCap := int(p.total.Seconds()*150_000) / p.clients
	clients := newClients(r, p.clients, seed, latCap)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) { defer wg.Done(); c.run(g, func(int) bool { return stop.Load() }) }(c)
	}
	// The collector is off inside windows; between cycles it runs if it
	// has not for a quarter of a second.
	var collected time.Time
	collect := func() {
		if time.Since(collected) > 250*time.Millisecond {
			debug.SetGCPercent(100)
			runtime.GC()
			debug.SetGCPercent(-1)
			collected = time.Now()
		}
	}
	defer debug.SetGCPercent(100)

	// Victims rotate through a seed-derived order of the disks. A cycle's
	// healthy and degraded windows each last as long as the previous
	// cycle's rebuilds took, so the three phases get the same share of the
	// run and sample the same stretches of it: whatever the host does to
	// one of them, it does to all.
	order := rand.New(rand.NewSource(seed)).Perm(r.w.c)
	diskMB := float64(layout.UsableUnitsPerDisk(r.lay, r.w.unitsPerDisk)) * unitSize / 1e6
	nv := r.w.victimsPerCycle()
	lc.rebuildMB = make([][]float64, nv)
	win := p.firstWin
	for deadline := time.Now().Add(p.total); time.Now().Before(deadline) && lc.firstErr == nil; lc.cycles++ {
		collect()
		g.inside(healthy, func() { time.Sleep(win) })
		victims := make([]int, nv)
		for i := range victims {
			victims[i] = order[(lc.cycles*nv+i)%len(order)]
			if err := r.s.Fail(victims[i]); err != nil {
				lc.firstErr = err
			}
		}
		g.inside(degraded, func() { time.Sleep(win) })
		win = 0
		for k, v := range victims {
			repl, err := r.repl[v]()
			if err == nil {
				t0 := time.Now()
				g.inside(rebuilding, func() { err = r.s.Rebuild(repl) })
				took := time.Since(t0)
				lc.rebuildMB[k] = append(lc.rebuildMB[k], diskMB/took.Seconds())
				win += took
			}
			if err != nil && lc.firstErr == nil {
				lc.firstErr = err
			}
		}
	}
	stop.Store(true)
	wg.Wait()

	lc.clients = clients
	for _, c := range clients {
		lc.attempted += c.attempted
		lc.failed += c.failed
		if lc.firstErr == nil {
			lc.firstErr = c.firstErr
		}
	}
	return lc
}

// endToEnd writes the pass's client-visible metrics into m and prints the
// sample counts behind them.
func (lc *lifecycle) endToEnd(m map[string]metric) {
	for ph := healthy; ph < numPhases; ph++ {
		name := phaseNames[ph]
		var opsPerSec float64
		var segments int
		perClient := make([][]uint32, len(lc.clients))
		for i, c := range lc.clients {
			opsPerSec += quiet(c.rate[ph], true)
			segments += len(c.rate[ph])
			perClient[i] = c.lat[ph]
		}
		readP50, writeP50, chunks := medians(perClient)
		p99, q := tailUs(perClient)
		m[name+"_ops_s"] = metric{opsPerSec, "ops/s"}
		m[name+"_read_p50_us"] = metric{readP50, "us"}
		m[name+"_write_p50_us"] = metric{writeP50, "us"}
		fmt.Printf("%-10s %6d throughput segments, %5d latency chunks; p%.1f of all ops = %.3f us (not held to a bound)\n",
			name, segments, chunks, 100*q, p99)
	}
	// The array is whole again after 1/rate[0] + 1/rate[1] + … seconds per
	// megabyte of one disk, so the rates combine harmonically.
	var secPerMB float64
	for _, rates := range lc.rebuildMB {
		secPerMB += 1 / quiet(rates, true)
	}
	m["rebuild_mb_s"] = metric{float64(len(lc.rebuildMB)) / secPerMB, "MB/s"}
	fmt.Printf("%d cycles of %d rebuilds\n", lc.cycles, len(lc.rebuildMB))
}
