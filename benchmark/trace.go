package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"declust/internal/layout"
	"declust/internal/store"
)

// maxSpans is the room a traced rig preallocates for spans. A traced pass
// of the largest workload records about a quarter of it.
const maxSpans = 1 << 20

// runTraced measures the per-layer metrics of one workload: the traced
// pass over a recorded array, then the layer probes, which share what is
// left of the measuring time.
func runTraced(w workload, o options) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	start := time.Now()
	err := tracedPass(w, o, res)
	res.Correct = res.Failed == 0 && err == nil
	if err == nil {
		left := time.Duration(o.seconds*float64(time.Second)) - time.Since(start)
		err = runProbes(o, max(left, time.Second), res.Metrics)
		res.Correct = res.Correct && err == nil
	}
	printMetrics(res.Metrics)
	return res, err
}

// tracedPass drives a recorded array through the lifecycle once with a
// single client and fixed op counts, so that for one seed every count it
// reports repeats exactly:
//
//	healthy                traceOps ops recorded, interleaved with as many
//	                       with the recorder off → overhead_frac
//	degraded               traceOps ops, the cycle's victims failed
//	rebuilding             the client races each victim's Rebuild
//	idle rebuild           one more disk failed and rebuilt with no client:
//	                       every recorded access is the sweep's, which is
//	                       what the α check needs
//
// and verifies the whole array at the end.
func tracedPass(w workload, o options, res *result) error {
	r, err := build(w, o.scratch, true)
	if err != nil {
		return err
	}
	defer r.close()
	rec := r.rec
	g := &gate{}
	c := newClients(r, 1, o.seed, 4*w.traceOps)[0]
	usable := layout.UsableUnitsPerDisk(r.lay, w.unitsPerDisk)
	order := rand.New(rand.NewSource(o.seed)).Perm(w.c)
	fixed := func(ops int) bool { return ops > w.traceOps }

	// Healthy ops alternate between recorder off and recorder on in ten
	// stretches each, so both see the same stretches of the host's mood;
	// the quiet segment rate of each side gives the tracing overhead. Only
	// the recorded ops keep their latency samples.
	rec.mode.Store(int32(byHealthy))
	var rates [2][]float64
	for i := 0; i < 20; i++ {
		on := i%2 == 1
		rec.on.Store(on)
		kept := len(c.lat[healthy])
		c.rate[healthy] = c.rate[healthy][:0]
		g.inside(healthy, func() { c.run(g, func(ops int) bool { return ops > w.traceOps/10 }) })
		rates[i%2] = append(rates[i%2], c.rate[healthy]...)
		if !on {
			c.lat[healthy] = c.lat[healthy][:kept]
		}
	}
	untraced, traced := quiet(rates[0], true), quiet(rates[1], true)

	victims := order[:w.victimsPerCycle()]
	for _, v := range victims {
		if err := r.s.Fail(v); err != nil {
			return err
		}
	}
	rec.mode.Store(int32(byDegraded))
	g.inside(degraded, func() { c.run(g, fixed) })

	rec.mode.Store(int32(byRebuilding))
	g.enter(rebuilding)
	for _, v := range victims {
		var done atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(g, func(int) bool { return done.Load() })
		}()
		err := rebuildOnto(r, v, usable)
		done.Store(true)
		wg.Wait()
		if err != nil {
			return err
		}
	}

	g.enter(idle)

	rec.mode.Store(int32(bySweepIdle))
	idleVictim := order[w.victimsPerCycle()]
	if err := r.s.Fail(idleVictim); err != nil {
		return err
	}
	if err := rebuildOnto(r, idleVictim, usable); err != nil {
		return err
	}
	rec.mode.Store(int32(byHarness))
	rec.on.Store(false)

	read, bad, err := r.verifyAll()
	res.Attempted, res.Failed = c.attempted+read, c.failed+bad
	if err == nil {
		err = c.firstErr
	}
	rec.metrics(w, usable, idleVictim, res.Metrics)
	res.Metrics["trace.overhead_frac"] = metric{1 - traced/untraced, "fraction"}
	// The tail percentiles run too unsteady on a shared host to be held to
	// a bound end to end (README.md has the figures), so they are reported
	// here, from this pass's client, with the recorder's overhead in them.
	for ph := healthy; ph < numPhases; ph++ {
		p99, _ := tailUs([][]uint32{c.lat[ph]})
		res.Metrics["clients."+phaseNames[ph]+"_p99_us"] = metric{p99, "us"}
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.out, w.name+".trace.jsonl")
	if err := rec.writeTrace(path); err != nil {
		return err
	}
	fmt.Printf("traced pass: %d ops attempted, %d failed; %d spans in %s (%d dropped)\n",
		res.Attempted, res.Failed, min(rec.used.Load(), maxSpans), path, rec.dropped.Load())
	return err
}

// rebuildOnto rebuilds failed disk v onto its replacement as one recorded
// sweep.
func rebuildOnto(r *rig, v int, usable int64) error {
	repl, err := r.repl[v]()
	if err != nil {
		return err
	}
	return r.rec.sweep(usable, func() error { return r.s.Rebuild(repl) })
}

// metrics turns the recorder's counts into the trace.* metrics.
func (r *recorder) metrics(w workload, usable int64, idleVictim int, m map[string]metric) {
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	phys := int64(store.PhysUnitSize(unitSize))
	for _, ph := range []struct {
		name string
		b    bucket
	}{{"healthy", byHealthy}, {"degraded", byDegraded}, {"rebuilding", byRebuilding}} {
		c := &r.agg[ph.b]
		reads, writes := c.ops[0].Load(), c.ops[1].Load()
		ops := reads + writes
		opNs := c.opNs[0].Load() + c.opNs[1].Load()
		pre := "trace." + ph.name + "."
		m[pre+"backend_reads_per_read"] = metric{ratio(c.diskReads[0].Load(), reads), "count"}
		m[pre+"backend_reads_per_write"] = metric{ratio(c.diskReads[1].Load(), writes), "count"}
		m[pre+"backend_writes_per_write"] = metric{ratio(c.diskWrites[1].Load(), writes), "count"}
		m[pre+"backend_us_per_op"] = metric{ratio(c.diskNs.Load(), ops) / 1e3, "us"}
		m[pre+"intent_us_per_op"] = metric{ratio(c.intentNs.Load(), ops) / 1e3, "us"}
		m[pre+"engine_self_us_per_op"] = metric{ratio(opNs-c.diskNs.Load()-c.intentNs.Load(), ops) / 1e3, "us"}
		m[pre+"overlap"] = metric{ratio(c.diskNs.Load(), opNs), "ratio"}
	}

	h := &r.agg[byHealthy]
	m["trace.write_amp"] = metric{ratio(h.diskWrites[1].Load()*phys, h.userBytes[1].Load()), "ratio"}
	m["trace.read_amp"] = metric{
		ratio((h.diskReads[0].Load()+h.diskReads[1].Load())*phys, h.userBytes[0].Load()+h.userBytes[1].Load()), "ratio"}
	var marks int64
	for b := range r.agg {
		marks += r.agg[b].intentCalls.Load()
	}
	m["trace.intent_marks"] = metric{float64(marks), "count"}
	m["trace.syncs"] = metric{float64(r.syncs.Load()), "count"}
	m["trace.sync_ms_mean"] = metric{ratio(r.syncNs.Load(), r.syncs.Load()) / 1e6, "ms"}

	// The idle sweep: criterion 2 of the paper's layout goodness says each
	// survivor is read for the fraction α of its units, all survivors alike.
	sw := &r.agg[bySweepIdle]
	lo, hi, sum := int64(-1), int64(0), int64(0)
	for slot := range r.survivorReads {
		if slot == idleVictim {
			continue
		}
		n := r.survivorReads[slot].Load()
		sum += n
		hi = max(hi, n)
		if lo < 0 || n < lo {
			lo = n
		}
	}
	m["trace.rebuild.reads_per_unit"] = metric{ratio(sw.diskReads[0].Load(), usable), "count"}
	m["trace.rebuild.survivor_read_frac"] = metric{ratio(sum, int64(w.c-1)*usable), "fraction"}
	m["trace.rebuild.survivor_read_imbalance"] = metric{ratio(hi, lo), "ratio"}
	m["trace.rebuild.backend_us_per_unit"] = metric{ratio(sw.diskNs.Load(), usable) / 1e3, "us"}
	workerNs := sw.opNs[0].Load() * int64(min(int64(w.numRebuildWorkers()), usable))
	m["trace.rebuild.engine_self_us_per_unit"] = metric{ratio(workerNs-sw.diskNs.Load(), usable) / 1e3, "us"}
}
