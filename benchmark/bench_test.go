package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"sort"
	"testing"
	"time"

	"declust/internal/layout"
)

// tiny shrinks a workload to C = 7, G = 4 (α = 1/2; two data units per
// stripe even under P+Q) and a few layout periods per disk, so a whole
// lifecycle takes milliseconds.
func tiny(t *testing.T, name string) workload {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.c, w.g, w.unitsPerDisk = 7, 4, 32
	w.segOps, w.traceOps, w.syncEvery = 4, 60, min(w.syncEvery, 25)
	return w
}

func testOptions(t *testing.T) options {
	dir := t.TempDir()
	return options{seed: 1, seconds: 0.2, scratch: dir, out: dir}
}

func keys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Every workload runs its whole lifecycle on the tiny geometry, verifies
// every byte, and reports every end-to-end metric BENCHMARK.json names,
// none of them zero.
func TestWorkloadsEndToEnd(t *testing.T) {
	want := contractNames(t).endToEnd
	for _, full := range workloads {
		t.Run(full.name, func(t *testing.T) {
			res, err := runUntraced(tiny(t, full.name), testOptions(t))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if got := keys(res.Metrics); !slices.Equal(got, want) {
				t.Fatalf("end-to-end metrics\n got %v\nwant %v", got, want)
			}
			for name, m := range res.Metrics {
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v", name, m.Value)
				}
			}
		})
	}
}

// The traced pass and the layer probes between them report every per-layer
// metric BENCHMARK.json names, and the counts the single-client pass
// records equal theory on every workload that issues unit ops.
func TestTracedCounts(t *testing.T) {
	want := contractNames(t).perLayer
	probed := map[string]metric{}
	o := testOptions(t)
	if err := (&prober{each: time.Millisecond, units: 40, m: probed}).run(o.scratch); err != nil {
		t.Fatal(err)
	}
	for _, full := range workloads {
		t.Run(full.name, func(t *testing.T) {
			w := tiny(t, full.name)
			o := testOptions(t)
			res := &result{Metrics: map[string]metric{}}
			if err := tracedPass(w, o, res); err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Fatalf("%d of %d ops failed", res.Failed, res.Attempted)
			}
			for name, m := range probed {
				res.Metrics[name] = m
			}
			if got := keys(res.Metrics); !slices.Equal(got, want) {
				t.Fatalf("per-layer metrics\n got %v\nwant %v", got, want)
			}
			if _, err := os.Stat(o.out + "/" + w.name + ".trace.jsonl"); err != nil {
				t.Error(err)
			}

			// A healthy read is one access. A healthy small write reads
			// and writes the data unit and each parity unit: 2 + 2 under
			// P, 3 + 3 under P+Q. An idle rebuild under P reads the G−1
			// other units of each stripe, which is the fraction α of
			// every survivor, all survivors alike. Under P+Q one lost disk
			// needs only G−2 of them (Q, or P when Q is lost, is left
			// out), and which survivor is spared depends on where the
			// parities sit, so the load is lighter but no longer even.
			parities := float64(w.victimsPerCycle())
			exact := map[string]float64{
				"trace.rebuild.reads_per_unit":     float64(w.g) - parities,
				"trace.rebuild.survivor_read_frac": (float64(w.g) - parities) / float64(w.c-1),
			}
			if !w.pq {
				exact["trace.rebuild.survivor_read_imbalance"] = 1
			}
			if w.rangeUnits == 1 {
				exact["trace.healthy.backend_reads_per_read"] = 1
				exact["trace.healthy.backend_reads_per_write"] = 1 + parities
				exact["trace.healthy.backend_writes_per_write"] = 1 + parities
			}
			for name, v := range exact {
				if got := res.Metrics[name].Value; math.Abs(got-v) > 1e-12 {
					t.Errorf("%s = %v, want %v", name, got, v)
				}
			}
		})
	}
}

// A read of a lost unit under single parity reads the stripe's G−1
// survivors, and nothing else.
func TestLostReadReadsSurvivors(t *testing.T) {
	w := tiny(t, "mem-p")
	r, err := build(w, t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	const victim = 2
	if err := r.s.Fail(victim); err != nil {
		t.Fatal(err)
	}
	r.rec.on.Store(true)
	r.rec.mode.Store(int32(byDegraded))
	buf := make([]byte, unitSize)
	lost := int64(0)
	for n := int64(0); n < r.s.DataUnits(); n++ {
		if layout.DataLoc(r.lay, n).Disk != victim {
			continue
		}
		lost++
		r.rec.beginOp(true, n, 1)
		err := r.s.ReadUnit(n, buf)
		r.rec.endOp()
		if err != nil || !stamped(buf, n, 1) {
			t.Fatalf("unit %d: err %v, stamped %v", n, err, stamped(buf, n, 1))
		}
	}
	c := &r.rec.agg[byDegraded]
	if got := c.diskReads[0].Load(); lost == 0 || got != lost*int64(w.g-1) {
		t.Errorf("%d lost reads made %d backend reads, want %d each", lost, got, w.g-1)
	}
	if got := c.diskWrites[0].Load(); got != 0 {
		t.Errorf("lost reads made %d backend writes", got)
	}
}

// The store finds Sync and Geometry by type assertion; a wrapped file
// disk must still offer both, or file-p silently stops fsyncing.
func TestWrappersForwardSyncAndGeometry(t *testing.T) {
	w := tiny(t, "file-p")
	w.sleep = 2 * time.Millisecond // both wrappers, stacked
	r, err := build(w, t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	r.armed.Store(false)
	r.rec.on.Store(true)
	if err := r.s.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := r.rec.syncs.Load(); got != int64(w.c) {
		t.Errorf("one Store.Sync reached %d backends' Sync, want %d", got, w.c)
	}
	repl, err := r.repl[0]()
	if err != nil {
		t.Fatal(err)
	}
	defer repl.Close()
	if units, us := geometryOf(repl); units != 32 || us != unitSize {
		t.Errorf("wrapped disk reports geometry (%d, %d), want (32, %d)", units, us, unitSize)
	}
}

// A payload verifies only as the unit and version it was stamped for.
func TestStamp(t *testing.T) {
	buf := make([]byte, unitSize)
	stamp(buf, 7, 3)
	if !stamped(buf, 7, 3) || stamped(buf, 7, 4) || stamped(buf, 8, 3) {
		t.Error("stamp does not pin (unit, version)")
	}
	buf[unitSize-1] ^= 1
	if stamped(buf, 7, 3) {
		t.Error("a flipped last byte verifies")
	}
}

// spread must give what a driver computes with Python's
// statistics.quantiles(v, n=4): for 1..10 the quartiles are 2.75 and 8.25.
func TestSpreadMatchesPython(t *testing.T) {
	v := []float64{3, 1, 4, 2, 10, 9, 5, 8, 6, 7}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestQuietAndTail(t *testing.T) {
	v := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if lo, hi := quiet(v, false), quiet(v, true); lo != 1 || hi != 9 {
		t.Errorf("quiet = %v, %v, want 1, 9", lo, hi)
	}
	// With many chunks the tail is the hundredth, not the tenth.
	many := make([]float64, 2001)
	for i := range many {
		many[i] = float64(i)
	}
	if lo, hi := quiet(many, false), quiet(many, true); lo != 20 || hi != 1980 {
		t.Errorf("quiet of 2001 = %v, %v, want 20, 1980", lo, hi)
	}
	hundred := make([][]uint32, 1)
	for i := uint32(1); i <= 100; i++ {
		hundred[0] = append(hundred[0], i*1000|writeFlag*(i%2))
	}
	if us, q := tailUs(hundred); q != 0.9 || math.Abs(us-90.1) > 1e-9 {
		t.Errorf("tail of 100 samples = %v at %v, want 90.1 at 0.9", us, q)
	}
}

type names struct{ workloads, endToEnd, perLayer []string }

// contractNames reads the names BENCHMARK.json declares and checks the
// workload table against it.
func contractNames(t *testing.T) names {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	var n names
	for _, w := range c.Workloads {
		n.workloads = append(n.workloads, w.Name)
	}
	for _, e := range c.EndToEnd {
		n.endToEnd = append(n.endToEnd, e.Name)
	}
	for _, p := range c.PerLayer {
		n.perLayer = append(n.perLayer, p.Name)
	}
	sort.Strings(n.endToEnd)
	sort.Strings(n.perLayer)
	var table []string
	for _, w := range workloads {
		table = append(table, w.name)
	}
	if !slices.Equal(n.workloads, table) {
		t.Fatalf("BENCHMARK.json workloads %v, table %v", n.workloads, table)
	}
	return n
}
