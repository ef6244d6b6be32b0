// Benchmarks regenerating each table and figure of the paper's evaluation,
// at 1/20-scale disks so `go test -bench=.` completes in minutes. The
// full-scale reproduction (cmd/experiments) feeds EXPERIMENTS.md; these
// benches exercise identical code paths and report the headline metric of
// each figure via b.ReportMetric.
//
// Shapes to expect (mirroring the paper): reconstruction time and
// during-recovery response time fall as α falls (fig 8-1..8-4);
// fault-free response is independent of α (fig 6-1/6-2); the analytic
// model overestimates reconstruction time (fig 8-6).
package declust_test

import (
	"runtime"
	"testing"

	"declust"
	"declust/internal/blockdesign"
	"declust/internal/experiments"
	"declust/internal/layout"
)

func benchOpts(seed int64) experiments.Options {
	return experiments.Options{
		Scale:     20,
		Seed:      seed,
		WarmupMS:  5_000,
		MeasureMS: 30_000,
	}
}

// BenchmarkFig4_3DesignCatalog regenerates the known-designs scatter.
func BenchmarkFig4_3DesignCatalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.Fig43(41)
		if len(tab.Rows) == 0 {
			b.Fatal("empty catalog")
		}
	}
}

// BenchmarkFig6_1ReadResponse regenerates Figure 6-1 (fault-free and
// degraded response, 100% reads) at rate 210 for α ∈ {0.2, 1.0}.
func BenchmarkFig6_1ReadResponse(b *testing.B) {
	o := benchOpts(1)
	o.Gs = []int{5, 21}
	o.Rates = []float64{210}
	for i := 0; i < b.N; i++ {
		pts, _, err := experiments.Fig6(o, 1.0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].FaultFree.MeanResponseMS, "ff-ms")
		b.ReportMetric(pts[0].Degraded.MeanResponseMS, "deg-ms")
	}
}

// BenchmarkFig6_2WriteResponse regenerates Figure 6-2 (100% writes) at
// rate 105 for α ∈ {0.2, 1.0}.
func BenchmarkFig6_2WriteResponse(b *testing.B) {
	o := benchOpts(2)
	o.Gs = []int{5, 21}
	o.Rates = []float64{105}
	for i := 0; i < b.N; i++ {
		pts, _, err := experiments.Fig6(o, 0.0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].FaultFree.MeanResponseMS, "ff-ms")
		b.ReportMetric(pts[0].Degraded.MeanResponseMS, "deg-ms")
	}
}

// benchFig8 runs Figures 8-1/8-2 (procs=1) or 8-3/8-4 (procs=8) for
// α ∈ {0.2, 1.0} at rate 105 and reports declustered vs RAID 5
// reconstruction minutes and response.
func benchFig8(b *testing.B, procs int) {
	o := benchOpts(3)
	o.Gs = []int{5, 21}
	o.Rates = []float64{105}
	for i := 0; i < b.N; i++ {
		pts, _, _, err := experiments.Fig8(o, procs)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.Algorithm != declust.Baseline {
				continue
			}
			if p.G == 5 {
				b.ReportMetric(p.Metrics.ReconTimeMS/60_000, "declust-min")
				b.ReportMetric(p.Metrics.MeanResponseMS, "declust-resp-ms")
			} else {
				b.ReportMetric(p.Metrics.ReconTimeMS/60_000, "raid5-min")
				b.ReportMetric(p.Metrics.MeanResponseMS, "raid5-resp-ms")
			}
		}
	}
}

// BenchmarkFig8_1And8_2SingleThreadRecon regenerates Figures 8-1 and 8-2.
func BenchmarkFig8_1And8_2SingleThreadRecon(b *testing.B) { benchFig8(b, 1) }

// BenchmarkFig8_3And8_4ParallelRecon regenerates Figures 8-3 and 8-4.
func BenchmarkFig8_3And8_4ParallelRecon(b *testing.B) { benchFig8(b, 8) }

// BenchmarkTable8_1ReconCycles regenerates Table 8-1's cycle phase times
// for α ∈ {0.15, 1.0}.
func BenchmarkTable8_1ReconCycles(b *testing.B) {
	o := benchOpts(4)
	o.Gs = []int{4, 21}
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Table81(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].ReadMean, "read-phase-ms")
		b.ReportMetric(rows[0].WriteMean, "write-phase-ms")
	}
}

// BenchmarkFig8_6ModelVsSim regenerates Figure 8-6's model/simulation
// comparison at α = 0.2.
func BenchmarkFig8_6ModelVsSim(b *testing.B) {
	o := benchOpts(5)
	o.Gs = []int{5}
	for i := 0; i < b.N; i++ {
		pts, _, err := experiments.Fig86(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].ModelMin/pts[0].SimulatedMin, "model/sim")
	}
}

// BenchmarkExtThrottleAblation measures the §9 throttling extension.
func BenchmarkExtThrottleAblation(b *testing.B) {
	o := benchOpts(6)
	for i := 0; i < b.N; i++ {
		pts, _, err := experiments.ExtThrottle(o, 5, []float64{0, 10})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].ReconMin, "free-recon-min")
		b.ReportMetric(pts[1].ReconMin, "throttled-recon-min")
	}
}

// BenchmarkExtPriorityAblation measures the §9 prioritization extension.
func BenchmarkExtPriorityAblation(b *testing.B) {
	o := benchOpts(7)
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.ExtPriority(o, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtSparing measures distributed sparing vs replacement-disk
// reconstruction.
func BenchmarkExtSparing(b *testing.B) {
	o := benchOpts(9)
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.ExtSparing(o, 5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].ReconMin/rows[1].ReconMin, "repl/spared")
	}
}

// BenchmarkExtMirror measures the mirroring-vs-parity comparison.
func BenchmarkExtMirror(b *testing.B) {
	o := benchOpts(10)
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.ExtMirror(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtReliability measures the MTTDL extension table.
func BenchmarkExtReliability(b *testing.B) {
	o := benchOpts(8)
	o.Gs = []int{5, 21}
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.ExtReliability(o, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Microbenchmarks of the core data structures ---

// BenchmarkLayoutMapping measures the declustered forward map (paper
// criterion 4: efficient mapping).
func BenchmarkLayoutMapping(b *testing.B) {
	d, err := blockdesign.PaperDesign(5)
	if err != nil {
		b.Fatal(err)
	}
	l, err := layout.NewDeclustered(d)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loc := layout.DataLoc(l, int64(i)%100_000)
		if loc.Disk < 0 {
			b.Fatal("bad loc")
		}
	}
}

// BenchmarkLayoutInverse measures the declustered inverse map.
func BenchmarkLayoutInverse(b *testing.B) {
	d, _ := blockdesign.PaperDesign(5)
	l, _ := layout.NewDeclustered(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _ := l.Locate(layout.Loc{Disk: i % 21, Offset: int64(i) % 10_000})
		if s < 0 {
			b.Fatal("bad stripe")
		}
	}
}

// BenchmarkDesignGeneration measures construction+verification of the
// paper's most intricate design (the derived (21,10,9)).
func BenchmarkDesignGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := blockdesign.PaperDesign(10); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Instrumentation overhead ---

// runFaultFree runs one 1/20-scale fault-free window of measureMS simulated
// milliseconds over stripes with parities parity units (1: P; 2: P+Q),
// optionally with the full metrics stack (registry, latency histograms,
// time-series sampling) attached. The benchmark pair times it under P;
// TestFaultFreeCounts asserts everything about it that is not time.
func runFaultFree(parities int, instrumented bool, measureMS float64) (declust.Metrics, error) {
	cfg := declust.SimConfig{
		C: 21, G: 5, Parities: parities,
		Scale:        20,
		RatePerSec:   210,
		ReadFraction: 0.5,
		Seed:         11,
		WarmupMS:     2_000,
		MeasureMS:    measureMS,
	}
	if instrumented {
		cfg.Metrics = declust.NewMetricsRegistry()
		cfg.SampleEveryMS = 1000
	}
	return declust.RunFaultFree(cfg)
}

// faultFreeWindowMS is the window the benchmark pair times.
const faultFreeWindowMS = 20_000

// benchFaultFree is the Off/On pair's body. The pair bounds the overhead of
// instrumentation; with it disabled the hot path pays only nil checks.
func benchFaultFree(b *testing.B, instrumented bool) {
	for i := 0; i < b.N; i++ {
		m, err := runFaultFree(1, instrumented, faultFreeWindowMS)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(m.EngineEvents)/float64(m.Requests), "events/req")
	}
}

// BenchmarkFaultFreeMetricsOff is the uninstrumented baseline.
func BenchmarkFaultFreeMetricsOff(b *testing.B) { benchFaultFree(b, false) }

// BenchmarkFaultFreeMetricsOn runs the same window with the registry,
// histograms and per-disk sampling enabled; compare ns/op against
// BenchmarkFaultFreeMetricsOff to measure instrumentation overhead.
func BenchmarkFaultFreeMetricsOn(b *testing.B) { benchFaultFree(b, true) }

// TestFaultFreeCounts is the simulator's performance gate for everything a
// count can say, and it needs no baseline: the run is deterministic, so the
// requests it completes and the engine events it fires are exact — one
// event more per request is 4 053 more. Its allocations are a fixed cost
// per run plus almost nothing per request, pinned as two ceilings because
// the fixed part moves by a few with the Go release and, under the race
// detector, with what sync.Pool drops: the window the benchmarks time may
// cost a few per cent more than it does today (1 047 objects without the
// registry, 2 345 with, 1 456 under P+Q), and stretching the window
// fourfold may add 0.05 allocations per extra request (today 0.014, 0.034
// and 0.014: growth of the response-sample, histogram and series slices) —
// one allocation per request overshoots that twentyfold. The P+Q row plays
// the same workload through the write planner's P+Q paths, which outside it
// only the golden hashes guard. Time is left to the benchmarks and judged
// parent against change: DESIGN.md §6.
func TestFaultFreeCounts(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds, moving simulated
		// times — and with them which requests finish inside the window.
		t.Skip("counts were recorded on amd64")
	}
	const longWindowMS = 4 * faultFreeWindowMS
	for _, tc := range []struct {
		parities               int
		instrumented           bool
		requests, events       int     // the benchmarks' window
		longRequests, longEvts int     // four times the window
		allocCeiling           float64 // allocations of one benchmark window
	}{
		{1, false, 4053, 15663, 16493, 59257, 1100},
		{1, true, 4053, 15686, 16493, 59340, 2460},
		{2, false, 4053, 20143, 16493, 76213, 1530},
	} {
		measure := func(ms float64, wantReq, wantEvents int) float64 {
			t.Helper()
			var m declust.Metrics
			allocs := testing.AllocsPerRun(3, func() {
				var err error
				if m, err = runFaultFree(tc.parities, tc.instrumented, ms); err != nil {
					t.Fatal(err)
				}
			})
			if m.Requests != wantReq || m.EngineEvents != uint64(wantEvents) {
				t.Errorf("parities %d, metrics %v, %.0f ms: %d requests and %d engine events, want exactly %d and %d",
					tc.parities, tc.instrumented, ms, m.Requests, m.EngineEvents, wantReq, wantEvents)
			}
			return allocs
		}
		short := measure(faultFreeWindowMS, tc.requests, tc.events)
		long := measure(longWindowMS, tc.longRequests, tc.longEvts)
		if short > tc.allocCeiling {
			t.Errorf("parities %d, metrics %v: one %d ms window allocates %.0f objects, ceiling %.0f",
				tc.parities, tc.instrumented, faultFreeWindowMS, short, tc.allocCeiling)
		}
		const perRequestCeiling = 0.05
		if per := (long - short) / float64(tc.longRequests-tc.requests); per > perRequestCeiling {
			t.Errorf("parities %d, metrics %v: %.3f allocations per extra request (%.0f over %d ms, %.0f over %d), ceiling %.2f",
				tc.parities, tc.instrumented, per, short, faultFreeWindowMS, long, longWindowMS, perRequestCeiling)
		}
	}
}
