package experiments

import (
	"strings"
	"testing"

	"declust/internal/array"
)

// fastOpts: 1/50-scale disks and short windows keep the whole file under a
// minute while preserving per-access behaviour.
func fastOpts() Options {
	return Options{
		Scale:     50,
		Seed:      7,
		WarmupMS:  2_000,
		MeasureMS: 20_000,
	}
}

func TestTableFormatting(t *testing.T) {
	tab := Table{ID: "x", Title: "T", Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}}
	s := tab.String()
	for _, want := range []string{"x: T", "a", "bb", "1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("formatted table missing %q:\n%s", want, s)
		}
	}
}

func TestFig43CoversPaperDesigns(t *testing.T) {
	tab := Fig43(21)
	if len(tab.Rows) < 10 {
		t.Fatalf("only %d known designs", len(tab.Rows))
	}
	found := 0
	for _, r := range tab.Rows {
		if r[0] == "21" && r[3] == "paper appendix" {
			found++
		}
	}
	if found != 6 {
		t.Fatalf("found %d paper appendix designs at v=21, want 6", found)
	}
}

func TestFig6ReadsShape(t *testing.T) {
	o := fastOpts()
	o.Gs = []int{5, 21}
	o.Rates = []float64{105}
	pts, tab, err := Fig6(o, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || len(tab.Rows) != 2 {
		t.Fatalf("want 2 points, got %d", len(pts))
	}
	byG := map[int]ResponsePoint{}
	for _, p := range pts {
		byG[p.G] = p
		// Degraded reads are always slower than fault-free.
		if p.Degraded.MeanResponseMS <= p.FaultFree.MeanResponseMS {
			t.Errorf("G=%d: degraded %.1f <= fault-free %.1f",
				p.G, p.Degraded.MeanResponseMS, p.FaultFree.MeanResponseMS)
		}
	}
	// Fault-free response is essentially independent of α (paper §6):
	// within 15% between α=0.2 and α=1.
	a, b := byG[5].FaultFree.MeanResponseMS, byG[21].FaultFree.MeanResponseMS
	if diff := (a - b) / b; diff > 0.15 || diff < -0.15 {
		t.Errorf("fault-free response varies with α: %.1f vs %.1f", a, b)
	}
	// Degraded-mode degradation grows with α (paper §7).
	if byG[5].Degraded.MeanResponseMS >= byG[21].Degraded.MeanResponseMS {
		t.Errorf("degraded response at α=0.2 (%.1f) not below α=1.0 (%.1f)",
			byG[5].Degraded.MeanResponseMS, byG[21].Degraded.MeanResponseMS)
	}
}

func TestFig6WritesRun(t *testing.T) {
	o := fastOpts()
	o.Gs = []int{5}
	o.Rates = []float64{105}
	pts, _, err := Fig6(o, 0.0)
	if err != nil {
		t.Fatal(err)
	}
	// Writes are much slower than reads fault-free (4 accesses vs 1).
	if pts[0].FaultFree.MeanResponseMS < 20 {
		t.Errorf("write response %.1f ms implausibly fast", pts[0].FaultFree.MeanResponseMS)
	}
}

func TestFig8Shape(t *testing.T) {
	o := fastOpts()
	o.Gs = []int{5, 21}
	o.Rates = []float64{105}
	pts, tt, tr, err := Fig8(o, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2*len(ReconAlgorithms) {
		t.Fatalf("want %d points, got %d", 2*len(ReconAlgorithms), len(pts))
	}
	if len(tt.Rows) != len(pts) || len(tr.Rows) != len(pts) {
		t.Fatal("table row counts wrong")
	}
	// Declustering beats RAID 5 on both reconstruction time and user
	// response, for every algorithm (the paper's headline).
	get := func(g int, alg array.ReconAlgorithm) ReconPoint {
		for _, p := range pts {
			if p.G == g && p.Algorithm == alg {
				return p
			}
		}
		t.Fatalf("missing point G=%d %v", g, alg)
		return ReconPoint{}
	}
	for _, alg := range ReconAlgorithms {
		d, r := get(5, alg), get(21, alg)
		if d.Metrics.ReconTimeMS >= r.Metrics.ReconTimeMS {
			t.Errorf("%v: declustered recon %.0f ms !< RAID 5 %.0f ms",
				alg, d.Metrics.ReconTimeMS, r.Metrics.ReconTimeMS)
		}
		if d.Metrics.MeanResponseMS >= r.Metrics.MeanResponseMS {
			t.Errorf("%v: declustered response %.1f ms !< RAID 5 %.1f ms",
				alg, d.Metrics.MeanResponseMS, r.Metrics.MeanResponseMS)
		}
	}
}

func TestFig8ParallelFasterThanSingle(t *testing.T) {
	o := fastOpts()
	o.Gs = []int{5}
	o.Rates = []float64{105}
	single, _, _, err := Fig8(o, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, _, _, err := Fig8(o, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range single {
		s, p := single[i], parallel[i]
		if p.Metrics.ReconTimeMS >= s.Metrics.ReconTimeMS {
			t.Errorf("%v: 8-way recon %.0f ms !< single %.0f ms",
				s.Algorithm, p.Metrics.ReconTimeMS, s.Metrics.ReconTimeMS)
		}
		if p.Metrics.MeanResponseMS <= s.Metrics.MeanResponseMS {
			t.Errorf("%v: 8-way response %.1f ms !> single %.1f ms (no contention?)",
				s.Algorithm, p.Metrics.MeanResponseMS, s.Metrics.MeanResponseMS)
		}
	}
}

func TestTable81Shape(t *testing.T) {
	o := fastOpts()
	o.Gs = []int{4, 21}
	rows, tab, err := Table81(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(ReconAlgorithms)*2 {
		t.Fatalf("want %d rows, got %d", 2*len(ReconAlgorithms)*2, len(rows))
	}
	if len(tab.Rows) != len(rows) {
		t.Fatal("table rows mismatch")
	}
	// Read phase grows with α: more surviving disks must answer.
	for _, procs := range []int{1, 8} {
		for _, alg := range ReconAlgorithms {
			var lo, hi float64
			for _, r := range rows {
				if r.Procs == procs && r.Algorithm == alg {
					if r.G == 4 {
						lo = r.ReadMean
					} else {
						hi = r.ReadMean
					}
				}
			}
			if lo >= hi {
				t.Errorf("procs=%d %v: read phase at α=0.15 (%.1f) !< α=1.0 (%.1f)", procs, alg, lo, hi)
			}
		}
	}
}

func TestFig86ModelPessimistic(t *testing.T) {
	o := fastOpts()
	o.Gs = []int{5}
	pts, tab, err := Fig86(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || len(tab.Rows) != 2 {
		t.Fatalf("want 2 points, got %d", len(pts))
	}
	for _, p := range pts {
		// The paper's finding: the single-service-rate model is
		// significantly pessimistic versus the disk-accurate simulation.
		if p.ModelMin <= p.SimulatedMin {
			t.Errorf("%v: model %.1f min not above simulation %.1f min",
				p.Algorithm, p.ModelMin, p.SimulatedMin)
		}
	}
}

func TestExtPQTradeoff(t *testing.T) {
	o := fastOpts()
	rows, _, err := ExtPQ(o, []int{5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want P and P+Q", len(rows))
	}
	p, pq := rows[0], rows[1]
	if p.Code != "P" || pq.Code != "P+Q" {
		t.Fatalf("row order: %q, %q", p.Code, pq.Code)
	}
	// The tradeoff's two sides: P+Q doubles the parity overhead and slows
	// the write-heavy half of the mix (six-access RMW), but a worst-case
	// second failure loses α of the at-risk stripes under P and nothing
	// under P+Q.
	if pq.Overhead != 2*p.Overhead {
		t.Errorf("P+Q overhead %.2f, want twice P's %.2f", pq.Overhead, p.Overhead)
	}
	if pq.FaultFree <= p.FaultFree {
		t.Errorf("P+Q fault-free response %.1f ms not above P's %.1f ms", pq.FaultFree, p.FaultFree)
	}
	if p.LostFrac <= 0 {
		t.Errorf("single parity lost fraction %.3f, want > 0", p.LostFrac)
	}
	if pq.LostFrac != 0 {
		t.Errorf("P+Q lost fraction %.3f, want 0", pq.LostFrac)
	}
}

func TestExtThrottleTradeoff(t *testing.T) {
	o := fastOpts()
	pts, _, err := ExtThrottle(o, 5, []float64{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	free, slow := pts[0], pts[1]
	if slow.ReconMin <= free.ReconMin {
		t.Errorf("throttled recon %.1f min !> unthrottled %.1f min", slow.ReconMin, free.ReconMin)
	}
	if slow.ResponseMS >= free.ResponseMS {
		t.Errorf("throttled response %.1f ms !< unthrottled %.1f ms", slow.ResponseMS, free.ResponseMS)
	}
}

func TestExtPriorityImprovesResponse(t *testing.T) {
	o := fastOpts()
	pts, _, err := ExtPriority(o, 5)
	if err != nil {
		t.Fatal(err)
	}
	equal, low := pts[0], pts[1]
	if low.ResponseMS >= equal.ResponseMS {
		t.Errorf("low-priority recon response %.1f ms !< equal-priority %.1f ms",
			low.ResponseMS, equal.ResponseMS)
	}
}

func TestExtDataMapTradeoff(t *testing.T) {
	o := fastOpts()
	pts, _, err := ExtDataMap(o, 5, []int{4, 20})
	if err != nil {
		t.Fatal(err)
	}
	find := func(size int, parallel bool, readFrac float64) float64 {
		for _, p := range pts {
			if p.AccessUnits == size && p.Parallel == parallel && p.ReadFrac == readFrac {
				return p.ResponseMS
			}
		}
		t.Fatalf("missing point size=%d parallel=%v", size, parallel)
		return 0
	}
	// Aligned full-stripe writes: the stripe-index mapping gets the
	// large-write optimization (G accesses, no pre-read), the parallel
	// mapping cannot.
	if si, pm := find(4, false, 0), find(4, true, 0); si >= pm {
		t.Errorf("full-stripe writes: stripe-index %.1f ms !< parallel %.1f ms", si, pm)
	}
	// Large reads: the parallel mapping touches more disks. For random
	// positioning-dominated unit reads the response is a max over the
	// disks touched, so more spread does not guarantee lower latency —
	// only assert both mappings produce sane measurements; the table
	// records the trade-off.
	for _, parallel := range []bool{false, true} {
		if v := find(20, parallel, 1); v <= 0 || v > 2000 {
			t.Errorf("20-unit read response %.1f ms implausible (parallel=%v)", v, parallel)
		}
	}
}

func TestExtMirrorShape(t *testing.T) {
	o := fastOpts()
	rows, _, err := ExtMirror(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rows))
	}
	mirror, parity, raid5 := rows[0], rows[1], rows[2]
	// Mirroring: fastest writes fault-free (2 accesses vs 4) and best
	// behaviour through recovery, at 50% capacity overhead.
	if mirror.FaultFree >= parity.FaultFree {
		t.Errorf("mirror fault-free %.1f !< parity %.1f", mirror.FaultFree, parity.FaultFree)
	}
	if mirror.ResponseMS >= raid5.ResponseMS {
		t.Errorf("mirror recovering %.1f !< RAID 5 %.1f", mirror.ResponseMS, raid5.ResponseMS)
	}
	if mirror.ReconMin >= raid5.ReconMin {
		t.Errorf("mirror recon %.1f !< RAID 5 %.1f", mirror.ReconMin, raid5.ReconMin)
	}
	if mirror.Overhead != 0.5 || raid5.Overhead >= 0.05 {
		t.Errorf("overheads wrong: %+v", rows)
	}
}

func TestExtUnitSizeRuns(t *testing.T) {
	o := fastOpts()
	pts, _, err := ExtUnitSize(o, 5, []int{8, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("want 2 points, got %d", len(pts))
	}
	// Bigger units transfer more per access: responses grow.
	if pts[1].FaultFree <= pts[0].FaultFree {
		t.Errorf("16 KB units response %.1f !> 4 KB %.1f", pts[1].FaultFree, pts[0].FaultFree)
	}
	// Reconstruction of the same bytes in bigger chunks is faster
	// (fewer positioning delays per byte).
	if pts[1].ReconMin >= pts[0].ReconMin {
		t.Errorf("16 KB units recon %.2f min !< 4 KB %.2f min", pts[1].ReconMin, pts[0].ReconMin)
	}
}

func TestExtSkewRuns(t *testing.T) {
	o := fastOpts()
	pts, _, err := ExtSkew(o, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("want 3 points, got %d", len(pts))
	}
	for _, p := range pts {
		if p.FaultFree <= 0 || p.ReconMin <= 0 {
			t.Errorf("%s: missing metrics %+v", p.Label, p)
		}
	}
}

func TestExtSparingFasterReconUnderLoad(t *testing.T) {
	o := fastOpts()
	rows, _, err := ExtSparing(o, 5)
	if err != nil {
		t.Fatal(err)
	}
	repl, spared := rows[0], rows[1]
	if spared.ReconMin >= repl.ReconMin {
		t.Errorf("distributed sparing recon %.2f min !< replacement %.2f min",
			spared.ReconMin, repl.ReconMin)
	}
}

func TestExtReliabilityMonotone(t *testing.T) {
	o := fastOpts()
	o.Gs = []int{5, 21}
	rows, _, err := ExtReliability(o, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Faster reconstruction at lower α means higher MTTDL.
	if rows[0].MTTDLYears <= rows[1].MTTDLYears {
		t.Errorf("MTTDL at α=0.2 (%.0f y) !> α=1.0 (%.0f y)", rows[0].MTTDLYears, rows[1].MTTDLYears)
	}
}

func TestDoubleFailureLossMatchesAlpha(t *testing.T) {
	// The acceptance claim: a declustered layout loses a fraction of the
	// at-risk stripes within 20% of α = (G−1)/(C−1), while RAID 5 (G=C)
	// loses every stripe at risk — and every stripe is at risk.
	o := fastOpts()
	pts, tab, err := DoubleFailureLoss(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(pts) || len(pts) == 0 {
		t.Fatalf("table/points mismatch: %d rows, %d points", len(tab.Rows), len(pts))
	}
	for _, p := range pts {
		if p.StripesAtRisk == 0 {
			t.Fatalf("G=%d: no stripes at risk after a disk failure", p.G)
		}
		if p.G == 21 {
			if p.LostFraction != 1 {
				t.Errorf("RAID 5 lost fraction %.3f, want 1", p.LostFraction)
			}
			continue
		}
		if rel := p.LostFraction/p.Alpha - 1; rel < -0.2 || rel > 0.2 {
			t.Errorf("G=%d: lost fraction %.3f vs α=%.3f (%.0f%% off)",
				p.G, p.LostFraction, p.Alpha, 100*rel)
		}
		if p.UnitsLost < 2*p.StripesLost {
			t.Errorf("G=%d: %d units over %d lost stripes; want ≥2 per stripe",
				p.G, p.UnitsLost, p.StripesLost)
		}
	}
}

func TestExtSchedSeekOptimizersBeatFIFO(t *testing.T) {
	o := fastOpts()
	pts, tab, err := ExtSched(o, []int{21})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(SchedPolicies) || len(tab.Rows) != len(pts) {
		t.Fatalf("want %d points, got %d (rows %d)", len(SchedPolicies), len(pts), len(tab.Rows))
	}
	byPolicy := map[string]SchedPoint{}
	for _, p := range pts {
		byPolicy[p.Policy.String()] = p
		if p.DegradedMS <= 0 || p.ReconMin <= 0 || p.ReconRespMS <= 0 {
			t.Errorf("%v: missing metrics %+v", p.Policy, p)
		}
	}
	fifo := byPolicy["fifo"]
	if fifo.DeltaPct != 0 {
		t.Errorf("FIFO delta %.1f%%, want 0 (it is the baseline)", fifo.DeltaPct)
	}
	// The motivating effect at the paper's heavy rate: seek-optimizing
	// schedulers measurably cut degraded-mode response versus FIFO on the
	// deeply queued RAID 5 configuration.
	for _, name := range []string{"sstf", "cscan", "cvscan"} {
		p := byPolicy[name]
		if p.DegradedMS >= fifo.DegradedMS {
			t.Errorf("%s degraded %.1f ms !< fifo %.1f ms", name, p.DegradedMS, fifo.DegradedMS)
		}
		if p.DeltaPct >= 0 {
			t.Errorf("%s delta %+.1f%%, want negative", name, p.DeltaPct)
		}
	}
}

func TestExtReadaheadSequentialStreamsHit(t *testing.T) {
	o := fastOpts()
	pts, tab, err := ExtReadahead(o, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 9 || len(tab.Rows) != 9 {
		t.Fatalf("want 9 points, got %d", len(pts))
	}
	find := func(seq float64, tracks int) ReadaheadPoint {
		for _, p := range pts {
			if p.SeqFraction == seq && p.Tracks == tracks {
				return p
			}
		}
		t.Fatalf("missing point seq=%v tracks=%d", seq, tracks)
		return ReadaheadPoint{}
	}
	for _, seq := range []float64{0, 0.5, 0.9} {
		if p := find(seq, 0); p.CacheHits != 0 {
			t.Errorf("seq=%v tracks=0: %d cache hits with the buffer off", seq, p.CacheHits)
		}
	}
	off, on := find(0.9, 0), find(0.9, 4)
	if on.CacheHits == 0 {
		t.Error("sequential stream with 4-track read-ahead produced no hits")
	}
	if on.ResponseMS >= off.ResponseMS {
		t.Errorf("read-ahead response %.1f ms !< no-buffer %.1f ms on a 90%% sequential stream",
			on.ResponseMS, off.ResponseMS)
	}
}
