// Package experiments regenerates every table and figure of the paper's
// evaluation (§6–§8) from the simulator, plus the extension studies listed
// in DESIGN.md. Each experiment returns both structured series (for tests
// and benchmarks) and a formatted Table (for the CLI and EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"strings"

	"declust/internal/analytic"
	"declust/internal/array"
	"declust/internal/blockdesign"
	"declust/internal/core"
	"declust/internal/disk"
)

// Options configures a reproduction run. Zero values select the paper's
// full-scale setup.
type Options struct {
	// ScaleNum/ScaleDen shrink the disks (1/10 runs ~10x faster;
	// reconstruction times scale linearly with capacity). 0/0 = full.
	ScaleNum, ScaleDen int
	// Gs are the parity stripe sizes to sweep; nil = the paper's
	// {3,4,5,6,10,18,21} for §6 and {4,5,6,10,18,21} for §8 (the paper
	// drops α = 0.1 after §6).
	Gs []int
	// Rates are user access rates; nil = the figure's own rates.
	Rates []float64
	// Seed for workload determinism.
	Seed int64
	// WarmupMS and MeasureMS for response-time windows; 0 = defaults
	// (10 s warmup, 100 s measurement).
	WarmupMS, MeasureMS float64
	// Workers fans independent simulation points out over this many
	// goroutines (<= 1 = serial). Each point owns its engine and RNG
	// streams and results are assembled in point order, so tables and
	// exports are byte-identical whatever the worker count.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.WarmupMS == 0 {
		o.WarmupMS = 10_000
	}
	if o.MeasureMS == 0 {
		o.MeasureMS = 100_000
	}
	return o
}

func (o Options) gs(section8 bool) []int {
	if o.Gs != nil {
		return o.Gs
	}
	if section8 {
		return []int{4, 5, 6, 10, 18, 21}
	}
	return []int{3, 4, 5, 6, 10, 18, 21}
}

func (o Options) simConfig(g int, rate, readFrac float64) core.SimConfig {
	return core.SimConfig{
		C: 21, G: g,
		ScaleNum: o.ScaleNum, ScaleDen: o.ScaleDen,
		RatePerSec:   rate,
		ReadFraction: readFrac,
		Seed:         o.Seed,
		WarmupMS:     o.WarmupMS,
		MeasureMS:    o.MeasureMS,
	}
}

// Table is a formatted experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }

// alphaOf returns the declustering ratio of a G on 21 disks.
func alphaOf(g int) float64 { return float64(g-1) / 20 }

// Fig43 reproduces Figure 4-3: the scatter of known block designs the
// implementation can draw on.
func Fig43(maxV int) Table {
	if maxV <= 0 {
		maxV = 41
	}
	pts := blockdesign.KnownDesigns(maxV, blockdesign.DefaultMaxTuples)
	t := Table{
		ID:     "fig4-3",
		Title:  fmt.Sprintf("Known block designs (v ≤ %d, table ≤ %d tuples)", maxV, blockdesign.DefaultMaxTuples),
		Header: []string{"v", "k", "b", "source"},
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(p.V), fmt.Sprint(p.K), fmt.Sprint(p.B), p.Source,
		})
	}
	return t
}

// ResponsePoint is one (α, rate) sample of Figures 6-1/6-2.
type ResponsePoint struct {
	G         int
	Alpha     float64
	Rate      float64
	FaultFree core.Metrics
	Degraded  core.Metrics
}

// Fig6 reproduces Figure 6-1 (readFrac = 1) or 6-2 (readFrac = 0):
// fault-free and degraded average response time versus α at several user
// rates. The paper's rates are {105, 210, 378} for reads and {105, 210}
// for writes.
func Fig6(o Options, readFrac float64) ([]ResponsePoint, Table, error) {
	o = o.withDefaults()
	rates := o.Rates
	if rates == nil {
		if readFrac == 1 {
			rates = []float64{105, 210, 378}
		} else {
			rates = []float64{105, 210}
		}
	}
	id, title := "fig6-1", "Avg response time, 100% reads (ms)"
	if readFrac < 1 {
		id, title = "fig6-2", "Avg response time, 100% writes (ms)"
	}
	t := Table{ID: id, Title: title,
		Header: []string{"alpha", "G", "rate/s", "fault-free", "degraded"}}
	type job struct {
		g    int
		rate float64
	}
	var jobs []job
	for _, g := range o.gs(false) {
		for _, rate := range rates {
			jobs = append(jobs, job{g, rate})
		}
	}
	pts, err := RunPoints(o.Workers, len(jobs), func(i int) (ResponsePoint, error) {
		j := jobs[i]
		cfg := o.simConfig(j.g, j.rate, readFrac)
		ff, err := core.RunFaultFree(cfg)
		if err != nil {
			return ResponsePoint{}, fmt.Errorf("fig6 fault-free G=%d rate=%v: %w", j.g, j.rate, err)
		}
		dg, err := core.RunDegraded(cfg)
		if err != nil {
			return ResponsePoint{}, fmt.Errorf("fig6 degraded G=%d rate=%v: %w", j.g, j.rate, err)
		}
		return ResponsePoint{G: j.g, Alpha: alphaOf(j.g), Rate: j.rate, FaultFree: ff, Degraded: dg}, nil
	})
	if err != nil {
		return nil, t, err
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{
			f2(p.Alpha), fmt.Sprint(p.G), fmt.Sprint(p.Rate),
			f1(p.FaultFree.MeanResponseMS), f1(p.Degraded.MeanResponseMS),
		})
	}
	return pts, t, nil
}

// ReconPoint is one (α, algorithm, rate) sample of Figures 8-1..8-4.
type ReconPoint struct {
	G         int
	Alpha     float64
	Rate      float64
	Algorithm array.ReconAlgorithm
	Metrics   core.Metrics
}

// ReconAlgorithms is the paper's §8 set.
var ReconAlgorithms = []array.ReconAlgorithm{
	array.Baseline, array.UserWrites, array.Redirect, array.RedirectPiggyback,
}

// Fig8 reproduces Figures 8-1/8-2 (procs = 1) or 8-3/8-4 (procs = 8): for
// each α, reconstruction algorithm and rate, the reconstruction time and
// the average user response time during reconstruction, under the 50/50
// read/write workload. One simulation yields both figures' data.
func Fig8(o Options, procs int) ([]ReconPoint, Table, Table, error) {
	o = o.withDefaults()
	rates := o.Rates
	if rates == nil {
		rates = []float64{105, 210}
	}
	suffix := "single-thread"
	idT, idR := "fig8-1", "fig8-2"
	if procs != 1 {
		suffix = fmt.Sprintf("%d-way parallel", procs)
		idT, idR = "fig8-3", "fig8-4"
	}
	tt := Table{ID: idT, Title: fmt.Sprintf("Reconstruction time, %s, 50%% reads (minutes)", suffix),
		Header: []string{"alpha", "G", "rate/s", "algorithm", "recon (min)"}}
	tr := Table{ID: idR, Title: fmt.Sprintf("Avg user response time during reconstruction, %s (ms)", suffix),
		Header: []string{"alpha", "G", "rate/s", "algorithm", "response (ms)"}}
	type job struct {
		g    int
		rate float64
		alg  array.ReconAlgorithm
	}
	var jobs []job
	for _, g := range o.gs(true) {
		for _, rate := range rates {
			for _, alg := range ReconAlgorithms {
				jobs = append(jobs, job{g, rate, alg})
			}
		}
	}
	pts, err := RunPoints(o.Workers, len(jobs), func(i int) (ReconPoint, error) {
		j := jobs[i]
		cfg := o.simConfig(j.g, j.rate, 0.5)
		cfg.Algorithm = j.alg
		cfg.ReconProcs = procs
		m, err := core.RunReconstruction(cfg)
		if err != nil {
			return ReconPoint{}, fmt.Errorf("fig8 G=%d rate=%v alg=%v: %w", j.g, j.rate, j.alg, err)
		}
		return ReconPoint{G: j.g, Alpha: alphaOf(j.g), Rate: j.rate, Algorithm: j.alg, Metrics: m}, nil
	})
	if err != nil {
		return nil, tt, tr, err
	}
	for _, p := range pts {
		tt.Rows = append(tt.Rows, []string{
			f2(p.Alpha), fmt.Sprint(p.G), fmt.Sprint(p.Rate), p.Algorithm.String(),
			f1(p.Metrics.ReconTimeMS / 60_000),
		})
		tr.Rows = append(tr.Rows, []string{
			f2(p.Alpha), fmt.Sprint(p.G), fmt.Sprint(p.Rate), p.Algorithm.String(),
			f1(p.Metrics.MeanResponseMS),
		})
	}
	return pts, tt, tr, nil
}

// CycleRow is one entry of Table 8-1.
type CycleRow struct {
	G          int
	Alpha      float64
	Procs      int
	Algorithm  array.ReconAlgorithm
	ReadMean   float64
	ReadStd    float64
	WriteMean  float64
	WriteStd   float64
	CycleTotal float64
}

// Table81 reproduces Table 8-1: reconstruction cycle read/write phase
// times averaged over the last 300 reconstructed units, at rate 210, for
// α in {0.15, 0.45, 1.0}, all four algorithms, 1 and 8 processes.
func Table81(o Options) ([]CycleRow, Table, error) {
	o = o.withDefaults()
	gs := o.Gs
	if gs == nil {
		gs = []int{4, 10, 21} // α = 0.15, 0.45, 1.0
	}
	t := Table{ID: "table8-1",
		Title:  "Reconstruction cycle times (ms) at rate = 210: read(σ) + write(σ) = cycle",
		Header: []string{"procs", "algorithm", "alpha", "read", "(σ)", "write", "(σ)", "cycle"}}
	type job struct {
		procs int
		alg   array.ReconAlgorithm
		g     int
	}
	var jobs []job
	for _, procs := range []int{1, 8} {
		for _, alg := range ReconAlgorithms {
			for _, g := range gs {
				jobs = append(jobs, job{procs, alg, g})
			}
		}
	}
	rows, err := RunPoints(o.Workers, len(jobs), func(i int) (CycleRow, error) {
		j := jobs[i]
		cfg := o.simConfig(j.g, 210, 0.5)
		cfg.Algorithm = j.alg
		cfg.ReconProcs = j.procs
		m, err := core.RunReconstruction(cfg)
		if err != nil {
			return CycleRow{}, fmt.Errorf("table8-1 G=%d alg=%v procs=%d: %w", j.g, j.alg, j.procs, err)
		}
		return CycleRow{G: j.g, Alpha: alphaOf(j.g), Procs: j.procs, Algorithm: j.alg,
			ReadMean: m.ReadTailMeanMS, ReadStd: m.ReadTailStdMS,
			WriteMean: m.WriteTailMeanMS, WriteStd: m.WriteTailStdMS,
			CycleTotal: m.ReadTailMeanMS + m.WriteTailMeanMS}, nil
	})
	if err != nil {
		return nil, t, err
	}
	for _, row := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(row.Procs), row.Algorithm.String(), f2(row.Alpha),
			f1(row.ReadMean), f1(row.ReadStd), f1(row.WriteMean), f1(row.WriteStd), f1(row.CycleTotal),
		})
	}
	return rows, t, nil
}

// ModelPoint is one sample of Figure 8-6.
type ModelPoint struct {
	G            int
	Alpha        float64
	Algorithm    array.ReconAlgorithm
	ModelMin     float64 // Muntz & Lui prediction, minutes
	SimulatedMin float64 // our simulation, minutes
}

// Fig86 reproduces Figure 8-6: the Muntz & Lui analytic prediction against
// simulation, reconstruction time versus α at rate 210, 50% reads. The
// model assumes the bottleneck resource runs at 100% utilization, so the
// fair simulation counterpart is the well-utilized 8-way parallel sweep;
// the model still overestimates because it prices every access — including
// the replacement's near-sequential writes — at the random-access service
// rate (~46/s).
func Fig86(o Options) ([]ModelPoint, Table, error) {
	o = o.withDefaults()
	geom := disk.IBM0661()
	if o.ScaleNum > 0 && o.ScaleDen > 0 {
		geom = geom.Scaled(o.ScaleNum, o.ScaleDen)
	}
	t := Table{ID: "fig8-6",
		Title:  "Muntz & Lui model vs 8-way simulation: reconstruction time (min), rate 210, 50% reads",
		Header: []string{"alpha", "G", "algorithm", "model (min)", "simulated (min)", "model/sim"}}
	// Model disk rate: 1 / average random 4 KB access time.
	avgMS := geom.AvgSeekMS + geom.RevolutionMS/2 + 8.0/float64(geom.SectorsPerTrack)*geom.RevolutionMS
	diskRate := 1000 / avgMS
	type job struct {
		g   int
		alg array.ReconAlgorithm
	}
	var jobs []job
	for _, g := range o.gs(true) {
		for _, alg := range []array.ReconAlgorithm{array.UserWrites, array.Redirect} {
			jobs = append(jobs, job{g, alg})
		}
	}
	pts, err := RunPoints(o.Workers, len(jobs), func(i int) (ModelPoint, error) {
		j := jobs[i]
		cfg := o.simConfig(j.g, 210, 0.5)
		cfg.Algorithm = j.alg
		cfg.ReconProcs = 8
		m, err := core.RunReconstruction(cfg)
		if err != nil {
			return ModelPoint{}, fmt.Errorf("fig8-6 G=%d: %w", j.g, err)
		}
		// The model sweeps the same usable capacity the simulator
		// maps: raw units rounded down to whole allocation periods.
		raw := geom.TotalSectors() / 8
		r := unitsPerPeriod(j.g)
		model := analytic.Model{
			C: 21, G: j.g,
			UserRate:     210,
			ReadFraction: 0.5,
			DiskRate:     diskRate,
			UnitsPerDisk: float64(raw / r * r),
			Algorithm:    analytic.Algorithm(j.alg),
		}
		pred, err := model.ReconstructionTime()
		if err != nil {
			return ModelPoint{}, fmt.Errorf("fig8-6 model G=%d: %w", j.g, err)
		}
		return ModelPoint{G: j.g, Alpha: alphaOf(j.g), Algorithm: j.alg,
			ModelMin: pred / 60, SimulatedMin: m.ReconTimeMS / 60_000}, nil
	})
	if err != nil {
		return nil, t, err
	}
	for _, mp := range pts {
		t.Rows = append(t.Rows, []string{
			f2(mp.Alpha), fmt.Sprint(mp.G), mp.Algorithm.String(),
			f1(mp.ModelMin), f1(mp.SimulatedMin), f2(mp.ModelMin / mp.SimulatedMin),
		})
	}
	return pts, t, nil
}

// unitsPerPeriod returns r (units per disk per allocation period) for the
// 21-disk designs, used to compute usable capacity like the array does.
func unitsPerPeriod(g int) int64 {
	if g == 21 {
		return 21
	}
	d, err := blockdesign.PaperDesign(g)
	if err != nil {
		return 1
	}
	p, err := d.Params()
	if err != nil {
		return 1
	}
	return int64(p.R)
}
