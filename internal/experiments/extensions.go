package experiments

import (
	"fmt"

	"declust/internal/analytic"
	"declust/internal/core"
	"declust/internal/drive"
	"declust/internal/reliability"
)

// Extension experiments: the paper's §9 future-work items, implemented and
// measured. These have no paper figure to match; they extend the study.

// ThrottlePoint is one sample of the reconstruction-throttling ablation.
type ThrottlePoint struct {
	CyclesPerSec float64 // 0 = unthrottled
	ReconMin     float64
	ResponseMS   float64
}

// ExtThrottle measures the reconstruction-time / user-response trade-off
// as reconstruction is throttled (paper §9: "throttling of reconstruction
// ... that reduces user response time degradation without starving
// reconstruction"). Uses G, rate 210, 50/50, 8-way parallel.
func ExtThrottle(o Options, g int, rates []float64) ([]ThrottlePoint, Table, error) {
	o = o.withDefaults()
	if rates == nil {
		rates = []float64{0, 40, 20, 10} // cycles/s per process; 0 = free-running
	}
	t := Table{ID: "ext-throttle",
		Title:  fmt.Sprintf("Reconstruction throttling ablation (G=%d, 8-way, rate 210, 50%% reads)", g),
		Header: []string{"cycles/s/proc", "recon (min)", "response (ms)"}}
	pts, err := RunPoints(o.Workers, len(rates), func(i int) (ThrottlePoint, error) {
		cps := rates[i]
		cfg := o.simConfig(g, 210, 0.5)
		cfg.ReconProcs = 8
		cfg.ReconThrottleCyclesPerSec = cps
		m, err := core.RunReconstruction(cfg)
		if err != nil {
			return ThrottlePoint{}, fmt.Errorf("ext-throttle cps=%v: %w", cps, err)
		}
		return ThrottlePoint{CyclesPerSec: cps, ReconMin: m.ReconTimeMS / 60_000, ResponseMS: m.MeanResponseMS}, nil
	})
	if err != nil {
		return nil, t, err
	}
	for _, p := range pts {
		label := fmt.Sprint(p.CyclesPerSec)
		if p.CyclesPerSec == 0 {
			label = "unthrottled"
		}
		t.Rows = append(t.Rows, []string{label, f1(p.ReconMin), f1(p.ResponseMS)})
	}
	return pts, t, nil
}

// PriorityPoint is one sample of the reconstruction-priority ablation.
type PriorityPoint struct {
	LowPriority bool
	ReconMin    float64
	ResponseMS  float64
}

// ExtPriority measures the effect of scheduling reconstruction accesses in
// a lower disk-queue class than user accesses (paper §9: "a flexible
// prioritization scheme").
func ExtPriority(o Options, g int) ([]PriorityPoint, Table, error) {
	o = o.withDefaults()
	t := Table{ID: "ext-priority",
		Title:  fmt.Sprintf("Reconstruction access priority ablation (G=%d, 8-way, rate 210, 50%% reads)", g),
		Header: []string{"recon priority", "recon (min)", "response (ms)"}}
	lows := []bool{false, true}
	pts, err := RunPoints(o.Workers, len(lows), func(i int) (PriorityPoint, error) {
		low := lows[i]
		cfg := o.simConfig(g, 210, 0.5)
		cfg.ReconProcs = 8
		cfg.ReconLowPriority = low
		m, err := core.RunReconstruction(cfg)
		if err != nil {
			return PriorityPoint{}, fmt.Errorf("ext-priority low=%v: %w", low, err)
		}
		return PriorityPoint{LowPriority: low, ReconMin: m.ReconTimeMS / 60_000, ResponseMS: m.MeanResponseMS}, nil
	})
	if err != nil {
		return nil, t, err
	}
	for _, p := range pts {
		label := "equal"
		if p.LowPriority {
			label = "below user"
		}
		t.Rows = append(t.Rows, []string{label, f1(p.ReconMin), f1(p.ResponseMS)})
	}
	return pts, t, nil
}

// DataMapPoint is one sample of the data-mapping ablation.
type DataMapPoint struct {
	AccessUnits int
	Parallel    bool
	ReadFrac    float64
	ResponseMS  float64
}

// ExtDataMap measures the §4.2 data-mapping trade-off the paper leaves as
// future work: fault-free response time versus access size under the
// stripe-index mapping (large-write optimized) and the round-robin
// parallel mapping (maximal parallelism), for all-read and all-write
// workloads.
//
// Measured outcome: aligned full-stripe writes strongly favor the
// stripe-index mapping (no pre-reads). For reads of random 4 KB units the
// parallel mapping's wider spread does not lower latency — response is the
// maximum over the disks touched, and a max over more positioning delays
// grows — so its benefit is confined to transfer-dominated streaming, as
// the paper's cautious phrasing ("depends on the access size
// distribution") anticipates.
func ExtDataMap(o Options, g int, sizes []int) ([]DataMapPoint, Table, error) {
	o = o.withDefaults()
	if sizes == nil {
		sizes = []int{1, g - 1, 2 * (g - 1), 20}
	}
	t := Table{ID: "ext-datamap",
		Title:  fmt.Sprintf("Data mapping ablation (G=%d, fault-free, rate 160/size per s): mean response (ms)", g),
		Header: []string{"access (units)", "workload", "stripe-index", "parallel"}}
	type job struct {
		size     int
		readFrac float64
		parallel bool
	}
	var jobs []job
	for _, size := range sizes {
		for _, readFrac := range []float64{1, 0} {
			for _, parallel := range []bool{false, true} {
				jobs = append(jobs, job{size, readFrac, parallel})
			}
		}
	}
	pts, err := RunPoints(o.Workers, len(jobs), func(i int) (DataMapPoint, error) {
		j := jobs[i]
		// Hold the unit throughput constant across access sizes so no
		// configuration saturates (the parallel mapping pays up to 4
		// accesses per touched unit on unaligned writes).
		rate := 160.0 / float64(j.size)
		if rate > 50 {
			rate = 50
		}
		cfg := o.simConfig(g, rate, j.readFrac)
		cfg.AccessUnits = j.size
		cfg.ParallelDataMap = j.parallel
		m, err := core.RunFaultFree(cfg)
		if err != nil {
			return DataMapPoint{}, fmt.Errorf("ext-datamap size=%d parallel=%v: %w", j.size, j.parallel, err)
		}
		return DataMapPoint{AccessUnits: j.size, Parallel: j.parallel,
			ReadFrac: j.readFrac, ResponseMS: m.MeanResponseMS}, nil
	})
	if err != nil {
		return nil, t, err
	}
	// Two points (stripe-index, parallel) fold into each table row.
	for i := 0; i+1 < len(pts); i += 2 {
		p := pts[i]
		workload := "reads"
		if p.ReadFrac != 1 {
			workload = "writes"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(p.AccessUnits), workload,
			f1(p.ResponseMS), f1(pts[i+1].ResponseMS),
		})
	}
	return pts, t, nil
}

// MirrorRow is one line of the mirroring-vs-parity comparison.
type MirrorRow struct {
	Label      string
	G          int
	Overhead   float64
	ReconMin   float64
	ResponseMS float64
	FaultFree  float64
}

// ExtMirror compares declustered mirroring (G=2 over a complete design —
// Copeland & Keller's interleaved declustering, the paper's §3 ancestor)
// against declustered parity (G=5) and RAID 5, reproducing the paper's §1
// framing: mirroring buys recovery performance with capacity.
func ExtMirror(o Options) ([]MirrorRow, Table, error) {
	o = o.withDefaults()
	t := Table{ID: "ext-mirror",
		Title:  "Mirroring vs parity declustering vs RAID 5 (8-way recon, rate 210, 50% reads)",
		Header: []string{"organization", "G", "overhead", "fault-free (ms)", "recovering (ms)", "recon (min)"}}
	cases := []struct {
		label string
		g     int
	}{
		{"interleaved-declustered mirror", 2},
		{"declustered parity α=0.2", 5},
		{"RAID 5", 21},
	}
	rows, err := RunPoints(o.Workers, len(cases), func(i int) (MirrorRow, error) {
		c := cases[i]
		cfg := o.simConfig(c.g, 210, 0.5)
		cfg.ReconProcs = 8
		ff, err := core.RunFaultFree(cfg)
		if err != nil {
			return MirrorRow{}, fmt.Errorf("ext-mirror %s fault-free: %w", c.label, err)
		}
		rc, err := core.RunReconstruction(cfg)
		if err != nil {
			return MirrorRow{}, fmt.Errorf("ext-mirror %s recon: %w", c.label, err)
		}
		return MirrorRow{Label: c.label, G: c.g, Overhead: 1 / float64(c.g),
			ReconMin: rc.ReconTimeMS / 60_000, ResponseMS: rc.MeanResponseMS, FaultFree: ff.MeanResponseMS}, nil
	})
	if err != nil {
		return nil, t, err
	}
	for _, row := range rows {
		t.Rows = append(t.Rows, []string{
			row.Label, fmt.Sprint(row.G), fmt.Sprintf("%.0f%%", 100*row.Overhead),
			f1(row.FaultFree), f1(row.ResponseMS), f1(row.ReconMin),
		})
	}
	return rows, t, nil
}

// UnitSizePoint is one sample of the stripe-unit-size sweep.
type UnitSizePoint struct {
	UnitKB     int
	FaultFree  float64
	Recovering float64
	ReconMin   float64
}

// ExtUnitSize sweeps the stripe unit size (paper §9: "we intend to explore
// disk arrays with different stripe unit sizes"). Access size stays one
// unit, so larger units mean larger transfers per access; reconstruction
// moves the same bytes in fewer, bigger cycles.
func ExtUnitSize(o Options, g int, sectors []int) ([]UnitSizePoint, Table, error) {
	o = o.withDefaults()
	if sectors == nil {
		sectors = []int{2, 8, 16, 32}
	}
	t := Table{ID: "ext-unitsize",
		Title:  fmt.Sprintf("Stripe unit size sweep (G=%d, 8-way recon, rate 105, 50%% reads)", g),
		Header: []string{"unit (KB)", "fault-free (ms)", "recovering (ms)", "recon (min)"}}
	pts, err := RunPoints(o.Workers, len(sectors), func(i int) (UnitSizePoint, error) {
		sec := sectors[i]
		cfg := o.simConfig(g, 105, 0.5)
		cfg.UnitSectors = sec
		cfg.ReconProcs = 8
		ff, err := core.RunFaultFree(cfg)
		if err != nil {
			return UnitSizePoint{}, fmt.Errorf("ext-unitsize %d sectors fault-free: %w", sec, err)
		}
		rc, err := core.RunReconstruction(cfg)
		if err != nil {
			return UnitSizePoint{}, fmt.Errorf("ext-unitsize %d sectors recon: %w", sec, err)
		}
		return UnitSizePoint{UnitKB: sec / 2, FaultFree: ff.MeanResponseMS,
			Recovering: rc.MeanResponseMS, ReconMin: rc.ReconTimeMS / 60_000}, nil
	})
	if err != nil {
		return nil, t, err
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(p.UnitKB), f1(p.FaultFree), f1(p.Recovering), f1(p.ReconMin),
		})
	}
	return pts, t, nil
}

// SkewPoint is one sample of the workload-skew study.
type SkewPoint struct {
	Label      string
	FaultFree  float64
	Recovering float64
	ReconMin   float64
}

// ExtSkew compares the paper's uniform workload against hot-spot-skewed
// address distributions (paper §9: "different user workload
// characteristics"). Declustered layouts spread every disk's units over
// the whole logical space, so moderate skew perturbs the balance less
// than one might fear.
func ExtSkew(o Options, g int) ([]SkewPoint, Table, error) {
	o = o.withDefaults()
	t := Table{ID: "ext-skew",
		Title:  fmt.Sprintf("Workload skew (G=%d, 8-way recon, rate 210, 50%% reads)", g),
		Header: []string{"distribution", "fault-free (ms)", "recovering (ms)", "recon (min)"}}
	cases := []struct {
		label    string
		hot, acc float64
	}{
		{"uniform (paper)", 0, 0},
		{"80/20 hot spot", 0.2, 0.8},
		{"95/5 hot spot", 0.05, 0.95},
	}
	pts, err := RunPoints(o.Workers, len(cases), func(i int) (SkewPoint, error) {
		c := cases[i]
		cfg := o.simConfig(g, 210, 0.5)
		cfg.ReconProcs = 8
		cfg.HotDataFraction = c.hot
		cfg.HotAccessFraction = c.acc
		ff, err := core.RunFaultFree(cfg)
		if err != nil {
			return SkewPoint{}, fmt.Errorf("ext-skew %s fault-free: %w", c.label, err)
		}
		rc, err := core.RunReconstruction(cfg)
		if err != nil {
			return SkewPoint{}, fmt.Errorf("ext-skew %s recon: %w", c.label, err)
		}
		return SkewPoint{Label: c.label, FaultFree: ff.MeanResponseMS,
			Recovering: rc.MeanResponseMS, ReconMin: rc.ReconTimeMS / 60_000}, nil
	})
	if err != nil {
		return nil, t, err
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{p.Label, f1(p.FaultFree), f1(p.Recovering), f1(p.ReconMin)})
	}
	return pts, t, nil
}

// SparingRow is one line of the distributed-sparing comparison.
type SparingRow struct {
	Label      string
	ReconMin   float64
	ResponseMS float64
}

// ExtSparing compares replacement-disk reconstruction against distributed
// sparing (spare units spread over the survivors, the RAIDframe/dRAID
// lineage): same logical G, 8-way parallel reconstruction, rate 210.
// Sparing removes the replacement disk's write bottleneck, which dominates
// exactly when the array is busy.
func ExtSparing(o Options, g int) ([]SparingRow, Table, error) {
	o = o.withDefaults()
	t := Table{ID: "ext-sparing",
		Title:  fmt.Sprintf("Replacement vs distributed sparing (G=%d, 8-way, rate 210, 50%% reads)", g),
		Header: []string{"organization", "recon (min)", "response (ms)"}}
	modes := []bool{false, true}
	rows, err := RunPoints(o.Workers, len(modes), func(i int) (SparingRow, error) {
		sparing := modes[i]
		cfg := o.simConfig(g, 210, 0.5)
		cfg.ReconProcs = 8
		cfg.DistributedSparing = sparing
		m, err := core.RunReconstruction(cfg)
		if err != nil {
			return SparingRow{}, fmt.Errorf("ext-sparing sparing=%v: %w", sparing, err)
		}
		label := "replacement disk"
		if sparing {
			label = "distributed sparing"
		}
		return SparingRow{Label: label, ReconMin: m.ReconTimeMS / 60_000, ResponseMS: m.MeanResponseMS}, nil
	})
	if err != nil {
		return nil, t, err
	}
	for _, row := range rows {
		t.Rows = append(t.Rows, []string{row.Label, f1(row.ReconMin), f1(row.ResponseMS)})
	}
	return rows, t, nil
}

// PQRow is one line of the single- vs dual-parity code comparison.
type PQRow struct {
	Code       string // "P" or "P+Q"
	G          int
	Overhead   float64
	FaultFree  float64
	Recovering float64
	ReconMin   float64
	LostFrac   float64 // worst-case second-failure lost fraction of at-risk stripes
}

// ExtPQ measures the α × rebuild-traffic × code tradeoff of the
// RAID-6-style P+Q extension: for each stripe size the same workload runs
// under single parity and under P+Q (six-access small writes,
// two-survivor reconstruction), and an idle-array enumeration reports the
// worst-case second-failure loss — α of the at-risk stripes under P,
// zero under P+Q, which buys the second fault tolerance with one more
// parity unit of overhead per stripe and two extra accesses per small
// write.
func ExtPQ(o Options, gs []int) ([]PQRow, Table, error) {
	o = o.withDefaults()
	if gs == nil {
		gs = []int{5, 10}
	}
	t := Table{ID: "ext-pq",
		Title:  "Single parity vs P+Q dual parity (C=21, 8-way recon, rate 210, 50% reads)",
		Header: []string{"code", "G", "overhead", "fault-free (ms)", "recovering (ms)", "recon (min)", "2nd-failure loss"}}
	geom := drive.IBM0661()
	if o.Scale > 0 {
		geom = geom.Scaled(o.Scale)
	}
	type job struct {
		g, parities int
	}
	var jobs []job
	for _, g := range gs {
		for _, parities := range []int{1, 2} {
			jobs = append(jobs, job{g, parities})
		}
	}
	rows, err := RunPoints(o.Workers, len(jobs), func(i int) (PQRow, error) {
		j := jobs[i]
		cfg := o.simConfig(j.g, 210, 0.5)
		cfg.ReconProcs = 8
		newMap := core.NewMapping
		code := "P"
		if j.parities == 2 {
			cfg.Parities = 2
			newMap = core.NewPQMapping
			code = "P+Q"
		}
		ff, err := core.RunFaultFree(cfg)
		if err != nil {
			return PQRow{}, fmt.Errorf("ext-pq %s G=%d fault-free: %w", code, j.g, err)
		}
		rc, err := core.RunReconstruction(cfg)
		if err != nil {
			return PQRow{}, fmt.Errorf("ext-pq %s G=%d recon: %w", code, j.g, err)
		}
		// The loss side of the tradeoff costs no simulation: enumerate the
		// worst-case second failure (first failure fully unrecovered).
		m, err := newMap(21, j.g, 0)
		if err != nil {
			return PQRow{}, fmt.Errorf("ext-pq %s G=%d mapping: %w", code, j.g, err)
		}
		_, lost, err := WorstSecondFailure(m, geom)
		if err != nil {
			return PQRow{}, fmt.Errorf("ext-pq %s G=%d second failure: %w", code, j.g, err)
		}
		return PQRow{Code: code, G: j.g, Overhead: float64(j.parities) / float64(j.g),
			FaultFree: ff.MeanResponseMS, Recovering: rc.MeanResponseMS,
			ReconMin: rc.ReconTimeMS / 60_000, LostFrac: lost}, nil
	})
	if err != nil {
		return nil, t, err
	}
	for _, row := range rows {
		t.Rows = append(t.Rows, []string{
			row.Code, fmt.Sprint(row.G), fmt.Sprintf("%.0f%%", 100*row.Overhead),
			f1(row.FaultFree), f1(row.Recovering), f1(row.ReconMin), f2(row.LostFrac),
		})
	}
	return rows, t, nil
}

// ReliabilityRow is one line of the MTTDL table.
type ReliabilityRow struct {
	G          int
	Alpha      float64
	ReconMin   float64
	MTTDLYears float64
}

// ExtReliability turns measured reconstruction times into mean time to
// data loss: the §2 trade-off between parity overhead (1/G) and
// reliability, using 150,000-hour disks.
func ExtReliability(o Options, procs int) ([]ReliabilityRow, Table, error) {
	o = o.withDefaults()
	t := Table{ID: "ext-mttdl",
		Title:  fmt.Sprintf("Reliability vs declustering (%d-way recon, rate 210, 50%% reads, MTTF 150k h)", procs),
		Header: []string{"alpha", "G", "overhead", "recon (min)", "MTTDL (years)"}}
	gs := o.gs(true)
	rows, err := RunPoints(o.Workers, len(gs), func(i int) (ReliabilityRow, error) {
		g := gs[i]
		cfg := o.simConfig(g, 210, 0.5)
		cfg.ReconProcs = procs
		cfg.Algorithm = 0
		m, err := core.RunReconstruction(cfg)
		if err != nil {
			return ReliabilityRow{}, fmt.Errorf("ext-mttdl G=%d: %w", g, err)
		}
		rel := analytic.Reliability{C: 21, MTTFHours: 150_000, MTTRHours: m.ReconTimeMS / 3_600_000}
		mttdl, err := rel.MTTDLHours()
		if err != nil {
			return ReliabilityRow{}, err
		}
		return ReliabilityRow{G: g, Alpha: alphaOf(g), ReconMin: m.ReconTimeMS / 60_000,
			MTTDLYears: mttdl / (24 * 365.25)}, nil
	})
	if err != nil {
		return nil, t, err
	}
	for _, row := range rows {
		t.Rows = append(t.Rows, []string{
			f2(row.Alpha), fmt.Sprint(row.G), fmt.Sprintf("%.0f%%", 100/float64(row.G)),
			f1(row.ReconMin), fmt.Sprintf("%.0f", row.MTTDLYears),
		})
	}
	return rows, t, nil
}

// ExtLatent runs the Monte Carlo lifecycle on the paper's array (C = 21,
// 150,000-hour disks, 2-hour repair, 4000 trials per row): without latent
// sector errors, then with 10⁻⁵ LSEs per disk-hour under no, weekly and
// daily scrubbing. A latent error a rebuild meets loses data, and a
// scrubber bounds how long one lies latent.
func ExtLatent(o Options) (Table, error) {
	t := Table{ID: "ext-lse",
		Title:  "Latent sector errors, scrubbing and MTTDL (Monte Carlo, C=21, MTTF 150k h, MTTR 2 h, 4000 trials)",
		Header: []string{"scrubbing", "MTTDL (years)", "std err (years)"}}
	rows := []struct {
		name       string
		lse, scrub float64
	}{
		{"no latent errors", 0, 0},
		{"LSEs, no scrubbing", 1e-5, 0},
		{"LSEs, weekly scrub", 1e-5, 168},
		{"LSEs, daily scrub", 1e-5, 24},
	}
	res, err := RunPoints(o.Workers, len(rows), func(i int) (reliability.Result, error) {
		return reliability.SimulateMTTDL(reliability.Params{C: 21, MTTFHours: 150_000, MTTRHours: 2, Seed: o.Seed,
			LSERatePerDiskHour: rows[i].lse, ScrubIntervalHours: rows[i].scrub}, 4000)
	})
	if err != nil {
		return t, fmt.Errorf("ext-lse: %w", err)
	}
	const year = 24 * 365.25
	for i, r := range res {
		t.Rows = append(t.Rows, []string{rows[i].name,
			fmt.Sprintf("%.4g", r.MTTDLHours/year), fmt.Sprintf("%.2g", r.StdErrHours/year)})
	}
	return t, nil
}
