// Command raidsim runs one disk array simulation: fault-free, degraded, or
// full reconstruction, printing the metrics the paper reports.
//
// Usage:
//
//	raidsim -mode recon -c 21 -g 5 -rate 210 -reads 0.5 -procs 8
//	raidsim -mode faultfree -g 21 -rate 378 -reads 1
//	raidsim -mode degraded -g 10 -rate 105 -reads 0 -scale 10
//
// Sweeps (cross-product of comma-separated lists, one row per point;
// -j N fans points over N workers with byte-identical output):
//
//	raidsim -mode recon -sweep-g 3,5,11,21 -j 4
//	raidsim -mode faultfree -sweep-g 5,21 -sweep-rate 105,210,315 -j 0
//
// Fault injection:
//
//	raidsim -mode recon -lse-rate 1000 -transient-rate 0.01 -scrub-interval 50 -fault-seed 7
//	raidsim -second-failure -g 5        # enumerate double-failure damage, no simulation
//
// Dual parity (RAID-6-style P+Q; survives any two failures):
//
//	raidsim -mode recon -parities 2 -g 5
//	raidsim -second-failure -parities 2 -g 5    # the same enumeration, zero loss
//
// Observability:
//
//	raidsim -mode recon -metrics out.txt -series out.csv -progress
//	raidsim -mode recon -spans run.spans.jsonl -chrome-trace run.trace.json
//	raidsim -mode recon -listen :6060     # live /metrics, /progress, /debug/pprof
//	raidsim -mode recon -cpuprofile cpu.pprof -memprofile mem.pprof
//
// -spans output feeds cmd/tracestat; -chrome-trace output loads in Perfetto
// (ui.perfetto.dev) or chrome://tracing. Every output file is created before
// the simulation starts, so a bad path fails at once.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"declust/internal/experiments"
	"declust/internal/trace"

	"declust"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "raidsim:", err)
		os.Exit(1)
	}
}

// run executes one raidsim invocation, printing results to stdout and
// progress/usage to stderr. Factored from main so tests can drive the
// whole command and compare outputs byte for byte.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("raidsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "recon", "faultfree | degraded | recon")
	c := fs.Int("c", 21, "number of disks")
	g := fs.Int("g", 5, "parity stripe size (g = c selects RAID 5)")
	parities := fs.Int("parities", 1, "parity units per stripe: 1 (code P) or 2 (P+Q dual parity)")
	rate := fs.Float64("rate", 210, "user accesses per second")
	reads := fs.Float64("reads", 0.5, "fraction of user accesses that are reads")
	alg := fs.String("alg", "baseline", "baseline | user-writes | redirect | piggyback")
	procs := fs.Int("procs", 1, "parallel reconstruction processes")
	scale := fs.Int("scale", 1, "disk capacity divisor (1 = full IBM 0661)")
	seed := fs.Int64("seed", 1, "workload seed")
	warm := fs.Float64("warmup", 10, "warmup seconds before measurement")
	measure := fs.Float64("measure", 120, "measurement seconds (faultfree/degraded)")
	throttle := fs.Float64("throttle", 0, "max reconstruction cycles/s per process (0 = off)")
	sched := fs.String("sched", "cvscan", "disk queue scheduler: cvscan | fifo | sstf | cscan")
	readahead := fs.Int("readahead", 0, "disk track read-ahead buffer in tracks (0 = off)")
	prio := fs.String("prio", "equal", "reconstruction scheduling class: equal | demote (below user accesses)")
	prioAge := fs.Float64("prio-age", 0, "promote starved low-class disk requests after this many simulated ms (0 = strict classes)")
	seqFrac := fs.Float64("seq", 0, "fraction of user accesses that are sequential continuations (0 = pure random)")
	size := fs.Int("size", 1, "access size in 4 KB stripe units")
	sparing := fs.Bool("sparing", false, "distributed sparing: reconstruct into per-stripe spare units")
	datamap := fs.String("datamap", "stripe-index", "data mapping: stripe-index | parallel")
	faultSeed := fs.Int64("fault-seed", 1, "fault injector seed (independent of -seed)")
	lseRate := fs.Float64("lse-rate", 0, "latent sector errors per GB per simulated hour (0 = off)")
	transientRate := fs.Float64("transient-rate", 0, "per-request timeout probability in [0, 0.9] (0 = off)")
	timeoutMS := fs.Float64("timeout-ms", 0, "stall per transient timeout in simulated ms (0 = 50)")
	scrubInterval := fs.Float64("scrub-interval", 0, "simulated ms between scrubbed stripes (0 = no scrubbing)")
	secondFailure := fs.Bool("second-failure", false, "enumerate double-failure damage for this layout and exit (no simulation)")
	sweepG := fs.String("sweep-g", "", "comma-separated parity stripe sizes: run one point per (g, rate) pair")
	sweepRate := fs.String("sweep-rate", "", "comma-separated access rates for the sweep cross-product")
	workers := fs.Int("j", 1, "parallel sweep workers (0 = GOMAXPROCS); output is identical for any value")
	traceOut := fs.String("trace", "", "write the measured user accesses to this trace file")
	replayIn := fs.String("replay", "", "replay a trace file instead of the synthetic workload")
	metricsOut := fs.String("metrics", "", "write Prometheus-style metrics to this file")
	seriesOut := fs.String("series", "", "write per-disk time-series CSV to this file")
	sampleMS := fs.Float64("sample", 1000, "time-series cadence in simulated ms (with -series)")
	spansOut := fs.String("spans", "", "write request-lifecycle spans (JSONL, for tracestat) to this file")
	chromeOut := fs.String("chrome-trace", "", "write a Chrome trace-event JSON (Perfetto-viewable) to this file")
	listen := fs.String("listen", "", "serve live /metrics, /progress and /debug/pprof on this address (e.g. :6060)")
	progress := fs.Bool("progress", false, "print reconstruction progress lines to stderr")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *parities != 1 && *parities != 2 {
		return fmt.Errorf("-parities %d: must be 1 (P) or 2 (P+Q)", *parities)
	}

	if *secondFailure {
		return reportSecondFailure(stdout, *c, *g, *scale, *parities)
	}

	algorithm := map[string]declust.ReconAlgorithm{
		"baseline":    declust.Baseline,
		"user-writes": declust.UserWrites,
		"redirect":    declust.Redirect,
		"piggyback":   declust.RedirectPiggyback,
	}[*alg]

	policy, err := declust.ParseSchedPolicy(*sched)
	if err != nil {
		return err
	}
	if *prio != "equal" && *prio != "demote" {
		return fmt.Errorf("-prio %q: want equal or demote", *prio)
	}

	cfg := declust.SimConfig{
		C: *c, G: *g,
		Scale:        *scale,
		RatePerSec:   *rate,
		ReadFraction: *reads,
		AccessUnits:  *size,
		Seed:         *seed,
		Algorithm:    algorithm,
		ReconProcs:   *procs,
		WarmupMS:     *warm * 1000,
		MeasureMS:    *measure * 1000,

		ParallelDataMap:           *datamap == "parallel",
		DistributedSparing:        *sparing,
		ReconThrottleCyclesPerSec: *throttle,
		ReconLowPriority:          *prio == "demote",

		SchedPolicy:        policy,
		ReadAheadTracks:    *readahead,
		PrioAgeMS:          *prioAge,
		SequentialFraction: *seqFrac,

		FaultSeed:        *faultSeed,
		LSERatePerGBHour: *lseRate,
		TransientRate:    *transientRate,
		FaultTimeoutMS:   *timeoutMS,
		ScrubIntervalMS:  *scrubInterval,
	}
	if *parities == 2 {
		// Left at the zero value for -parities 1 so default invocations
		// stay byte-identical to earlier builds (0 and 1 both mean P).
		cfg.Parities = 2
	}
	faultsOn := *lseRate > 0 || *transientRate > 0 || *scrubInterval > 0
	// Printed only when some scheduling knob left its default, so default
	// invocations produce byte-identical output to earlier builds.
	schedOn := policy != declust.SchedCVSCAN || *readahead > 0 || *prioAge > 0 || *seqFrac > 0

	// -listen works in every mode; the server outlives the run so a final
	// scrape still sees the completed state.
	var live *declust.LiveServer
	if *listen != "" {
		live = declust.NewLiveServer()
		addr, err := live.Start(*listen)
		if err != nil {
			return err
		}
		defer live.Close()
		fmt.Fprintf(stderr, "telemetry: serving /metrics, /progress, /debug/pprof on http://%s\n", addr)
	}

	if *sweepG != "" || *sweepRate != "" {
		if *traceOut != "" || *replayIn != "" || *metricsOut != "" || *seriesOut != "" ||
			*spansOut != "" || *chromeOut != "" ||
			*cpuprofile != "" || *memprofile != "" || *progress {
			return fmt.Errorf("sweep mode does not combine with per-run outputs (-trace, -replay, -metrics, -series, -spans, -chrome-trace, -progress, profiles)")
		}
		gs, err := parseIntList(*sweepG, *g)
		if err != nil {
			return fmt.Errorf("-sweep-g: %w", err)
		}
		rates, err := parseFloatList(*sweepRate, *rate)
		if err != nil {
			return fmt.Errorf("-sweep-rate: %w", err)
		}
		w := *workers
		if w == 0 {
			w = runtime.GOMAXPROCS(0)
		}
		if schedOn {
			fmt.Fprintf(stdout, "sched:  %s, read-ahead %d track(s), prio-age %.0f ms, sequential %.0f%%\n",
				policy, *readahead, *prioAge, *seqFrac*100)
		}
		return runSweep(stdout, cfg, *mode, gs, rates, w, live)
	}

	var reg *declust.MetricsRegistry
	if *metricsOut != "" || *seriesOut != "" || live != nil {
		reg = declust.NewMetricsRegistry()
		cfg.Metrics = reg
		if *seriesOut != "" {
			cfg.SampleEveryMS = *sampleMS
		}
	}
	var spans *declust.SpanTracer
	if *spansOut != "" || *chromeOut != "" {
		spans = declust.NewSpanTracer()
		cfg.Spans = spans
	}
	// -listen and -progress are the two consumers of the run's one
	// periodic status report.
	var watchers []func(declust.LiveProgress)
	if live != nil {
		// The simulation thread publishes snapshots; HTTP handlers only ever
		// read copies, so the run stays single-threaded and deterministic.
		watchers = append(watchers, func(p declust.LiveProgress) {
			p.Mode = *mode
			live.PublishMetrics(reg)
			live.PublishProgress(p)
		})
	}
	if *progress {
		wallStart := time.Now()
		lastPrint := time.Time{}
		watchers = append(watchers, func(p declust.LiveProgress) {
			if p.ReconTotal == 0 {
				return // no sweep yet (warm-up), or a mode that has none
			}
			if p.ReconDone < p.ReconTotal && time.Since(lastPrint) < 200*time.Millisecond {
				return
			}
			lastPrint = time.Now()
			rate := float64(p.EngineEvents) / time.Since(wallStart).Seconds()
			fmt.Fprintf(stderr, "recon %5.1f%% (%d/%d units)  sim %.1fs  ETA %.1fs  [%.2fM events/s]\n",
				100*float64(p.ReconDone)/float64(p.ReconTotal), p.ReconDone, p.ReconTotal,
				p.SimMS/1000, p.ReconETAMS/1000, rate/1e6)
		})
	}
	if len(watchers) > 0 {
		cfg.OnLive = func(p declust.LiveProgress) {
			for _, w := range watchers {
				w(p)
			}
		}
	}

	var captured trace.Log
	if *traceOut != "" {
		cfg.CaptureTrace = &captured
	}
	if *replayIn != "" {
		f, err := os.Open(*replayIn)
		if err != nil {
			return err
		}
		log, err := trace.Read(f)
		f.Close()
		if err != nil {
			return err
		}
		rep, err := trace.NewReplayer(log)
		if err != nil {
			return err
		}
		cfg.Source = rep
		fmt.Fprintf(stdout, "replaying %d recorded accesses from %s\n", log.Len(), *replayIn)
	}

	// Every output is created before the run, so a mistyped path fails now
	// rather than after a full-scale simulation (and after -replay is read,
	// so -trace may name the same file). The deferred close releases
	// whatever an early return leaves open.
	files, err := createAll(*cpuprofile, *metricsOut, *seriesOut, *spansOut, *chromeOut, *traceOut, *memprofile)
	if err != nil {
		return err
	}
	defer closeAll(files)
	cpuF, metricsF, seriesF, spansF, chromeF, traceF, memF := files[0], files[1], files[2], files[3], files[4], files[5], files[6]
	if cpuF != nil {
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	newMap := declust.NewMapping
	if *parities == 2 {
		newMap = declust.NewPQMapping
	}
	m, err := newMap(*c, *g, 0)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "array:    ", m.Describe())
	fmt.Fprintf(stdout, "workload:  %.0f accesses/s, %.0f%% reads, seed %d\n", *rate, *reads*100, *seed)
	if schedOn {
		fmt.Fprintf(stdout, "sched:     %s, read-ahead %d track(s), prio-age %.0f ms, sequential %.0f%%\n",
			policy, *readahead, *prioAge, *seqFrac*100)
	}
	if faultsOn {
		fmt.Fprintf(stdout, "faults:    lse %.3g/GB/h, transient %.3g, scrub every %.0f ms, seed %d\n",
			*lseRate, *transientRate, *scrubInterval, *faultSeed)
	}

	wallStart := time.Now()
	if *mode == "recon" {
		fmt.Fprintf(stdout, "recovery:  %s algorithm, %d process(es)\n", algorithm, *procs)
	}
	res, err := declust.RunMode(*mode, cfg)
	if err != nil {
		return err
	}
	wall := time.Since(wallStart)

	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "user response:  mean %.1f ms, σ %.1f ms, P90 %.1f ms (%d requests)\n",
		res.MeanResponseMS, res.StdResponseMS, res.P90ResponseMS, res.Requests)
	if *mode == "recon" {
		fmt.Fprintf(stdout, "reconstruction: %.1f minutes (%.0f ms), %d sweep cycles\n",
			res.ReconTimeMS/60_000, res.ReconTimeMS, res.ReconCycles)
		fmt.Fprintf(stdout, "recon cycle:    read %.1f ms (σ %.1f) + write %.1f ms (σ %.1f)\n",
			res.ReadPhaseMeanMS, res.ReadPhaseStdMS, res.WritePhaseMeanMS, res.WritePhaseStdMS)
	}
	if *readahead > 0 {
		fmt.Fprintf(stdout, "disk cache:     %d read-ahead hits (%d sectors served without mechanical work)\n",
			res.CacheHits, res.CacheHitSectors)
	}
	if faultsOn {
		fmt.Fprintf(stdout, "faults:         %d LSEs injected, %d media errors, %d retries\n",
			res.LSEArrivals, res.MediaErrors, res.TransientRetries)
		fmt.Fprintf(stdout, "repairs:        %d from parity, %d units lost (%d loss events), scrub found %d in %d passes\n",
			res.LatentRepairs, res.LostUnits, res.DataLossEvents, res.ScrubErrorsFound, res.ScrubPasses)
	}
	fmt.Fprintf(stdout, "engine:         %d events, sim %.1fs in wall %.2fs (%.2fM events/s)\n",
		res.EngineEvents, res.SimEndMS/1000, wall.Seconds(),
		float64(res.EngineEvents)/wall.Seconds()/1e6)

	if metricsF != nil {
		if err := writeFile(metricsF, reg.WritePrometheus); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "metrics:        written to %s\n", *metricsOut)
	}
	if seriesF != nil {
		if err := writeFile(seriesF, reg.WriteCSV); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "series:         written to %s\n", *seriesOut)
	}
	if spansF != nil {
		meta := &declust.SpanMeta{C: *c, G: *g, Alpha: m.Alpha(), Mode: *mode, Seed: *seed}
		if err := writeFile(spansF, func(w io.Writer) error {
			return spans.WriteJSONL(w, meta)
		}); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans:          %d spans written to %s\n", spans.Len(), *spansOut)
	}
	if chromeF != nil {
		if err := writeFile(chromeF, spans.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "chrome trace:   written to %s (load in Perfetto or chrome://tracing)\n", *chromeOut)
	}

	if traceF != nil {
		if err := writeFile(traceF, func(w io.Writer) error {
			_, err := captured.WriteTo(w)
			return err
		}); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace:          %d accesses written to %s\n", captured.Len(), *traceOut)
	}

	if memF != nil {
		runtime.GC()
		if err := writeFile(memF, pprof.WriteHeapProfile); err != nil {
			return err
		}
	}
	if cpuF != nil {
		pprof.StopCPUProfile() // the deferred stop is then a no-op
		return cpuF.Close()
	}
	return nil
}

// runSweep simulates the cross-product of parity stripe sizes and access
// rates, one independent simulation per point, and prints one row per point
// in sweep order. Each point builds its own engine, array and RNG streams
// from the shared base config, so fanning the points over workers changes
// wall-clock time only: every row is formatted by the point that produced it
// and printed in index order, making the output byte-identical for any -j.
// A non-nil live server tracks sweep completion at /progress.
func runSweep(stdout io.Writer, base declust.SimConfig, mode string, gs []int, rates []float64, workers int, live *declust.LiveServer) error {
	type point struct {
		g    int
		rate float64
	}
	var pts []point
	for _, g := range gs {
		for _, r := range rates {
			pts = append(pts, point{g, r})
		}
	}
	if live != nil {
		live.SweepStart(len(pts))
	}
	fmt.Fprintf(stdout, "sweep:  %d point(s), mode %s, seed %d\n", len(pts), mode, base.Seed)
	if mode == "recon" {
		fmt.Fprintln(stdout, "    g     rate   mean ms    P90 ms   recon min      events")
	} else {
		fmt.Fprintln(stdout, "    g     rate   mean ms    P90 ms      events")
	}
	rows, err := experiments.RunPoints(workers, len(pts), func(i int) (string, error) {
		cfg := base
		cfg.G = pts[i].g
		cfg.RatePerSec = pts[i].rate
		res, err := declust.RunMode(mode, cfg)
		if err != nil {
			return "", fmt.Errorf("sweep g=%d rate=%g: %w", pts[i].g, pts[i].rate, err)
		}
		if live != nil {
			live.SweepPointDone()
		}
		if mode == "recon" {
			return fmt.Sprintf("%5d %8.0f %9.1f %9.1f %11.1f %11d",
				pts[i].g, pts[i].rate, res.MeanResponseMS, res.P90ResponseMS,
				res.ReconTimeMS/60_000, res.EngineEvents), nil
		}
		return fmt.Sprintf("%5d %8.0f %9.1f %9.1f %11d",
			pts[i].g, pts[i].rate, res.MeanResponseMS, res.P90ResponseMS, res.EngineEvents), nil
	})
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintln(stdout, r)
	}
	return nil
}

// parseIntList splits a comma-separated int list, or returns [def] when the
// flag was left empty (so a single-axis sweep only names the axis it varies).
func parseIntList(s string, def int) ([]int, error) {
	if s == "" {
		return []int{def}, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// parseFloatList is parseIntList for float64 axes.
func parseFloatList(s string, def float64) ([]float64, error) {
	if s == "" {
		return []float64{def}, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// reportSecondFailure prints the damage enumeration for a second
// whole-disk failure at the worst moment (first failure fully unrecovered):
// the paper's partial-loss advantage, computed without simulating a single
// I/O. Under P+Q (parities = 2) every doubly-dead stripe still decodes,
// so the same enumeration reports zero loss.
func reportSecondFailure(stdout io.Writer, c, g, scale, parities int) error {
	newMap := declust.NewMapping
	if parities == 2 {
		newMap = declust.NewPQMapping
	}
	m, err := newMap(c, g, 0)
	if err != nil {
		return err
	}
	geom := declust.IBM0661()
	if scale > 1 {
		geom = geom.Scaled(scale)
	}
	df, frac, err := experiments.WorstSecondFailure(m, geom)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "array:    ", m.Describe())
	fmt.Fprintf(stdout, "second failure (disk 1 dies with disk 0 unrecovered):\n")
	fmt.Fprintf(stdout, "  stripes at risk: %d\n", df.StripesAtRisk)
	fmt.Fprintf(stdout, "  stripes lost:    %d (fraction %.3f, α = %.3f)\n", df.StripesLost, frac, m.Alpha())
	fmt.Fprintf(stdout, "  units lost:      %d\n", df.UnitsLost)
	switch {
	case parities == 2:
		fmt.Fprintf(stdout, "  P+Q: all %d doubly-dead stripes decode through Q — nothing is lost.\n",
			df.StripesSurvived)
	case g == c:
		fmt.Fprintln(stdout, "  RAID 5: every at-risk stripe has units on both disks — total loss.")
	default:
		fmt.Fprintln(stdout, "  declustering loses only the stripes with units on both failed disks.")
	}
	return nil
}

// createAll creates one file per path, in order; entry i is nil where
// paths[i] is empty. On an error it closes the files it already made.
func createAll(paths ...string) ([]*os.File, error) {
	files := make([]*os.File, len(paths))
	for i, p := range paths {
		if p == "" {
			continue
		}
		f, err := os.Create(p)
		if err != nil {
			closeAll(files)
			return nil, err
		}
		files[i] = f
	}
	return files, nil
}

// closeAll closes every non-nil file; closing one writeFile already closed
// is a harmless error, ignored.
func closeAll(files []*os.File) {
	for _, f := range files {
		if f != nil {
			f.Close()
		}
	}
}

// writeFile writes one export to f via the given emitter and closes f,
// returning the first write or close error.
func writeFile(f *os.File, emit func(w io.Writer) error) error {
	err := emit(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
