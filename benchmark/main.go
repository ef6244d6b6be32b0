// Command benchmark is the repo's continuous-operation benchmark: it
// drives the real storage engine (internal/store) through fill, healthy
// load, and repeated fail → degraded → rebuild-under-load cycles with
// closed-loop clients, verifies every byte it reads, and prints every
// metric by name with its unit. README.md defines the workloads and the
// metrics; BENCHMARK.json at the repo root is the contract a driver runs
// it under.
//
//	bash benchmark/run.sh --workload mem-p --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh --workload all
//	bash benchmark/run.sh --check-repeat 10
//
// --trace 0 measures the end-to-end metrics with no wrapper installed
// (except slowdisk-p's device time). --trace 1 measures the per-layer
// metrics instead: a shorter single-client pass with recording wrappers
// around every backend and the intent log, and the layer probes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one measured value in the form the driver reads.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	seed    int64
	seconds float64
	trace   bool
	scratch string // where file workloads keep their arrays
	out     string // where traces are written
}

func main() {
	var (
		o      options
		name   = flag.String("workload", "all", "workload name, or all")
		trace  = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced pass and layer probes")
		repeat = flag.Int("check-repeat", 0, "run every workload as two sets of this many runs and compare them against the bounds")
		bounds = flag.String("bounds", "BENCHMARK.json", "with -check-repeat: the file that holds the metrics' bounds")
	)
	flag.Int64Var(&o.seed, "seed", 1, "seed of the op sequences and the victim rotation")
	flag.Float64Var(&o.seconds, "seconds", 12, "measuring time of one run")
	flag.StringVar(&o.scratch, "scratch", ".bench_build", "directory for file-backed arrays")
	flag.StringVar(&o.out, "out", "benchmark/out", "directory for trace files")
	flag.Parse()
	o.trace = *trace != 0

	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := findWorkload(*name); ok {
		ws = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if *repeat > 0 {
		os.Exit(checkRepeat(ws, *repeat, *bounds, o))
	}
	ok := true
	for _, w := range ws {
		res, err := run(w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			ok = false
		}
		if res == nil {
			continue
		}
		ok = ok && res.Correct
		line, _ := json.Marshal(res) // a map of plain values cannot fail to marshal
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}

// run measures one workload and prints its report; the result it returns
// is nil only when the array could not be set up at all.
func run(w workload, o options) (*result, error) {
	printHeader(w, o)
	if o.trace {
		return runTraced(w, o)
	}
	return runUntraced(w, o)
}

// A run sets the array up at least minSetups times, and for an eighth of
// its measuring time in all when set-ups are quick; setup_s is their quiet
// tail (a set-up is mostly page faults on fresh memory, which the host's
// slow stretches hit hardest), and the last array is the one measured.
const (
	minSetups = 3
	maxSetups = 60
)

func runUntraced(w workload, o options) (*result, error) {
	var (
		r      *rig
		setups []float64
		total  time.Duration
	)
	minTotal := time.Duration(o.seconds / 8 * float64(time.Second))
	for len(setups) < minSetups || (total < minTotal && len(setups) < maxSetups) {
		if r != nil {
			if err := r.release(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if r, err = build(w, o.scratch, false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		total += time.Since(t0)
	}

	lc := runLifecycle(r, o.seed, planFor(w, o.seconds))
	read, bad, err := r.verifyAll()
	peakRSS := peakRSSMB() // before the analysis below allocates
	if cerr := r.close(); err == nil {
		err = cerr
	}
	if lc.firstErr != nil {
		err = lc.firstErr
	}
	res := &result{
		Attempted: lc.attempted + read,
		Failed:    lc.failed + bad,
		Metrics:   map[string]metric{"setup_s": {quiet(setups, false), "s"}, "peak_rss_mb": {peakRSS, "MB"}},
	}
	res.Correct = res.Failed == 0 && err == nil
	lc.endToEnd(res.Metrics)
	fmt.Printf("%d ops attempted, %d failed\n", res.Attempted, res.Failed)
	printMetrics(res.Metrics)
	return res, err
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1e3
		}
	}
	return 0
}

// printHeader records what a number was measured on, so figures from
// different machines or commits are never compared silently.
func printHeader(w workload, o options) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	env, _ := json.Marshal(map[string]any{
		"workload": w.name, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"c": w.c, "g": w.g, "units_per_disk": w.unitsPerDisk, "unit_size": unitSize,
		"clients": w.numClients(), "rebuild_workers": w.numRebuildWorkers(),
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "cpu": cpuModel(), "commit": commit,
	})
	fmt.Printf("run %s\n", env)
}

func cpuModel() string {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(info), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-44s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}
