// Command experiments regenerates the paper's evaluation: every table and
// figure of §6–§8 plus the extension studies, printing formatted tables
// suitable for EXPERIMENTS.md.
//
// Usage:
//
//	experiments                 # everything, full-scale disks (minutes)
//	experiments -scale 10       # 1/10-scale disks (fast preview)
//	experiments -run fig8-1     # one experiment
//	experiments -j 8            # fan sweep points over 8 workers
//
// The experiment ids are those of catalog; -run with an id it lacks fails
// and lists them.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"declust/internal/experiments"
)

// experiment is one entry of the catalog: the ids that select it, comma-
// separated (the first names it; an id shared by several entries, like
// fig8, selects them all), and what it runs.
type experiment struct {
	ids string
	run func(o experiments.Options, spansDir string) ([]experiments.Table, error)
}

// tables adapts an experiment function's table and error results.
func tables(ts ...any) ([]experiments.Table, error) {
	var out []experiments.Table
	for _, v := range ts {
		switch v := v.(type) {
		case experiments.Table:
			out = append(out, v)
		case error:
			return nil, v
		}
	}
	return out, nil
}

// catalog lists every experiment, in the order a run prints them.
var catalog = []experiment{
	{ids: "fig4-3", run: func(experiments.Options, string) ([]experiments.Table, error) {
		return tables(experiments.Fig43(41))
	}},
	{ids: "fig6-1", run: func(o experiments.Options, _ string) ([]experiments.Table, error) {
		return tables(experiments.Fig6(o, 1.0))
	}},
	{ids: "fig6-2", run: func(o experiments.Options, _ string) ([]experiments.Table, error) {
		return tables(experiments.Fig6(o, 0.0))
	}},
	{ids: "fig8,fig8-1,fig8-2", run: func(o experiments.Options, _ string) ([]experiments.Table, error) {
		return tables(experiments.Fig8(o, 1))
	}},
	{ids: "fig8,fig8-3,fig8-4", run: func(o experiments.Options, _ string) ([]experiments.Table, error) {
		return tables(experiments.Fig8(o, 8))
	}},
	{ids: "table8-1", run: func(o experiments.Options, _ string) ([]experiments.Table, error) {
		return tables(experiments.Table81(o))
	}},
	{ids: "fig8-6", run: func(o experiments.Options, _ string) ([]experiments.Table, error) {
		return tables(experiments.Fig86(o))
	}},
	{ids: "ext-throttle", run: func(o experiments.Options, _ string) ([]experiments.Table, error) {
		return tables(experiments.ExtThrottle(o, 5, nil))
	}},
	{ids: "ext-priority", run: func(o experiments.Options, _ string) ([]experiments.Table, error) {
		return tables(experiments.ExtPriority(o, 5))
	}},
	{ids: "ext-mttdl", run: func(o experiments.Options, _ string) ([]experiments.Table, error) {
		return tables(experiments.ExtReliability(o, 8))
	}},
	{ids: "ext-lse", run: func(o experiments.Options, _ string) ([]experiments.Table, error) {
		return tables(experiments.ExtLatent(o))
	}},
	{ids: "ext-datamap", run: func(o experiments.Options, _ string) ([]experiments.Table, error) {
		return tables(experiments.ExtDataMap(o, 5, nil))
	}},
	{ids: "ext-mirror", run: func(o experiments.Options, _ string) ([]experiments.Table, error) {
		return tables(experiments.ExtMirror(o))
	}},
	{ids: "ext-sparing", run: func(o experiments.Options, _ string) ([]experiments.Table, error) {
		return tables(experiments.ExtSparing(o, 5))
	}},
	{ids: "ext-unitsize", run: func(o experiments.Options, _ string) ([]experiments.Table, error) {
		return tables(experiments.ExtUnitSize(o, 5, nil))
	}},
	{ids: "ext-skew", run: func(o experiments.Options, _ string) ([]experiments.Table, error) {
		return tables(experiments.ExtSkew(o, 5))
	}},
	{ids: "ext-sched", run: func(o experiments.Options, _ string) ([]experiments.Table, error) {
		return tables(experiments.ExtSched(o, nil))
	}},
	{ids: "ext-readahead", run: func(o experiments.Options, _ string) ([]experiments.Table, error) {
		return tables(experiments.ExtReadahead(o, 5))
	}},
	{ids: "ext-phases", run: func(o experiments.Options, spansDir string) ([]experiments.Table, error) {
		return tables(experiments.ExtPhases(o, nil, spansDir))
	}},
	{ids: "ext-pq", run: func(o experiments.Options, _ string) ([]experiments.Table, error) {
		return tables(experiments.ExtPQ(o, nil))
	}},
	{ids: "double-failure", run: func(o experiments.Options, _ string) ([]experiments.Table, error) {
		return tables(experiments.DoubleFailureLoss(o))
	}},
}

// selectExperiments returns the catalog entries a -run value selects, in
// catalog order: every entry for "all", else each entry one of the
// comma-separated ids names. An id no entry has is an error that lists
// the valid ones.
func selectExperiments(run string) ([]experiment, error) {
	valid := []string{"all"}
	for _, e := range catalog {
		for _, id := range strings.Split(e.ids, ",") {
			if !slices.Contains(valid, id) {
				valid = append(valid, id)
			}
		}
	}
	want := strings.Split(run, ",")
	for i, id := range want {
		want[i] = strings.TrimSpace(id)
		if !slices.Contains(valid, want[i]) {
			return nil, fmt.Errorf("unknown experiment %q; valid ids: %s", want[i], strings.Join(valid, ", "))
		}
	}
	var out []experiment
	for _, e := range catalog {
		if slices.Contains(want, "all") || slices.ContainsFunc(strings.Split(e.ids, ","), func(id string) bool {
			return slices.Contains(want, id)
		}) {
			out = append(out, e)
		}
	}
	return out, nil
}

func main() {
	scale := flag.Int("scale", 1, "disk capacity divisor (1 = full IBM 0661)")
	run := flag.String("run", "all", "comma-separated experiment ids, or 'all'")
	seed := flag.Int64("seed", 1, "workload seed")
	spansDir := flag.String("spans-dir", "",
		"with ext-phases, write each point's raw spans (JSONL) into this directory")
	workers := flag.Int("j", 1,
		"parallel sweep workers (0 = GOMAXPROCS); output is identical for any value")
	flag.Parse()

	o := experiments.Options{Seed: *seed, Workers: *workers}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if *scale > 1 {
		o.Scale = *scale
	}
	selected, err := selectExperiments(*run)
	check(err)

	start := time.Now()
	for _, e := range selected {
		ts, err := e.run(o, *spansDir)
		check(err)
		for _, t := range ts {
			fmt.Println(t)
			fmt.Printf("[%s done at %v]\n\n", t.ID, time.Since(start).Round(time.Second))
		}
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
