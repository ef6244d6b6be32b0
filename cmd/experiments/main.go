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
// Experiments: fig4-3, fig6-1, fig6-2, fig8 (8-1..8-4), table8-1, fig8-6,
// ext-throttle, ext-priority, ext-mttdl, ext-lse, ext-datamap, ext-mirror,
// ext-sparing, ext-unitsize, ext-skew, ext-sched, ext-readahead,
// ext-phases, ext-pq, double-failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"declust/internal/experiments"
)

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
		o.ScaleNum, o.ScaleDen = 1, *scale
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*run, ",") {
		want[strings.TrimSpace(id)] = true
	}
	all := want["all"]
	selected := func(id string) bool { return all || want[id] }

	start := time.Now()
	emit := func(tables ...experiments.Table) {
		for _, t := range tables {
			fmt.Println(t)
			fmt.Printf("[%s done at %v]\n\n", t.ID, time.Since(start).Round(time.Second))
		}
	}

	if selected("fig4-3") {
		emit(experiments.Fig43(41))
	}
	if selected("fig6-1") {
		_, t, err := experiments.Fig6(o, 1.0)
		check(err)
		emit(t)
	}
	if selected("fig6-2") {
		_, t, err := experiments.Fig6(o, 0.0)
		check(err)
		emit(t)
	}
	if selected("fig8") || selected("fig8-1") || selected("fig8-2") {
		_, tt, tr, err := experiments.Fig8(o, 1)
		check(err)
		emit(tt, tr)
	}
	if selected("fig8") || selected("fig8-3") || selected("fig8-4") {
		_, tt, tr, err := experiments.Fig8(o, 8)
		check(err)
		emit(tt, tr)
	}
	if selected("table8-1") {
		_, t, err := experiments.Table81(o)
		check(err)
		emit(t)
	}
	if selected("fig8-6") {
		_, t, err := experiments.Fig86(o)
		check(err)
		emit(t)
	}
	if selected("ext-throttle") {
		_, t, err := experiments.ExtThrottle(o, 5, nil)
		check(err)
		emit(t)
	}
	if selected("ext-priority") {
		_, t, err := experiments.ExtPriority(o, 5)
		check(err)
		emit(t)
	}
	if selected("ext-mttdl") {
		_, t, err := experiments.ExtReliability(o, 8)
		check(err)
		emit(t)
	}
	if selected("ext-lse") {
		t, err := experiments.ExtLatent(o)
		check(err)
		emit(t)
	}
	if selected("ext-datamap") {
		_, t, err := experiments.ExtDataMap(o, 5, nil)
		check(err)
		emit(t)
	}
	if selected("ext-mirror") {
		_, t, err := experiments.ExtMirror(o)
		check(err)
		emit(t)
	}
	if selected("ext-sparing") {
		_, t, err := experiments.ExtSparing(o, 5)
		check(err)
		emit(t)
	}
	if selected("ext-unitsize") {
		_, t, err := experiments.ExtUnitSize(o, 5, nil)
		check(err)
		emit(t)
	}
	if selected("ext-skew") {
		_, t, err := experiments.ExtSkew(o, 5)
		check(err)
		emit(t)
	}
	if selected("ext-sched") {
		_, t, err := experiments.ExtSched(o, nil)
		check(err)
		emit(t)
	}
	if selected("ext-readahead") {
		_, t, err := experiments.ExtReadahead(o, 5)
		check(err)
		emit(t)
	}
	if selected("ext-phases") {
		_, t, err := experiments.ExtPhases(o, nil, *spansDir)
		check(err)
		emit(t)
	}
	if selected("ext-pq") {
		_, t, err := experiments.ExtPQ(o, nil)
		check(err)
		emit(t)
	}
	if selected("double-failure") {
		_, t, err := experiments.DoubleFailureLoss(o)
		check(err)
		emit(t)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
