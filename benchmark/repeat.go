package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// contract is the part of BENCHMARK.json the repeat check needs.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// traceInvariants are the counts of the traced pass that a seed fixes: one
// client, fixed op counts, no timing in them. Two runs of one commit and one
// seed must agree on them to the last digit.
var traceInvariants = []string{
	"trace.healthy.backend_reads_per_read",
	"trace.healthy.backend_reads_per_write",
	"trace.healthy.backend_writes_per_write",
	"trace.degraded.backend_reads_per_read",
	"trace.degraded.backend_reads_per_write",
	"trace.degraded.backend_writes_per_write",
	"trace.write_amp",
	"trace.read_amp",
	"trace.rebuild.reads_per_unit",
	"trace.rebuild.survivor_read_frac",
	"trace.rebuild.survivor_read_imbalance",
}

// checkRepeat runs every workload as two independent sets of n runs, each
// run a fresh process with its own seed, the way a driver would, and
// applies the driver's two rules to every end-to-end metric: the spread of
// a set (interquartile range over median) stays within the metric's bound
// (setup_s excepted), and the second set's median is not worse than the
// first's by more than the bound. It also runs the traced pass once per
// set, on one seed, and requires the count invariants to repeat exactly.
// It returns the process's exit code.
func checkRepeat(ws []workload, n int, boundsFile string, o options) int {
	raw, err := os.ReadFile(boundsFile)
	var c contract
	if err == nil {
		err = json.Unmarshal(raw, &c)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: reading bounds:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	child := func(w string, seed int, trace int) (*result, error) {
		cmd := exec.Command(self, "-workload", w, "-seed", strconv.Itoa(seed),
			"-seconds", strconv.Itoa(c.RunSeconds), "-trace", strconv.Itoa(trace),
			"-scratch", o.scratch, "-out", o.out)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", w, seed, err)
		}
		return lastResult(out)
	}

	breaches := 0
	for _, w := range ws {
		var sets [2]map[string][]float64
		var inv [2]map[string]metric
		for set := range sets {
			sets[set] = map[string][]float64{}
			for i := 0; i < n; i++ {
				res, err := child(w.name, 1+set*n+i, 0)
				if err != nil || !res.Correct {
					fmt.Fprintf(os.Stderr, "benchmark: %s: run failed: %v\n", w.name, err)
					return 1
				}
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
			res, err := child(w.name, 1, 1)
			if err != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "benchmark: %s: traced run failed: %v\n", w.name, err)
				return 1
			}
			inv[set] = res.Metrics
		}
		fmt.Printf("%s\n  %-20s %12s %12s %8s %8s %8s %7s\n", w.name,
			"metric", "median A", "median B", "B worse", "spread A", "spread B", "bound")
		for _, e := range c.EndToEnd {
			a, b := sets[0][e.Name], sets[1][e.Name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if e.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(a), spread(b)
			verdict := ""
			if worse > e.Bound || (e.Name != "setup_s" && max(sa, sb) > e.Bound) {
				verdict = "  BREACH"
				breaches++
			} else if e.Name != "setup_s" && max(sa, sb) > e.Bound/3 {
				verdict = "  (spread above a third of the bound)"
			}
			fmt.Printf("  %-20s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %6.0f%%%s\n",
				e.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*e.Bound, verdict)
		}
		for _, name := range traceInvariants {
			a, b := inv[0][name].Value, inv[1][name].Value
			verdict := ""
			if a != b {
				verdict = "  BREACH: a count that must repeat exactly"
				breaches++
			}
			fmt.Printf("  %-44s %12.6f %12.6f%s\n", name, a, b, verdict)
		}
	}
	if breaches > 0 {
		fmt.Printf("check-repeat: %d breaches\n", breaches)
		return 1
	}
	fmt.Println("check-repeat: OK")
	return 0
}

// lastResult parses the last line of a run's standard output.
func lastResult(out []byte) (*result, error) {
	out = bytes.TrimSpace(out)
	var res result
	if err := json.Unmarshal(out[bytes.LastIndexByte(out, '\n')+1:], &res); err != nil {
		return nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	return &res, nil
}

// spread is the distance between the first and third quartile as a share
// of the median, quartiles as Python's statistics.quantiles(v, n=4) gives
// them (the exclusive method), so the figure matches a driver's.
func spread(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (quartile(3) - quartile(1)) / median(vals)
}
