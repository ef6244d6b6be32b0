// Command layout prints parity and data layouts in the style of the
// paper's Figures 2-1, 2-3 and 4-2, evaluates the §4.1 layout-goodness
// criteria, and shows the block design a layout is built from.
//
// Usage:
//
//	layout -c 5 -g 4              # declustered, like Figure 2-3 / 4-2
//	layout -c 5 -g 5              # RAID 5 left-symmetric, like Figure 2-1
//	layout -c 21 -g 5 -rows 10    # first 10 offsets of the paper's array
//	layout -c 21 -g 5 -tuples     # the block design's tuples instead
//	layout -paper                 # the six appendix designs, verified
//	layout -scatter -maxv 41      # Figure 4-3: known designs coverage
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"declust"
	"declust/internal/blockdesign"
	"declust/internal/experiments"
	"declust/internal/layout"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "layout:", err)
		os.Exit(1)
	}
}

// run executes one layout invocation, printing to out. Factored from main
// so tests can drive the whole command.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("layout", flag.ContinueOnError)
	c := fs.Int("c", 5, "number of disks (C)")
	g := fs.Int("g", 4, "stripe units per parity stripe (G); g = c selects RAID 5")
	rows := fs.Int("rows", 0, "unit offsets to print (0 = one full parity rotation)")
	check := fs.Bool("check", true, "evaluate the layout criteria")
	tuples := fs.Bool("tuples", false, "print the block design's tuples instead of the layout")
	paper := fs.Bool("paper", false, "list the paper's six appendix designs")
	scatter := fs.Bool("scatter", false, "list known designs (Figure 4-3)")
	maxv := fs.Int("maxv", 41, "largest v for -scatter")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *scatter {
		fmt.Fprint(out, experiments.Fig43(*maxv))
		return nil
	}
	if *paper {
		for _, pg := range blockdesign.PaperG {
			d, err := declust.PaperDesign(pg)
			if err != nil {
				return err
			}
			p, err := d.Params()
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "G=%-3d %-34s %s\n", pg, d.Source, p)
		}
		return nil
	}

	m, err := declust.NewMapping(*c, *g, 0)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, m.Describe())
	fmt.Fprintln(out)

	if *tuples {
		if m.Design == nil {
			return fmt.Errorf("-tuples: RAID 5 (g = c) is not built from a block design")
		}
		for i, tup := range m.Design.Tuples {
			fmt.Fprintf(out, "tuple %3d: %v\n", i, tup)
		}
		return nil
	}

	fmt.Fprint(out, layout.Format(m.Layout, int64(*rows)))

	if *check {
		crit, err := m.Criteria()
		if err != nil {
			return err
		}
		fmt.Fprintln(out)
		fmt.Fprintf(out, "criteria over %d stripes (one full block design table):\n", crit.TableStripes)
		fmt.Fprintf(out, "  1. single failure correcting:   %v\n", crit.SingleFailureCorrecting)
		fmt.Fprintf(out, "  2. distributed reconstruction:  %v (every disk pair shares %d stripes)\n",
			crit.DistributedReconstruction, crit.PairCount)
		fmt.Fprintf(out, "  3. distributed parity:          %v (%d parity units per disk)\n",
			crit.DistributedParity, crit.ParityPerDisk)
		fmt.Fprintf(out, "  5. large-write optimization:    %v\n", crit.LargeWriteOptimization)
		fmt.Fprintf(out, "  6. maximal parallelism:         %v\n", crit.MaximalParallelism)
	}
	return nil
}
