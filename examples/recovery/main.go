// Recovery: compare the paper's four reconstruction algorithms head to
// head, single-threaded and 8-way parallel, on one array configuration —
// the §8.2 study in miniature. It reproduces the paper's surprising
// result: with parallel reconstruction at a low declustering ratio, the
// *simplest* algorithms reconstruct fastest, because keeping user work off
// the replacement disk preserves its cheap sequential writes.
//
//	go run ./examples/recovery
package main

import (
	"fmt"
	"log"

	"declust"
)

func main() {
	algorithms := []declust.ReconAlgorithm{
		declust.Baseline, declust.UserWrites, declust.Redirect, declust.RedirectPiggyback,
	}

	fmt.Println("21 disks, G=5 (α=0.2), 210 accesses/s, 50% reads, 1/10-scale disks")
	for _, procs := range []int{1, 8} {
		fmt.Printf("\n%d reconstruction process(es):\n", procs)
		fmt.Printf("  %-20s %-12s %-14s %-24s\n", "algorithm", "recon (min)", "response (ms)", "cycle read+write (ms)")
		for _, alg := range algorithms {
			res, err := declust.RunReconstruction(declust.SimConfig{
				C: 21, G: 5,
				Scale:        10,
				RatePerSec:   210,
				ReadFraction: 0.5,
				Algorithm:    alg,
				ReconProcs:   procs,
				Seed:         11,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-20s %-12.1f %-14.1f %.0f + %.0f = %.0f\n",
				alg, res.ReconTimeMS/60_000, res.MeanResponseMS,
				res.ReadPhaseMeanMS, res.WritePhaseMeanMS,
				res.ReadPhaseMeanMS+res.WritePhaseMeanMS)
		}
	}
	fmt.Println("\nNote how redirect/piggyback lower the read phase but inflate the write phase:")
	fmt.Println("random user work on the replacement disk destroys the sweep's sequential writes (§8.2).")
}
