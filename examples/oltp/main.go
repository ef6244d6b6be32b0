// OLTP: the workload the paper's introduction motivates. An on-line
// transaction processing system must keep 90% of transactions under two
// seconds even while a disk is down (the Anon85/TPC-A rule of thumb, §3).
// A transaction here costs up to three 4 KB disk accesses, so its storage
// budget is roughly 667 ms per access at P90.
//
// This example sweeps the declustering ratio and reports whether the array
// still meets the OLTP budget in the fault-free state, in degraded mode,
// and during an 8-way parallel reconstruction.
//
//	go run ./examples/oltp
package main

import (
	"fmt"
	"log"

	"declust"
)

const (
	diskAccessBudgetMS = 2000.0 / 3 // two-second rule over <=3 accesses
	rate               = 210        // user accesses per second
)

func main() {
	fmt.Printf("OLTP check: 21 disks, %d accesses/s, 50%% reads; P90 per-access budget %.0f ms\n\n",
		rate, diskAccessBudgetMS)
	fmt.Printf("%-7s %-9s %-22s %-22s %-26s\n", "alpha", "overhead",
		"fault-free P90 (ms)", "degraded P90 (ms)", "recovering P90 (ms)")

	for _, g := range []int{4, 5, 6, 10, 21} {
		cfg := declust.SimConfig{
			C: 21, G: g,
			Scale:        10, // quick demo scale
			RatePerSec:   rate,
			ReadFraction: 0.5,
			Algorithm:    declust.Redirect,
			ReconProcs:   8,
			Seed:         7,
			MeasureMS:    60_000,
		}
		ff, err := declust.RunFaultFree(cfg)
		if err != nil {
			log.Fatal(err)
		}
		dg, err := declust.RunDegraded(cfg)
		if err != nil {
			log.Fatal(err)
		}
		rc, err := declust.RunReconstruction(cfg)
		if err != nil {
			log.Fatal(err)
		}
		alpha := float64(g-1) / 20
		fmt.Printf("%-7.2f %-9s %-22s %-22s %-26s\n",
			alpha, fmt.Sprintf("%.0f%%", 100.0/float64(g)),
			verdict(ff.P90ResponseMS), verdict(dg.P90ResponseMS),
			fmt.Sprintf("%s (recovery %.0f min)", verdict(rc.P90ResponseMS), rc.ReconTimeMS/60_000))
	}
	fmt.Println("\nLower α holds response down through failure and recovery; the cost is parity overhead 1/G.")
}

func verdict(p90 float64) string {
	mark := "ok"
	if p90 > diskAccessBudgetMS {
		mark = "OVER"
	}
	return fmt.Sprintf("%.0f %s", p90, mark)
}
