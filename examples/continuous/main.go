// Continuous: the paper's title scenario, end to end. The array serves an
// OLTP workload for a long (accelerated) horizon while disks fail at
// random; each failure is replaced and reconstructed online. The example
// compares repair policies (spare installation lag, reconstruction
// parallelism) and reports availability and how response time looks in
// each operating state. Disk aging is accelerated ~100,000x so a
// 20-minute horizon sees many failures; real MTTFs give availability
// with many more nines.
//
//	go run ./examples/continuous
package main

import (
	"fmt"
	"log"

	"declust"
)

func main() {
	base := declust.SimConfig{
		C: 21, G: 5,
		Scale:        20, // accelerated demo scale
		RatePerSec:   210,
		ReadFraction: 0.5,
		Algorithm:    declust.Redirect,
		Seed:         5,
		// Media faults, accelerated like the aging: latent sector errors
		// arrive, transient timeouts retry, and a background scrubber
		// repairs latent damage before a disk failure can compound it.
		FaultSeed:        5,
		LSERatePerGBHour: 2_000,
		TransientRate:    0.01,
		ScrubIntervalMS:  50,
	}

	fmt.Println("Continuous operation, 21 disks, G=5, 210 accesses/s, 50% reads")
	fmt.Println("accelerated aging: disk MTTF = 0.1 h; horizon = 20 simulated minutes")
	fmt.Println("media faults on: latent sector errors + transient timeouts + scrubbing")
	fmt.Println()
	fmt.Printf("%-26s %-8s %-14s %-30s %-8s %-8s %-8s\n",
		"repair policy", "repairs", "availability", "response ff/deg/recon (ms)", "2nd", "lost", "loss ev")

	policies := []struct {
		label string
		procs int
		delay float64
	}{
		{"hot spare, 8-way recon", 8, 0},
		{"hot spare, 1-way recon", 1, 0},
		{"30 s swap, 8-way recon", 8, 30_000},
	}
	for _, p := range policies {
		cfg := base
		cfg.ReconProcs = p.procs
		rep, err := declust.RunLifecycle(declust.LifecycleConfig{
			Sim:                cfg,
			MTTFHours:          0.1,
			ReplacementDelayMS: p.delay,
			DurationMS:         20 * 60_000,
			FailureSeed:        77,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-26s %-8d %-14s %-30s %-8d %-8d %-8d\n",
			p.label, rep.Failures,
			fmt.Sprintf("%.2f%%", 100*rep.Availability),
			fmt.Sprintf("%.0f / %.0f / %.0f", rep.FaultFreeResponseMS, rep.DegradedResponseMS, rep.ReconResponseMS),
			rep.DoubleFailures+rep.ReplacementFailures, rep.StripesLost, rep.DataLossEvents)
	}
	fmt.Println("\n'2nd' counts failure arrivals while already degraded (second disks and")
	fmt.Println("dying replacements); 'lost' counts stripes that lost two units, and")
	fmt.Println("'loss ev' every recorded data-loss event (double failures plus latent")
	fmt.Println("sector errors struck while unprotected) — the exposure that fast")
	fmt.Println("reconstruction and scrubbing exist to shrink (paper §2).")
}
