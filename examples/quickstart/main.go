// Quickstart: build a declustered parity mapping, inspect it, and run a
// short reconstruction simulation — the library's core loop in ~60 lines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"declust"
)

func main() {
	// The paper's array: 21 disks. Ask for parity stripes of 5 units,
	// i.e. 20% parity overhead and declustering ratio α = 0.2.
	m, err := declust.NewMapping(21, 5, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("mapping: ", m.Describe())

	// The layout provably meets the paper's core criteria.
	crit, err := m.Criteria()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("balanced: every disk pair shares %d parity stripes per table; "+
		"%d parity units per disk per full table\n\n", crit.PairCount, crit.ParityPerDisk)

	// Where does logical data live? The first few units:
	for n := int64(0); n < 4; n++ {
		loc := declust.DataLoc(m.Layout, n)
		fmt.Printf("  data unit %d -> disk %d, unit offset %d\n", n, loc.Disk, loc.Offset)
	}
	fmt.Println()

	// Reconstruct a failed disk under a 210 access/s OLTP-ish load,
	// eight reconstruction processes, redirecting reads as they become
	// available. (1/10-scale disks keep this example quick; drop the
	// Scale fields for the full 311 MB drives.)
	res, err := declust.RunReconstruction(declust.SimConfig{
		C: 21, G: 5,
		Scale:        10,
		RatePerSec:   210,
		ReadFraction: 0.5,
		Algorithm:    declust.Redirect,
		ReconProcs:   8,
		Seed:         1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reconstruction finished in %.1f minutes (1/10-scale disk)\n", res.ReconTimeMS/60_000)
	fmt.Printf("user response during recovery: mean %.1f ms, P90 %.1f ms over %d requests\n",
		res.MeanResponseMS, res.P90ResponseMS, res.Requests)
}
