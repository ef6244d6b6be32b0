package layout

import "fmt"

// Criteria reports how a layout fares against the paper's six goodness
// criteria (§4.1). The first four are decided by the parity mapping alone;
// the last two also involve the data mapping, which here is the paper's
// "by parity stripe index" mapping (see DataLoc).
type Criteria struct {
	SingleFailureCorrecting   bool
	DistributedReconstruction bool
	DistributedParity         bool
	// TableStripes is the span checked: one full parity-rotation cycle.
	TableStripes int64
	// PairCount is λ per table (reconstruction load each surviving disk
	// takes per table when any one disk fails), when constant.
	PairCount int
	// ParityPerDisk is parity units per disk per full table, when constant.
	ParityPerDisk          int
	LargeWriteOptimization bool
	MaximalParallelism     bool
}

// Check evaluates a layout under the paper's stripe-index data mapping;
// see CheckWithMapper.
func Check(l Layout) (Criteria, error) {
	return CheckWithMapper(StripeIndexMapper{L: l})
}

// CheckWithMapper evaluates the first four criteria over one full
// parity-rotation cycle (G allocation periods) and the data-mapping
// criteria (5 and 6) under the given data mapping.
func CheckWithMapper(m DataMapper) (Criteria, error) {
	l := m.Layout()
	c := Criteria{}
	full := l.StripesPerPeriod() * int64(l.G())
	if fc, ok := l.(FullCycler); ok {
		full = fc.FullCycleStripes()
	}
	c.TableStripes = full
	disks := l.Disks()
	g := l.G()

	// Criterion 1: no two units of one parity stripe on the same disk.
	c.SingleFailureCorrecting = true
	for s := int64(0); s < full; s++ {
		seen := make(map[int]bool, g)
		for j := 0; j < g; j++ {
			d := l.Unit(s, j).Disk
			if seen[d] {
				c.SingleFailureCorrecting = false
			}
			seen[d] = true
		}
	}

	// Criterion 2: constant pair count λ over the full table.
	pair := make([][]int, disks)
	for i := range pair {
		pair[i] = make([]int, disks)
	}
	for s := int64(0); s < full; s++ {
		for a := 0; a < g; a++ {
			da := l.Unit(s, a).Disk
			for b := a + 1; b < g; b++ {
				db := l.Unit(s, b).Disk
				pair[da][db]++
				pair[db][da]++
			}
		}
	}
	c.DistributedReconstruction = true
	c.PairCount = pair[0][1]
	for i := 0; i < disks; i++ {
		for j := 0; j < disks; j++ {
			if i != j && pair[i][j] != c.PairCount {
				c.DistributedReconstruction = false
			}
		}
	}

	// Criterion 3: constant parity units per disk over the full table
	// (counting every parity unit of the stripe — P and Q both, for
	// dual-parity layouts).
	parity := make([]int, disks)
	for s := int64(0); s < full; s++ {
		for k := 0; k < l.Parities(); k++ {
			parity[ParityLocOf(l, s, k).Disk]++
		}
	}
	c.DistributedParity = true
	c.ParityPerDisk = parity[0]
	for _, p := range parity {
		if p != c.ParityPerDisk {
			c.DistributedParity = false
		}
	}

	// Criterion 4, efficient mapping, is structural: these layouts use
	// O(b·k) tables and O(1) arithmetic, so it is a matter of table size
	// policy enforced at design selection time (blockdesign.Select).

	// Criterion 5: the data units of each parity stripe occupy one
	// contiguous, aligned run of logical addresses (length G minus the
	// stripe's parity units), so a write of that run needs no pre-reads
	// and touches exactly one stripe.
	dp := DataPerStripe(l)
	c.LargeWriteOptimization = true
	for s := int64(0); s < full; s++ {
		lo, hi := int64(-1), int64(-1)
		for j := 0; j < g; j++ {
			if IsParityPos(l, s, j) {
				continue
			}
			n := m.Index(s, j)
			if lo < 0 || n < lo {
				lo = n
			}
			if n > hi {
				hi = n
			}
		}
		if hi-lo != int64(dp-1) || lo%int64(dp) != 0 {
			c.LargeWriteOptimization = false
			break
		}
	}

	// Criterion 6: any C consecutive data units (aligned anywhere) land
	// on C distinct disks.
	c.MaximalParallelism = true
	limit := full * int64(dp)
	for start := int64(0); start+int64(disks) <= limit && start < full; start++ {
		seen := make(map[int]bool, disks)
		ok := true
		for i := int64(0); i < int64(disks); i++ {
			d := m.Loc(start + i).Disk
			if seen[d] {
				ok = false
				break
			}
			seen[d] = true
		}
		if !ok {
			c.MaximalParallelism = false
			break
		}
	}
	return c, nil
}

// MustMeetCore returns an error unless the layout meets the paper's first
// three criteria (the ones the block-design construction guarantees).
func MustMeetCore(l Layout) error {
	c, err := Check(l)
	if err != nil {
		return err
	}
	switch {
	case !c.SingleFailureCorrecting:
		return fmt.Errorf("layout: two units of one parity stripe share a disk")
	case !c.DistributedReconstruction:
		return fmt.Errorf("layout: reconstruction load not balanced (pair counts differ)")
	case !c.DistributedParity:
		return fmt.Errorf("layout: parity not evenly distributed")
	}
	return nil
}
