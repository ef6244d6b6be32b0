package layout

import "fmt"

// Raid5 is the left-symmetric RAID 5 layout of the paper's Figure 2-1
// [Lee91]: parity stripes span all C disks (G = C), data unit j of stripe s
// lives on disk (j−s) mod C at offset s, and parity rotates one disk left
// per stripe, landing on disk (C−1−s) mod C. Sequential user data strides
// across all disks (maximal parallelism) and whole-stripe writes need no
// pre-reads (large-write optimization).
type Raid5 struct {
	c int
}

// NewRaid5 builds a left-symmetric RAID 5 layout over c disks.
func NewRaid5(c int) (*Raid5, error) {
	if c < 2 {
		return nil, fmt.Errorf("layout: RAID 5 needs at least 2 disks, have %d", c)
	}
	return &Raid5{c: c}, nil
}

func (r *Raid5) Disks() int { return r.c }
func (r *Raid5) G() int     { return r.c }

func (r *Raid5) Alpha() float64 { return 1 }

func (r *Raid5) Unit(stripe int64, j int) Loc {
	if j < 0 || j >= r.c {
		panic(fmt.Sprintf("layout: position %d out of range [0,%d)", j, r.c))
	}
	c := int64(r.c)
	disk := (int64(j) - stripe) % c
	if disk < 0 {
		disk += c
	}
	return Loc{Disk: int(disk), Offset: stripe}
}

func (r *Raid5) Parities() int { return 1 }

func (r *Raid5) ParityPos(stripe int64, _ int) int { return r.c - 1 }

func (r *Raid5) Locate(loc Loc) (int64, int) {
	if loc.Disk < 0 || loc.Disk >= r.c || loc.Offset < 0 {
		panic(fmt.Sprintf("layout: invalid location %v", loc))
	}
	stripe := loc.Offset
	j := (int64(loc.Disk) + stripe) % int64(r.c)
	return stripe, int(j)
}

func (r *Raid5) StripesPerPeriod() int64      { return int64(r.c) }
func (r *Raid5) UnitsPerDiskPerPeriod() int64 { return int64(r.c) }
