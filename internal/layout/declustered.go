package layout

import (
	"fmt"

	"declust/internal/blockdesign"
)

// Declustered is the paper's block-design-based parity declustering layout
// (§4.2). Objects of the design are disks; tuples are parity stripes.
// Stripe i draws its G units from the disks of tuple (i mod b), each placed
// at the lowest free offset of its disk. The layout of b stripes (one
// "block design table") is repeated with the parity assignment rotating
// through the tuple positions, so that after G repetitions (one "full block
// design table") every disk has held parity exactly r times.
type Declustered struct {
	design *blockdesign.Design
	params blockdesign.Params

	// offInTable[t][j] is the offset, within one table's worth of a
	// disk's units (r units), of position j of tuple t.
	offInTable [][]int32
	// unitAt[d][i] identifies the owner (tuple, position) of disk d's
	// i-th unit within a table.
	unitAt [][]tupPos
}

type tupPos struct {
	tuple int32
	pos   int16
}

// NewDeclustered builds the layout for a verified block design.
func NewDeclustered(d *blockdesign.Design) (*Declustered, error) {
	p, err := d.Params()
	if err != nil {
		return nil, fmt.Errorf("layout: %w", err)
	}
	l := &Declustered{design: d, params: p}
	l.offInTable = make([][]int32, p.B)
	l.unitAt = make([][]tupPos, p.V)
	for disk := range l.unitAt {
		l.unitAt[disk] = make([]tupPos, 0, p.R)
	}
	for t, tup := range d.Tuples {
		l.offInTable[t] = make([]int32, p.K)
		for j, disk := range tup {
			l.offInTable[t][j] = int32(len(l.unitAt[disk]))
			l.unitAt[disk] = append(l.unitAt[disk], tupPos{tuple: int32(t), pos: int16(j)})
		}
	}
	return l, nil
}

// Design returns the underlying block design.
func (l *Declustered) Design() *blockdesign.Design { return l.design }

// Params returns the design's BIBD parameters.
func (l *Declustered) Params() blockdesign.Params { return l.params }

func (l *Declustered) Disks() int { return l.params.V }
func (l *Declustered) G() int     { return l.params.K }

func (l *Declustered) Alpha() float64 { return l.params.Alpha() }

func (l *Declustered) StripesPerPeriod() int64      { return int64(l.params.B) }
func (l *Declustered) UnitsPerDiskPerPeriod() int64 { return int64(l.params.R) }

// copyOf returns which parity-rotation copy (0..G-1) stripe s falls in.
func (l *Declustered) copyOf(stripe int64) int64 {
	return (stripe / int64(l.params.B)) % int64(l.params.K)
}

func (l *Declustered) Parities() int { return 1 }

// ParityPos rotates parity through the tuple positions across the copies of
// the table: copy m places parity at position G−1−m, so the first table
// matches the paper's Figure 4-2 (parity in the tuple's last slot).
func (l *Declustered) ParityPos(stripe int64, _ int) int {
	if stripe < 0 {
		panic(fmt.Sprintf("layout: negative stripe %d", stripe))
	}
	return l.params.K - 1 - int(l.copyOf(stripe))
}

func (l *Declustered) Unit(stripe int64, j int) Loc {
	if stripe < 0 {
		panic(fmt.Sprintf("layout: negative stripe %d", stripe))
	}
	if j < 0 || j >= l.params.K {
		panic(fmt.Sprintf("layout: position %d out of range [0,%d)", j, l.params.K))
	}
	b := int64(l.params.B)
	r := int64(l.params.R)
	tuple := stripe % b
	copySeq := stripe / b // global copy number; parity rotation is copySeq mod G
	disk := l.design.Tuples[tuple][j]
	return Loc{
		Disk:   disk,
		Offset: copySeq*r + int64(l.offInTable[tuple][j]),
	}
}

func (l *Declustered) Locate(loc Loc) (int64, int) {
	if loc.Disk < 0 || loc.Disk >= l.params.V || loc.Offset < 0 {
		panic(fmt.Sprintf("layout: invalid location %v", loc))
	}
	r := int64(l.params.R)
	copySeq := loc.Offset / r
	i := loc.Offset % r
	tp := l.unitAt[loc.Disk][i]
	stripe := copySeq*int64(l.params.B) + int64(tp.tuple)
	return stripe, int(tp.pos)
}
