package layout

import (
	"fmt"
	"strings"
)

// Format renders a layout as the paper's figures do: one row per unit
// offset, one column per disk, cells like D12.2 (stripe 12's data unit 2),
// P12 (stripe 12's parity unit) or, for a dual-parity layout, Q12 (its
// second parity unit). rows <= 0 renders one full parity-rotation cycle.
func Format(l Layout, rows int64) string {
	if rows <= 0 {
		rows = l.UnitsPerDiskPerPeriod() * int64(l.G())
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-7s", "Offset")
	for d := 0; d < l.Disks(); d++ {
		fmt.Fprintf(&b, "%-9s", fmt.Sprintf("DISK%d", d))
	}
	b.WriteByte('\n')
	for off := int64(0); off < rows; off++ {
		fmt.Fprintf(&b, "%-7d", off)
		for d := 0; d < l.Disks(); d++ {
			s, j := l.Locate(Loc{Disk: d, Offset: off})
			cell := fmt.Sprintf("P%d", s)
			switch {
			case !IsParityPos(l, s, j):
				cell = fmt.Sprintf("D%d.%d", s, DataOrdinal(l, s, j))
			case j != l.ParityPos(s, 0):
				cell = fmt.Sprintf("Q%d", s)
			}
			fmt.Fprintf(&b, "%-9s", cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
