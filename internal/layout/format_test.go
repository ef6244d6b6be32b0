package layout

import (
	"fmt"
	"strings"
	"testing"

	"declust/internal/blockdesign"
)

// TestFormatRaid5MatchesFigure2_1 checks the rendered table cell-for-cell
// against the paper's Figure 2-1.
func TestFormatRaid5MatchesFigure2_1(t *testing.T) {
	r, err := NewRaid5(5)
	if err != nil {
		t.Fatal(err)
	}
	got := Format(r, 5)
	want := [][]string{
		{"D0.0", "D0.1", "D0.2", "D0.3", "P0"},
		{"D1.1", "D1.2", "D1.3", "P1", "D1.0"},
		{"D2.2", "D2.3", "P2", "D2.0", "D2.1"},
		{"D3.3", "P3", "D3.0", "D3.1", "D3.2"},
		{"P4", "D4.0", "D4.1", "D4.2", "D4.3"},
	}
	checkCells(t, got, want)
}

// TestFormatDeclusteredMatchesFigure2_3 checks the declustered C=5, G=4
// layout against the paper's Figure 2-3.
func TestFormatDeclusteredMatchesFigure2_3(t *testing.T) {
	d, err := blockdesign.Complete(5, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewDeclustered(d)
	if err != nil {
		t.Fatal(err)
	}
	got := Format(l, 4)
	want := [][]string{
		{"D0.0", "D0.1", "D0.2", "P0", "P1"},
		{"D1.0", "D1.1", "D1.2", "D2.2", "P2"},
		{"D2.0", "D2.1", "D3.1", "D3.2", "P3"},
		{"D3.0", "D4.0", "D4.1", "D4.2", "P4"},
	}
	checkCells(t, got, want)
}

func checkCells(t *testing.T, got string, want [][]string) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != len(want)+1 {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(want)+1, got)
	}
	for i, row := range want {
		fields := strings.Fields(lines[i+1])
		if len(fields) != len(row)+1 {
			t.Fatalf("row %d: %q", i, lines[i+1])
		}
		for j, cell := range row {
			if fields[j+1] != cell {
				t.Errorf("offset %d disk %d: got %s, want %s", i, j, fields[j+1], cell)
			}
		}
	}
}

// TestFormatDualParityShowsPAndQ: every stripe of a dual-parity layout's
// full cycle renders one P cell on its P unit, one Q cell on its Q unit and
// its data units D.0 … D.(G−3) once each.
func TestFormatDualParityShowsPAndQ(t *testing.T) {
	for name, l := range dualLayouts(t) {
		lines := strings.Split(strings.TrimRight(Format(l, 0), "\n"), "\n")[1:]
		cells := map[string]Loc{}
		for off, line := range lines {
			for d, cell := range strings.Fields(line)[1:] {
				if prev, dup := cells[cell]; dup {
					t.Fatalf("%s: %s at %v and %v", name, cell, prev, Loc{Disk: d, Offset: int64(off)})
				}
				cells[cell] = Loc{Disk: d, Offset: int64(off)}
			}
		}
		for s := int64(0); s < fullCycle(l); s++ {
			want := map[string]Loc{
				fmt.Sprintf("P%d", s): ParityLocOf(l, s, 0),
				fmt.Sprintf("Q%d", s): ParityLocOf(l, s, 1),
			}
			for d := 0; d < DataPerStripe(l); d++ {
				want[fmt.Sprintf("D%d.%d", s, d)] = l.Unit(s, DataPos(l, s, d))
			}
			for cell, loc := range want {
				if got, ok := cells[cell]; !ok || got != loc {
					t.Fatalf("%s: %s at %v (shown %v), want %v", name, cell, got, ok, loc)
				}
			}
		}
		if n := fullCycle(l) * int64(l.G()); int64(len(cells)) != n {
			t.Fatalf("%s: %d cells, want %d", name, len(cells), n)
		}
	}
}

func TestFormatDefaultsToFullCycle(t *testing.T) {
	l := paperLayout(t, 5)
	got := Format(l, 0)
	lines := strings.Count(got, "\n")
	wantRows := int(l.UnitsPerDiskPerPeriod()) * l.G()
	if lines != wantRows+1 {
		t.Fatalf("%d lines, want %d rows + header", lines, wantRows)
	}
}
