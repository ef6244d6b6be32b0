package blockdesign

import (
	"strings"
	"testing"
)

func mustParams(t *testing.T, d *Design) Params {
	t.Helper()
	p, err := d.Params()
	if err != nil {
		t.Fatalf("%s: %v", d.Source, err)
	}
	return p
}

func TestVerifyAcceptsFigure4_1(t *testing.T) {
	// The complete design printed in the paper's Figure 4-1:
	// b=5, v=5, k=4, r=4, λ=3.
	d := &Design{V: 5, K: 4, Tuples: [][]int{
		{0, 1, 2, 3}, {0, 1, 2, 4}, {0, 1, 3, 4}, {0, 2, 3, 4}, {1, 2, 3, 4},
	}}
	p := mustParams(t, d)
	want := Params{B: 5, V: 5, K: 4, R: 4, Lambda: 3}
	if p != want {
		t.Fatalf("params = %+v, want %+v", p, want)
	}
}

func TestVerifyRejectsUnbalanced(t *testing.T) {
	cases := []struct {
		name string
		d    *Design
		msg  string
	}{
		{"r not constant", &Design{V: 4, K: 2, Tuples: [][]int{{0, 1}, {0, 2}, {0, 3}}}, "r not constant"},
		{"λ not constant", &Design{V: 4, K: 2, Tuples: [][]int{{0, 1}, {2, 3}, {0, 1}, {2, 3}, {0, 2}, {1, 3}, {0, 3}, {1, 2}}}, "λ not constant"},
		{"repeat in tuple", &Design{V: 4, K: 2, Tuples: [][]int{{0, 0}}}, "repeats"},
		{"out of range", &Design{V: 4, K: 2, Tuples: [][]int{{0, 4}}}, "out of range"},
		{"wrong size tuple", &Design{V: 4, K: 2, Tuples: [][]int{{0, 1, 2}}}, "elements"},
		{"no tuples", &Design{V: 4, K: 2}, "no tuples"},
		{"k too small", &Design{V: 4, K: 1, Tuples: [][]int{{0}}}, "k <= v"},
		{"v too small", &Design{V: 1, K: 1, Tuples: [][]int{{0}}}, "v >= 2"},
	}
	for _, c := range cases {
		err := c.d.Verify()
		if err == nil {
			t.Errorf("%s: Verify accepted invalid design", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.msg) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.msg)
		}
	}
}

func TestPaperDesignsMatchPublishedParameters(t *testing.T) {
	want := map[int]Params{
		3:  {B: 70, V: 21, K: 3, R: 10, Lambda: 1},
		4:  {B: 105, V: 21, K: 4, R: 20, Lambda: 3},
		5:  {B: 21, V: 21, K: 5, R: 5, Lambda: 1},
		6:  {B: 42, V: 21, K: 6, R: 12, Lambda: 3},
		10: {B: 42, V: 21, K: 10, R: 20, Lambda: 9},
		18: {B: 1330, V: 21, K: 18, R: 1140, Lambda: 969},
	}
	alphas := map[int]float64{3: 0.1, 4: 0.15, 5: 0.2, 6: 0.25, 10: 0.45, 18: 0.85}
	for _, g := range PaperG {
		d, err := PaperDesign(g)
		if err != nil {
			t.Fatalf("PaperDesign(%d): %v", g, err)
		}
		p := mustParams(t, d)
		if p != want[g] {
			t.Errorf("G=%d: params %+v, want %+v", g, p, want[g])
		}
		if a := p.Alpha(); a != alphas[g] {
			t.Errorf("G=%d: α=%v, want %v", g, a, alphas[g])
		}
	}
}

func TestPaperDesignUnknownG(t *testing.T) {
	if _, err := PaperDesign(7); err == nil {
		t.Fatal("PaperDesign(7) succeeded; the paper has no such design")
	}
}

func TestCompleteDesignParams(t *testing.T) {
	d, err := Complete(6, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := mustParams(t, d)
	// r = C(5,2) = 10, λ = C(4,1) = 4, b = C(6,3) = 20.
	want := Params{B: 20, V: 6, K: 3, R: 10, Lambda: 4}
	if p != want {
		t.Fatalf("params = %+v, want %+v", p, want)
	}
}

func TestCompleteDesignRespectsLimit(t *testing.T) {
	if _, err := Complete(41, 5, 1000); err == nil {
		t.Fatal("no error for the paper's 41-disk/G=5 infeasible example")
	}
}

func TestCompleteDesignRejectsBadArgs(t *testing.T) {
	for _, c := range []struct{ v, k int }{{1, 1}, {5, 1}, {5, 6}} {
		if _, err := Complete(c.v, c.k, 0); err == nil {
			t.Errorf("Complete(%d,%d) accepted", c.v, c.k)
		}
	}
}

func TestCyclicShortPeriod(t *testing.T) {
	// The short orbit [0,7,14] mod 21 period 7 from appendix design 1
	// produces 7 tuples covering differences 7 and 14 exactly once each.
	d := &Design{V: 21, K: 3}
	for s := 0; s < 7; s++ {
		d.Tuples = append(d.Tuples, []int{s, s + 7, s + 14})
	}
	// Not balanced alone (pairs across orbits never met) — just check
	// the tuple development matches Cyclic's output.
	got, err := Cyclic(21, []BaseBlock{{Elements: []int{0, 7, 14}, Period: 7}}, "short orbit")
	if err == nil {
		t.Fatal("short orbit alone should fail verification (λ not constant)")
	}
	_ = got
}

func TestCyclicRejectsBadInput(t *testing.T) {
	if _, err := Cyclic(21, nil, "x"); err == nil {
		t.Error("no base blocks accepted")
	}
	if _, err := Cyclic(21, []BaseBlock{{Elements: []int{0, 1, 3}}, {Elements: []int{0, 1}}}, "x"); err == nil {
		t.Error("mismatched block sizes accepted")
	}
	if _, err := Cyclic(21, []BaseBlock{{Elements: []int{0, 1, 3}, Period: 22}}, "x"); err == nil {
		t.Error("period beyond v accepted")
	}
}

func TestDerivedOfSymmetric(t *testing.T) {
	// Fano plane (7,3,1) is symmetric; derived design has k'=λ=1 < 2 so
	// must fail. Use the (43,21,10) from the paper instead, already
	// covered by TestPaperDesigns; here use PG(2,3): (13,4,1) symmetric,
	// derived k'=1 → error. Good negative case.
	pg, err := ProjectivePlane(3)
	if err != nil {
		t.Fatal(err)
	}
	if !pg.IsSymmetric() {
		t.Fatal("PG(2,3) not symmetric")
	}
	if _, err := Derived(pg, 0); err == nil {
		t.Fatal("derived design with k'=1 accepted")
	}
}

func TestDerivedRequiresSymmetric(t *testing.T) {
	d, _ := Complete(6, 3, 0)
	if _, err := Derived(d, 0); err == nil {
		t.Fatal("derived of non-symmetric design accepted")
	}
}

func TestDerivedBlockIndexOutOfRange(t *testing.T) {
	pg, _ := ProjectivePlane(4 - 1) // PG(2,3)
	if _, err := Derived(pg, 99); err == nil {
		t.Fatal("out-of-range block index accepted")
	}
}

func TestComplementParams(t *testing.T) {
	// Complement of (b,v,k,r,λ) is (b, v, v−k, b−r, b−2r+λ).
	d, err := PaperDesign(5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Complement(d)
	if err != nil {
		t.Fatal(err)
	}
	p := mustParams(t, c)
	want := Params{B: 21, V: 21, K: 16, R: 16, Lambda: 12}
	if p != want {
		t.Fatalf("complement params %+v, want %+v", p, want)
	}
}

func TestComplementRejectsNearFull(t *testing.T) {
	d, _ := Complete(5, 4, 0)
	if _, err := Complement(d); err == nil {
		t.Fatal("complement with k' < 2 accepted")
	}
}

func TestCloneIndependent(t *testing.T) {
	d, _ := PaperDesign(5)
	c := d.Clone()
	c.Tuples[0][0] = 99
	if d.Tuples[0][0] == 99 {
		t.Fatal("clone shares tuple storage")
	}
}

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{21, 18, 1330}, {21, 5, 20349}, {5, 0, 1}, {5, 5, 1}, {5, 6, 0}, {41, 5, 749398},
	}
	for _, c := range cases {
		got, err := Binomial(c.n, c.k)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("Binomial(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}
