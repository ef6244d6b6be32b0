package drive

import (
	"go/build"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

// TestAccessPartsAddUp holds the price to itself over random accesses: its
// parts add up to Finish - now, the arm ends on the last sector's cylinder,
// and SeekCyls is the distance to the first.
func TestAccessPartsAddUp(t *testing.T) {
	m, err := New(IBM0661())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		head, now, count := rng.Intn(m.Cylinders), rng.Float64()*1000, 1+rng.Intn(200)
		start := rng.Int63n(m.TotalSectors() - int64(count))
		tm := m.Access(head, now, start, count)
		dist := m.Locate(start).Cyl - head
		if math.Abs(tm.Finish-now-tm.SeekMS-tm.RotateMS-tm.TransferMS) > 1e-9 ||
			tm.EndCyl != m.Locate(start+int64(count)-1).Cyl || tm.SeekCyls != max(dist, -dist) {
			t.Fatalf("access %d of [%d, +%d) from cylinder %d at %v ms: %+v", i, start, count, head, now, tm)
		}
	}
}

// TestImportsOnlyStandardLibrary keeps the package a leaf: no non-test file
// imports anything outside the standard library, so a binary that must not
// link the simulator (the benchmark's, checked by make bench-harness) can
// still price accesses with it.
func TestImportsOnlyStandardLibrary(t *testing.T) {
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if p, err := build.Import(path, ".", build.FindOnly); err != nil || !p.Goroot {
				t.Errorf("%s imports %q, which is not in the standard library", fset.Position(imp.Pos()), path)
			}
		}
	}
}
