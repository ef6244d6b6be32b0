package drive

import (
	"go/build"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// mechanism calibrates g's seek curve, failing the test if g is invalid or
// admits no monotone curve.
func mechanism(t *testing.T, g Geometry) *Mechanism {
	t.Helper()
	m, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	return &m
}

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

// TestAccessFinishBits pins the float order of Finish: the running sum,
// each part added to t as it is priced, not now + SeekMS + RotateMS +
// TransferMS. The two differ by an ulp or more on three of these eight
// chained accesses (each starts where and when the last one ended, as a
// simulated disk's do), and the checked-in bits are the running sum's, so
// reordering the sum fails here even where the simulator's goldens and
// counts do not move. amd64 only: other platforms may fuse the seek
// curve's multiply-adds.
func TestAccessFinishBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("Finish bits are recorded on amd64")
	}
	m := mechanism(t, IBM0661())
	accesses := []struct {
		start  int64
		count  int
		finish uint64 // math.Float64bits(Finish)
	}{
		{466902, 101, 0x404ba7bbbbbbbbbd},
		{607596, 20, 0x40531ccccccccccd},
		{525222, 50, 0x405c16eeeeeeeeef},
		{329456, 107, 0x4064d05555555556},
		{489123, 33, 0x40682e2222222222},
		{269408, 91, 0x406ff67777777777},
		{318334, 85, 0x4072a8f777777778},
		{16032, 32, 0x40746a6666666666},
	}
	head, now, differ := 0, 0.0, 0
	for i, a := range accesses {
		tm := m.Access(head, now, a.start, a.count)
		if got := math.Float64bits(tm.Finish); got != a.finish {
			t.Fatalf("access %d of [%d, +%d): Finish %v (bits %#x), want bits %#x", i, a.start, a.count, tm.Finish, got, a.finish)
		}
		if now+tm.SeekMS+tm.RotateMS+tm.TransferMS != tm.Finish {
			differ++
		}
		head, now = tm.EndCyl, tm.Finish
	}
	if differ == 0 {
		t.Fatal("no access's parts, summed after the fact, differ from the running sum: the sequence pins no order")
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
