package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"declust/internal/core"
	"declust/internal/layout"
)

// testLayout selects a layout the way the facade does.
func testLayout(t testing.TB, c, g int) layout.Layout {
	t.Helper()
	m, err := core.NewMapping(c, g, 0)
	if err != nil {
		t.Fatalf("NewMapping(%d, %d): %v", c, g, err)
	}
	return m.Layout
}

// openStore opens a store of cfg, closed when the test ends.
func openStore(t testing.TB, cfg Config) *Store {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func newTestStore(t testing.TB, c, g int, unitsPerDisk int64, unitSize int) *Store {
	t.Helper()
	return openStore(t, Config{Layout: testLayout(t, c, g), UnitsPerDisk: unitsPerDisk, UnitSize: unitSize})
}

// fill writes a deterministic pattern for (unit, version) into buf.
func fill(buf []byte, unit int64, version uint64) {
	x := uint64(unit)*0x9e3779b97f4a7c15 + version*0xbf58476d1ce4e5b9 + 1
	for i := 0; i+8 <= len(buf); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(buf[i:], x)
	}
}

// verifyUnit reads unit n and asserts it holds pattern (n, version).
func verifyUnit(t *testing.T, s *Store, n int64, version uint64) {
	t.Helper()
	got := make([]byte, s.UnitSize())
	want := make([]byte, s.UnitSize())
	if err := s.ReadUnit(n, got); err != nil {
		t.Fatalf("ReadUnit(%d): %v", n, err)
	}
	fill(want, n, version)
	if !bytes.Equal(got, want) {
		t.Fatalf("unit %d: read-back does not match version %d write", n, version)
	}
}

// fillAll writes pattern (n, version) to every data unit.
func fillAll(t *testing.T, s *Store, version uint64) {
	t.Helper()
	buf := make([]byte, s.UnitSize())
	for n := int64(0); n < s.DataUnits(); n++ {
		fill(buf, n, version)
		if err := s.WriteUnit(n, buf); err != nil {
			t.Fatalf("WriteUnit(%d): %v", n, err)
		}
	}
}

// TestRoundTrip writes every unit, overwrites a share of them one unit at a
// time (the delta: a read-modify-write of one parity or two), then the
// whole array as one range (large writes: parity from the new contents
// alone); after each pass every unit reads back its last write and every
// parity equation balances.
func TestRoundTrip(t *testing.T) {
	for _, code := range []struct {
		name   string
		m      int
		stride int64 // every stride-th unit is overwritten
	}{{"P", 1, 3}, {"P+Q", 2, 2}} {
		t.Run(code.name, func(t *testing.T) {
			s := openStore(t, Config{Layout: codeLayout(t, code.m), UnitsPerDisk: 64, UnitSize: 512})
			if got := s.Parities(); got != code.m {
				t.Fatalf("Parities() = %d, want %d", got, code.m)
			}
			if s.DataUnits() == 0 {
				t.Fatal("no data units")
			}
			version := make([]uint64, s.DataUnits())
			check := func(pass string) {
				t.Helper()
				for n, v := range version {
					verifyUnit(t, s, int64(n), v)
				}
				if err := s.CheckParity(); err != nil {
					t.Fatalf("after the %s: %v", pass, err)
				}
			}
			fillAll(t, s, 1)
			for n := range version {
				version[n] = 1
			}
			check("fill")
			buf := make([]byte, s.UnitSize())
			for n := int64(0); n < s.DataUnits(); n += code.stride {
				fill(buf, n, 2)
				if err := s.WriteUnit(n, buf); err != nil {
					t.Fatal(err)
				}
				version[n] = 2
			}
			check("overwrites")
			us := int64(s.UnitSize())
			span := make([]byte, s.DataUnits()*us)
			for n := range version {
				fill(span[int64(n)*us:int64(n+1)*us], int64(n), 3)
				version[n] = 3
			}
			if err := s.WriteRange(0, span); err != nil {
				t.Fatal(err)
			}
			check("range write")
			if got := s.Mode(); got != Healthy {
				t.Fatalf("mode %v, want healthy", got)
			}
		})
	}
}

func TestRangeOpsMatchUnitOps(t *testing.T) {
	s := newTestStore(t, 7, 3, 64, 512)
	us := s.UnitSize()
	n := s.DataUnits()
	// An unaligned span covering partial and whole stripes.
	start, count := int64(1), n-2
	src := make([]byte, int(count)*us)
	for i := int64(0); i < count; i++ {
		fill(src[i*int64(us):(i+1)*int64(us)], start+i, 7)
	}
	if err := s.WriteRange(start, src); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckParity(); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(src))
	if err := s.ReadRange(start, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("ReadRange does not match WriteRange")
	}
	for i := int64(0); i < count; i++ {
		verifyUnit(t, s, start+i, 7)
	}
}

func TestDegradedReadsReconstruct(t *testing.T) {
	s := newTestStore(t, 7, 3, 64, 512)
	fillAll(t, s, 1)
	if err := s.Fail(2); err != nil {
		t.Fatal(err)
	}
	if got := s.Mode(); got != Degraded {
		t.Fatalf("mode %v, want degraded", got)
	}
	for n := int64(0); n < s.DataUnits(); n++ {
		verifyUnit(t, s, n, 1)
	}
	if s.Stats().DegradedReads == 0 {
		t.Fatal("no reads were served by on-the-fly reconstruction")
	}
}

func TestDegradedWritesFoldIntoParity(t *testing.T) {
	s := newTestStore(t, 7, 3, 64, 512)
	fillAll(t, s, 1)
	if err := s.Fail(3); err != nil {
		t.Fatal(err)
	}
	fillAll(t, s, 2) // every write path: folds, lost parity, healthy RMW
	if s.Stats().FoldedWrites == 0 {
		t.Fatal("no writes folded into parity while degraded")
	}
	for n := int64(0); n < s.DataUnits(); n++ {
		verifyUnit(t, s, n, 2)
	}
	// Rebuild onto a blank disk and verify the heal.
	if err := s.Rebuild(NewMemDisk(s.unitsPerDisk, s.UnitSize())); err != nil {
		t.Fatal(err)
	}
	if got := s.Mode(); got != Healthy {
		t.Fatalf("mode %v, want healthy after rebuild", got)
	}
	for n := int64(0); n < s.DataUnits(); n++ {
		verifyUnit(t, s, n, 2)
	}
	if err := s.CheckParity(); err != nil {
		t.Fatal(err)
	}
	done, total := s.RebuildProgress()
	if done != total {
		t.Fatalf("rebuild progress %d/%d after heal", done, total)
	}
}

// TestEveryFailureSetRecovers fails, on a fresh store each time, every set
// of disks the code can lose — each disk under P, each pair under P+Q — and
// after the i-th failure overwrites every third unit from i (so each
// window's writes fold over the failures before it); it then reads every
// unit back degraded, rebuilds each failure oldest first, and reads
// everything back and checks parity once healed.
func TestEveryFailureSetRecovers(t *testing.T) {
	for _, code := range []struct {
		name         string
		m            int
		unitsPerDisk int64
	}{{"P", 1, 64}, {"P+Q", 2, 32}} {
		t.Run(code.name, func(t *testing.T) {
			lay := codeLayout(t, code.m)
			var sets [][]int
			for d1 := 0; d1 < lay.Disks(); d1++ {
				if code.m == 1 {
					sets = append(sets, []int{d1})
					continue
				}
				for d2 := d1 + 1; d2 < lay.Disks(); d2++ {
					sets = append(sets, []int{d1, d2})
				}
			}
			for _, set := range sets {
				t.Run(fmt.Sprint(set), func(t *testing.T) {
					s := openStore(t, Config{Layout: lay, UnitsPerDisk: code.unitsPerDisk, UnitSize: 512})
					version := func(n int64) uint64 {
						if i := int(n % 3); i < len(set) {
							return uint64(2 + i)
						}
						return 1
					}
					verifyAll := func() {
						t.Helper()
						for n := int64(0); n < s.DataUnits(); n++ {
							verifyUnit(t, s, n, version(n))
						}
					}
					fillAll(t, s, 1)
					buf := make([]byte, s.UnitSize())
					for i, d := range set {
						if err := s.Fail(d); err != nil {
							t.Fatal(err)
						}
						for n := int64(i); n < s.DataUnits(); n += 3 {
							fill(buf, n, version(n))
							if err := s.WriteUnit(n, buf); err != nil {
								t.Fatal(err)
							}
						}
					}
					verifyAll()
					rebuildEach(t, s, len(set), func(int) Disk { return NewMemDisk(s.unitsPerDisk, s.UnitSize()) })
					verifyAll()
					if err := s.CheckParity(); err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}

// TestRebuildAnyFailurePoint interleaves the failure with a write
// sequence at several points; data written before and after the failure
// must both survive the rebuild.
func TestRebuildAnyFailurePoint(t *testing.T) {
	lay := testLayout(t, 7, 3)
	total := layout.DataUnits(lay, 64)
	probe := []int64{0, total / 3, 2 * total / 3, total}
	for _, failAt := range probe {
		s, err := New(Config{Layout: lay, UnitsPerDisk: 64, UnitSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, s.UnitSize())
		for n := int64(0); n < total; n++ {
			if n == failAt {
				if err := s.Fail(1); err != nil {
					t.Fatal(err)
				}
			}
			fill(buf, n, 9)
			if err := s.WriteUnit(n, buf); err != nil {
				t.Fatal(err)
			}
		}
		if failAt == total {
			if err := s.Fail(1); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Rebuild(NewMemDisk(s.unitsPerDisk, s.UnitSize())); err != nil {
			t.Fatal(err)
		}
		for n := int64(0); n < total; n++ {
			verifyUnit(t, s, n, 9)
		}
		if err := s.CheckParity(); err != nil {
			t.Fatalf("fail point %d: %v", failAt, err)
		}
		s.Close()
	}
}

func TestFileBackedPersistence(t *testing.T) {
	dir := t.TempDir()
	lay := testLayout(t, 5, 5) // RAID 5 exercise of the other layout family
	const units, us = 40, 512
	disks, err := OpenFileDisks(dir, lay.Disks(), units, us)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Layout: lay, UnitsPerDisk: units, UnitSize: us, Disks: disks})
	if err != nil {
		t.Fatal(err)
	}
	fillAll(t, s, 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen the same files: contents and parity must have persisted.
	disks, err = OpenFileDisks(dir, lay.Disks(), units, us)
	if err != nil {
		t.Fatal(err)
	}
	s, err = New(Config{Layout: lay, UnitsPerDisk: units, UnitSize: us, Disks: disks})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for n := int64(0); n < s.DataUnits(); n++ {
		verifyUnit(t, s, n, 5)
	}
	if err := s.CheckParity(); err != nil {
		t.Fatal(err)
	}
	// A file-backed rebuild: fail one file, rebuild onto a fresh one.
	if err := s.Fail(3); err != nil {
		t.Fatal(err)
	}
	repl, err := OpenFileDisk(filepath.Join(dir, "replacement.dat"), units, us)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(repl); err != nil {
		t.Fatal(err)
	}
	for n := int64(0); n < s.DataUnits(); n++ {
		verifyUnit(t, s, n, 5)
	}
}

func TestConfigAndStateErrors(t *testing.T) {
	lay := testLayout(t, 7, 3)
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without layout succeeded")
	}
	if _, err := New(Config{Layout: lay, UnitSize: 12}); err == nil {
		t.Fatal("New with non-multiple-of-8 unit size succeeded")
	}
	// A sub-period capacity, and negative ones: −100 is below minus one
	// period, where the usable count itself goes negative.
	for _, units := range []int64{1, -1, -100} {
		if _, err := New(Config{Layout: lay, UnitsPerDisk: units}); err == nil {
			t.Fatalf("New with %d units per disk succeeded", units)
		}
	}
	if _, err := New(Config{Layout: lay, Disks: make([]Disk, 2)}); err == nil {
		t.Fatal("New with wrong disk count succeeded")
	}

	s := newTestStore(t, 7, 3, 64, 512)
	buf := make([]byte, 512)
	if err := s.ReadUnit(-1, buf); err == nil {
		t.Fatal("negative unit read succeeded")
	}
	if err := s.ReadUnit(s.DataUnits(), buf); err == nil {
		t.Fatal("out-of-range read succeeded")
	}
	if err := s.WriteUnit(0, buf[:8]); err == nil {
		t.Fatal("short-buffer write succeeded")
	}
	if err := s.ReadRange(0, buf[:100]); err == nil {
		t.Fatal("misaligned range succeeded")
	}
	// Two units from near the top of int64, where start+n wraps negative,
	// and two from the last unit, one past the end.
	two := make([]byte, 2*512)
	for _, start := range []int64{math.MaxInt64 - 1, s.DataUnits() - 1} {
		if err := s.ReadRange(start, two); err == nil {
			t.Fatalf("two-unit range read at %d succeeded", start)
		}
		if err := s.WriteRange(start, two); err == nil {
			t.Fatalf("two-unit range write at %d succeeded", start)
		}
	}
	if err := s.Rebuild(NewMemDisk(64, 512)); err == nil {
		t.Fatal("rebuild of healthy store succeeded")
	}
	if err := s.Fail(99); err == nil {
		t.Fatal("fail of out-of-range disk succeeded")
	}
	if err := s.Fail(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Fail(1); err == nil {
		t.Fatal("second concurrent failure accepted")
	}
	if err := s.Rebuild(nil); err == nil {
		t.Fatal("nil replacement accepted")
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{Healthy: "healthy", Degraded: "degraded", Rebuilding: "rebuilding", Mode(9): "Mode(9)"} {
		if got := m.String(); got != want {
			t.Fatalf("Mode %d String() = %q, want %q", int(m), got, want)
		}
	}
}

// lostBeside returns the disk that holds, in data unit n's stripe, what
// role names: "P" the stripe's P, "data" the first other data unit.
func lostBeside(l layout.Layout, n int64, role string) int {
	dps := int64(layout.DataPerStripe(l))
	stripe, own := n/dps, layout.DataPos(l, n/dps, int(n%dps))
	for j := 0; j < l.G(); j++ {
		if role == "P" && j == l.ParityPos(stripe, 0) ||
			role == "data" && j != own && !layout.IsParityPos(l, stripe, j) {
			return l.Unit(stripe, j).Disk
		}
	}
	panic("no " + role + " unit beside the one read")
}

// TestHotPathAllocations pins what the benchmark's --trace 1 pass reports
// as store.write.healthy_allocs, store.pq.write.healthy_allocs,
// store.read.healthy_allocs and store.read.lost_allocs, where `go test
// ./...` sees them: a fault-free small write, a fault-free read, and the
// read of a unit of a failed disk and the write folded into its parities
// allocate nothing, under either code — nor does a range read or write
// across three stripes: the tail of one, a whole one (a large write) and
// the head of the next. Over MemDisks every buffer comes from the pools.
// Two P+Q rows read a unit whose stripe has lost a second unit as well,
// its P or another data unit: the two-erasure decode's P-and-data and
// data-and-data branches.
// Each row runs twice: on a serial store (IOWorkers 1, no gate at all), and
// gated (IOWorkers 8, as file-p runs), where the gate stays shut over
// memory and every batch goes through fanOut's inline branch — which must
// allocate nothing either, and must have been taken.
func TestHotPathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds buffers at random under the race detector")
	}
	rows := []struct {
		name    string
		layout  layout.Layout
		fail    bool
		op      func(s *Store, n int64, buf []byte) error
		stripes int64 // touched per op; a range op starts at the last unit of the first
		want    float64
		also    string // with fail: a second disk is lost too, holding the stripe's "P" or another "data" unit
	}{
		{"P healthy write", testLayout(t, 7, 3), false, (*Store).WriteUnit, 1, 0, ""},
		{"P+Q healthy write", testPQLayout(t, 7, 4), false, (*Store).WriteUnit, 1, 0, ""},
		{"P healthy read", testLayout(t, 7, 3), false, (*Store).ReadUnit, 1, 0, ""},
		{"P+Q healthy read", testPQLayout(t, 7, 4), false, (*Store).ReadUnit, 1, 0, ""},
		{"P lost-unit read", testLayout(t, 7, 3), true, (*Store).ReadUnit, 1, 0, ""},
		{"P+Q lost-unit read", testPQLayout(t, 7, 4), true, (*Store).ReadUnit, 1, 0, ""},
		{"P lost-unit write", testLayout(t, 7, 3), true, (*Store).WriteUnit, 1, 0, ""},
		{"P+Q lost-unit write", testPQLayout(t, 7, 4), true, (*Store).WriteUnit, 1, 0, ""},
		{"P range read", testLayout(t, 7, 3), false, (*Store).ReadRange, 3, 0, ""},
		{"P+Q range read", testPQLayout(t, 7, 4), false, (*Store).ReadRange, 3, 0, ""},
		{"P range write", testLayout(t, 7, 3), false, (*Store).WriteRange, 3, 0, ""},
		{"P+Q range write", testPQLayout(t, 7, 4), false, (*Store).WriteRange, 3, 0, ""},
		{"P+Q P-and-unit-lost read", testPQLayout(t, 7, 4), true, (*Store).ReadUnit, 1, 0, "P"},
		{"P+Q two-data-lost read", testPQLayout(t, 7, 4), true, (*Store).ReadUnit, 1, 0, "data"},
	}
	for _, workers := range []int{1, 8} {
		for _, tc := range rows {
			name := tc.name
			if workers > 1 {
				name += " gated"
			}
			t.Run(name, func(t *testing.T) {
				s := openStore(t, Config{Layout: tc.layout, UnitsPerDisk: 64, UnitSize: 512, IOWorkers: workers})
				fillAll(t, s, 1)
				per, size := s.dataPerStripe, int64(1)
				if tc.stripes > 1 {
					size = (tc.stripes - 1) * per
				}
				units := make([]int64, 0, s.DataUnits())
				second := -1 // the disk lost beside disk 0, set by the first unit played
				for n := int64(0); n+size <= s.DataUnits(); n++ {
					if tc.stripes > 1 && n%per != per-1 {
						continue
					}
					if tc.fail && layout.DataLoc(tc.layout, n).Disk != 0 {
						continue
					}
					if tc.also != "" {
						if d := lostBeside(tc.layout, n, tc.also); second < 0 {
							second = d
						} else if d != second {
							continue
						}
					}
					units = append(units, n)
				}
				if tc.fail {
					if err := s.Fail(0); err != nil {
						t.Fatal(err)
					}
					if second >= 0 {
						if err := s.Fail(second); err != nil {
							t.Fatal(err)
						}
					}
				}
				buf := make([]byte, size*int64(s.UnitSize()))
				i := 0
				got := testing.AllocsPerRun(200, func() {
					if err := tc.op(s, units[i%len(units)], buf); err != nil {
						t.Fatal(err)
					}
					i++
				})
				if got != tc.want {
					t.Errorf("%v allocs per op, want %v", got, tc.want)
				}
				if st := s.Stats(); workers > 1 && (st.FanOuts != 0 || st.FanOutsInline == 0) {
					t.Errorf("FanOuts %d, FanOutsInline %d: want every batch issued inline through the shut gate",
						st.FanOuts, st.FanOutsInline)
				}
			})
		}
	}
}
