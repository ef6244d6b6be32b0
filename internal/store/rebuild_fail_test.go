package store

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"declust/internal/layout"
)

// failPoints numbers the backend accesses of the disks that share it. Armed
// at k it kills the (disk, offset) of the k-th access from then on: that
// access and every later one there fails hard (errPlanted wraps
// ErrDiskFailed, which the engine never retries) until it is disarmed.
type failPoints struct {
	mu    sync.Mutex
	n, k  int
	armed bool
	dead  struct {
		disk int
		off  int64
	}
}

// arm restarts the count and plants the failure at access k; k = 0 only counts.
func (fp *failPoints) arm(k int) {
	fp.mu.Lock()
	fp.n, fp.k, fp.armed = 0, k, false
	fp.mu.Unlock()
}

func (fp *failPoints) count() int {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	return fp.n
}

// hook numbers every unit access and fails the dead ones.
func (fp *failPoints) hook(c call, pass func() error) error {
	if !c.access() {
		return pass()
	}
	fp.mu.Lock()
	fp.n++
	if fp.n == fp.k {
		fp.armed = true
		fp.dead.disk, fp.dead.off = c.disk, c.off
	}
	dead := fp.armed && fp.dead.disk == c.disk && fp.dead.off == c.off
	fp.mu.Unlock()
	if dead {
		return errPlanted
	}
	return pass()
}

// TestRebuildEveryFailurePoint enumerates the failure points of a rebuild:
// for every k up to the number of backend accesses a clean sweep makes —
// survivor reads and replacement writes alike — the (disk, offset) of
// access k dies, and the store must come out of the failed Rebuild as it
// went in. Rebuild reports the error; the store is Degraded with no
// replacement, no stripe lock held and no goroutine left (with the gate
// forced open the write-behind join is one of the points); then, the fault
// lifted — with m disks down under m parities nothing could decode around a
// dead survivor sector — every unit reads back, a Rebuild onto a fresh disk
// succeeds, and the array compares byte for byte with what was written.
// Nothing is randomised; over the forced-open store which access comes k-th
// varies with scheduling, and every k is visited either way.
func TestRebuildEveryFailurePoint(t *testing.T) {
	const units, unitSize, version = 12, 64, 3
	for _, code := range []struct {
		name   string
		lay    layout.Layout
		failed []int // oldest first: Rebuild restores failed[0]
	}{
		{"P", testLayout(t, 7, 4), []int{2}},
		{"P+Q", testPQLayout(t, 7, 4), []int{2, 5}},
	} {
		for _, ioWorkers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/io%d", code.name, ioWorkers), func(t *testing.T) {
				if ioWorkers > 1 {
					forceOverlap(t)
				}
				fp := &failPoints{}
				// open builds a filled store with code.failed down, counts
				// restarted, and returns a maker of counted replacements.
				open := func() (*Store, func() Disk) {
					next := code.lay.Disks()
					fresh := func() Disk {
						next++
						return &scriptedDisk{under: NewMemDisk(units, unitSize), slot: next, hook: fp.hook}
					}
					fp.arm(0)
					s, err := New(Config{Layout: code.lay, UnitsPerDisk: units, UnitSize: unitSize,
						Disks:     scriptedDisks(code.lay.Disks(), units, unitSize, fp.hook),
						IOWorkers: ioWorkers, RebuildWorkers: ioWorkers})
					if err != nil {
						t.Fatal(err)
					}
					fillAll(t, s, version)
					for _, d := range code.failed {
						if err := s.Fail(d); err != nil {
							t.Fatal(err)
						}
					}
					return s, fresh
				}

				s, fresh := open()
				fp.arm(0)
				if err := s.Rebuild(fresh()); err != nil {
					t.Fatalf("clean rebuild: %v", err)
				}
				points := fp.count()
				s.Close()
				if points < int(s.unitsPerDisk)*2 {
					t.Fatalf("a clean rebuild of %d units made only %d accesses", s.unitsPerDisk, points)
				}
				t.Logf("%d failure points", points)

				for k := 1; k <= points; k++ {
					s, fresh := open()
					base := runtime.NumGoroutine()
					fp.arm(k)
					if err := s.Rebuild(fresh()); !errors.Is(err, errPlanted) {
						t.Fatalf("k=%d: Rebuild = %v, want the planted failure", k, err)
					}
					if m := s.Mode(); m != Degraded {
						t.Fatalf("k=%d: mode %v after the failed rebuild, want %v", k, m, Degraded)
					}
					if done, _ := s.RebuildProgress(); done != 0 {
						t.Fatalf("k=%d: %d units still count as rebuilt", k, done)
					}
					for i := range s.locks.locks {
						if !s.locks.locks[i].TryLock() {
							t.Fatalf("k=%d: stripe lock %d still held", k, i)
						}
						s.locks.locks[i].Unlock()
					}
					waitFor(t, "the sweep's goroutines to exit", func() bool { return runtime.NumGoroutine() <= base })

					fp.arm(0)
					for n := int64(0); n < s.DataUnits(); n++ {
						verifyUnit(t, s, n, version)
					}
					for range code.failed {
						if err := s.Rebuild(fresh()); err != nil {
							t.Fatalf("k=%d: Rebuild onto a fresh disk after the failed one: %v", k, err)
						}
					}
					if m := s.Mode(); m != Healthy {
						t.Fatalf("k=%d: mode %v after rebuilding every failed disk", k, m)
					}
					for n := int64(0); n < s.DataUnits(); n++ {
						verifyUnit(t, s, n, version)
					}
					if err := s.CheckParity(); err != nil {
						t.Fatalf("k=%d: %v", k, err)
					}
					if err := s.Close(); err != nil {
						t.Fatalf("k=%d: Close: %v", k, err)
					}
				}
			})
		}
	}
}

// TestFailedRebuildLeavesStoreDegraded pins who owns a backend: Close
// closes every member New took over, failed or not, and every replacement
// Rebuild installed — healed or discarded — exactly once, and never one
// Rebuild refused before installing it. Its discarded row is the failed
// rebuild itself: a replacement that dies mid-sweep fails the Rebuild, and
// the store is Degraded again and takes a fresh replacement.
func TestFailedRebuildLeavesStoreDegraded(t *testing.T) {
	const units, unitSize = 48, 512
	for _, row := range []struct {
		name   string
		pq     bool
		closes int // Close calls each counted replacement must see
		steps  func(t *testing.T, s *Store, counted func(Disk) Disk)
	}{
		{"failed member", false, 1, func(t *testing.T, s *Store, counted func(Disk) Disk) {
			mustFail(t, s, 2)
		}},
		{"healed replacement", false, 1, func(t *testing.T, s *Store, counted func(Disk) Disk) {
			mustFail(t, s, 2)
			if err := s.Rebuild(counted(NewMemDisk(units, unitSize))); err != nil {
				t.Fatal(err)
			}
		}},
		{"discarded replacement", false, 1, func(t *testing.T, s *Store, counted func(Disk) Disk) {
			mustFail(t, s, 2)
			dying := &scriptedDisk{under: NewMemDisk(units, unitSize), slot: 2, hook: failAt(opWrite, layout.Loc{Disk: 2, Offset: 10})}
			if err := s.Rebuild(counted(dying)); !errors.Is(err, errPlanted) {
				t.Fatalf("Rebuild onto a dying replacement = %v, want the planted failure", err)
			}
			if m := s.Mode(); m != Degraded {
				t.Fatalf("mode %v after the failed rebuild, want %v", m, Degraded)
			}
			if err := s.Rebuild(counted(NewMemDisk(units, unitSize))); err != nil {
				t.Fatalf("Rebuild onto a fresh disk: %v", err)
			}
			for n := int64(0); n < s.DataUnits(); n++ {
				verifyUnit(t, s, n, 1)
			}
			if err := s.CheckParity(); err != nil {
				t.Fatal(err)
			}
		}},
		{"P+Q one healed one pending", true, 1, func(t *testing.T, s *Store, counted func(Disk) Disk) {
			mustFail(t, s, 1)
			mustFail(t, s, 4)
			if err := s.Rebuild(counted(NewMemDisk(units, unitSize))); err != nil {
				t.Fatal(err)
			}
		}},
		{"refused for its geometry", false, 0, func(t *testing.T, s *Store, counted func(Disk) Disk) {
			mustFail(t, s, 2)
			if err := s.Rebuild(counted(NewMemDisk(units, unitSize/2))); err == nil {
				t.Fatal("Rebuild accepted a replacement with half-size units")
			}
		}},
		{"refused with nothing to rebuild", false, 0, func(t *testing.T, s *Store, counted func(Disk) Disk) {
			if err := s.Rebuild(counted(NewMemDisk(units, unitSize))); err == nil {
				t.Fatal("Rebuild accepted a replacement with no disk failed")
			}
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			lay := testLayout(t, 7, 4)
			if row.pq {
				lay = testPQLayout(t, 7, 4)
			}
			// closes counts each backend's Close calls: members in their
			// slots, replacements after them in the order they are made.
			closes := make([]int, lay.Disks())
			countClose := func(c call, pass func() error) error {
				if c.op == opClose {
					closes[c.disk]++
				}
				return pass()
			}
			s, err := New(Config{Layout: lay, UnitsPerDisk: units, UnitSize: unitSize,
				Disks: scriptedDisks(lay.Disks(), units, unitSize, countClose)})
			if err != nil {
				t.Fatal(err)
			}
			fillAll(t, s, 1)
			row.steps(t, s, func(d Disk) Disk {
				closes = append(closes, 0)
				return &scriptedDisk{under: d, slot: len(closes) - 1, hook: countClose}
			})
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			for i, n := range closes {
				what, want := fmt.Sprintf("member %d", i), 1
				if i >= lay.Disks() {
					what, want = fmt.Sprintf("replacement %d", i-lay.Disks()), row.closes
				}
				if n != want {
					t.Errorf("%s closed %d times, want %d", what, n, want)
				}
			}
		})
	}
}

func mustFail(t *testing.T, s *Store, d int) {
	t.Helper()
	if err := s.Fail(d); err != nil {
		t.Fatal(err)
	}
}

// TestFaultDiskOverBareBackend: a FaultDisk reports the geometry of the
// backend under it, so it serves as every member of a store and as the
// replacement a rebuild writes.
func TestFaultDiskOverBareBackend(t *testing.T) {
	lay := testLayout(t, 5, 3)
	disks := make([]Disk, lay.Disks())
	for i := range disks {
		disks[i] = NewFaultDisk(NewMemDisk(24, 512), FaultConfig{Seed: int64(i)})
	}
	s, err := New(Config{Layout: lay, UnitsPerDisk: 24, UnitSize: 512, Disks: disks})
	if err != nil {
		t.Fatalf("New over FaultDisks: %v", err)
	}
	defer s.Close()
	fillAll(t, s, 2)
	if err := s.Fail(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(NewFaultDisk(NewMemDisk(24, 512), FaultConfig{})); err != nil {
		t.Fatalf("Rebuild onto a FaultDisk: %v", err)
	}
	got, want := make([]byte, s.UnitSize()), make([]byte, s.UnitSize())
	for n := int64(0); n < s.DataUnits(); n++ {
		if err := s.ReadUnit(n, got); err != nil {
			t.Fatal(err)
		}
		if fill(want, n, 2); !bytes.Equal(got, want) {
			t.Fatalf("unit %d differs after the rebuild", n)
		}
	}
	// The geometry it reports is the backend's, and is held to.
	if err := checkGeometry(NewFaultDisk(NewMemDisk(24, 256), FaultConfig{}), 24, 512); err == nil {
		t.Error("a FaultDisk over 256-byte units accepted by a 512-byte store")
	}
}

// TestSecondFailureKeepsRebuildProgress: under P+Q a disk that fails while
// another is being rebuilt joins the sweep as a second erasure, and the
// running rebuild keeps its count — after Rebuild returns, every unit of the
// restored disk counts as done.
func TestSecondFailureKeepsRebuildProgress(t *testing.T) {
	const units, unitSize = 48, 512
	s := openStore(t, Config{Layout: testPQLayout(t, 7, 4), UnitsPerDisk: units, UnitSize: unitSize,
		RebuildWorkers: 1, RebuildThrottle: 2 * time.Millisecond})
	fillAll(t, s, 1)
	if err := s.Fail(1); err != nil {
		t.Fatal(err)
	}
	rebuilt := make(chan error, 1)
	go func() { rebuilt <- s.Rebuild(NewMemDisk(units, unitSize)) }()
	waitFor(t, "10 rebuilt units", func() bool { done, _ := s.RebuildProgress(); return done >= 10 })
	if err := s.Fail(4); err != nil {
		t.Fatal(err)
	}
	if err := <-rebuilt; err != nil {
		t.Fatal(err)
	}
	if done, total := s.RebuildProgress(); done != total {
		t.Fatalf("rebuild progress %d/%d after the rebuild beside a second failure", done, total)
	}
	if got := s.FailedDisks(); len(got) != 1 || got[0] != 4 {
		t.Fatalf("failed disks %v after disk 1's rebuild, want [4]", got)
	}
	for n := int64(0); n < s.DataUnits(); n++ {
		verifyUnit(t, s, n, 1)
	}
}
