package store

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

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

func (fp *failPoints) access(disk int, off int64) error {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	fp.n++
	if fp.n == fp.k {
		fp.armed = true
		fp.dead.disk, fp.dead.off = disk, off
	}
	if fp.armed && fp.dead.disk == disk && fp.dead.off == off {
		return errPlanted
	}
	return nil
}

// pointDisk is a backend whose accesses failPoints numbers. It has the
// three Disk methods and no more, like the backends a user brings.
type pointDisk struct {
	Disk
	id int
	fp *failPoints
}

func (d pointDisk) ReadUnit(off int64, p []byte) error {
	if err := d.fp.access(d.id, off); err != nil {
		return err
	}
	return d.Disk.ReadUnit(off, p)
}

func (d pointDisk) WriteUnit(off int64, p []byte) error {
	if err := d.fp.access(d.id, off); err != nil {
		return err
	}
	return d.Disk.WriteUnit(off, p)
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
						return pointDisk{Disk: NewMemDisk(units, unitSize), id: next, fp: fp}
					}
					disks := make([]Disk, code.lay.Disks())
					for i := range disks {
						disks[i] = pointDisk{Disk: NewMemDisk(units, unitSize), id: i, fp: fp}
					}
					fp.arm(0)
					s, err := New(Config{Layout: code.lay, UnitsPerDisk: units, UnitSize: unitSize,
						Disks: disks, IOWorkers: ioWorkers, RebuildWorkers: ioWorkers})
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

// closeCounter records Close calls on a backend.
type closeCounter struct {
	Disk
	closed *int
}

func (d closeCounter) Close() error {
	*d.closed++
	return d.Disk.Close()
}

// TestFailedRebuildLeavesStoreDegraded: a replacement that dies mid-sweep
// fails the Rebuild and is discarded — the store is Degraded again, takes a
// fresh replacement, and still closes the dead one exactly once.
func TestFailedRebuildLeavesStoreDegraded(t *testing.T) {
	s := newTestStore(t, 7, 4, 48, 512)
	fillAll(t, s, 1)
	if err := s.Fail(2); err != nil {
		t.Fatal(err)
	}
	closed := 0
	dying := closeCounter{
		Disk:   failAtDisk{Disk: NewMemDisk(48, 512), writes: map[int64]bool{10: true}},
		closed: &closed,
	}
	if err := s.Rebuild(dying); !errors.Is(err, errPlanted) {
		t.Fatalf("Rebuild onto a dying replacement = %v, want the planted failure", err)
	}
	if m := s.Mode(); m != Degraded {
		t.Fatalf("mode %v after the failed rebuild, want %v", m, Degraded)
	}
	if err := s.Rebuild(NewMemDisk(48, 512)); err != nil {
		t.Fatalf("Rebuild onto a fresh disk: %v", err)
	}
	for n := int64(0); n < s.DataUnits(); n++ {
		verifyUnit(t, s, n, 1)
	}
	if err := s.CheckParity(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if closed != 1 {
		t.Fatalf("the discarded replacement was closed %d times, want 1", closed)
	}
}

// TestFaultDiskOverBareBackend: a FaultDisk reports the geometry of the
// backend under it, and one with none to report is as acceptable wrapped as
// it is bare — to New and as a replacement.
func TestFaultDiskOverBareBackend(t *testing.T) {
	lay := testLayout(t, 5, 3)
	bare := func() Disk { return struct{ Disk }{NewMemDisk(24, 512)} } // ReadUnit, WriteUnit, Close
	disks := make([]Disk, lay.Disks())
	for i := range disks {
		disks[i] = NewFaultDisk(bare(), FaultConfig{Seed: int64(i)})
	}
	s, err := New(Config{Layout: lay, UnitsPerDisk: 24, UnitSize: 512, Disks: disks})
	if err != nil {
		t.Fatalf("New over FaultDisks on geometry-less backends: %v", err)
	}
	defer s.Close()
	fillAll(t, s, 2)
	if err := s.Fail(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(NewFaultDisk(bare(), FaultConfig{})); err != nil {
		t.Fatalf("Rebuild onto a FaultDisk on a geometry-less backend: %v", err)
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
	// A backend that does report a geometry is still held to it.
	if err := checkGeometry(NewFaultDisk(NewMemDisk(24, 256), FaultConfig{}), 24, 512); err == nil {
		t.Error("a FaultDisk over 256-byte units accepted by a 512-byte store")
	}
}
