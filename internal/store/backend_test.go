package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestChecksumTrailerRoundTrip(t *testing.T) {
	const us = 64
	phys := make([]byte, PhysUnitSize(us))
	fill(phys[:us], 9, 1)
	stampTrailer(phys, us, 17)
	if _, ok := verifyTrailer(phys, us, 17); !ok {
		t.Fatal("freshly stamped unit fails verification")
	}
	phys[3] ^= 0x40
	if _, ok := verifyTrailer(phys, us, 17); ok {
		t.Fatal("bit flip in data not detected")
	}
	phys[3] ^= 0x40
	if _, ok := verifyTrailer(phys, us, 17); !ok {
		t.Fatal("restored unit fails verification")
	}
	if _, ok := verifyTrailer(phys, us, 18); ok {
		t.Fatal("misdirected unit (wrong offset) not detected")
	}
	phys[us] ^= 1 // trailer corruption
	if _, ok := verifyTrailer(phys, us, 17); ok {
		t.Fatal("trailer corruption not detected")
	}
}

func TestChecksumZeroUnitReadsAsValid(t *testing.T) {
	const us = 64
	phys := make([]byte, PhysUnitSize(us))
	if _, ok := verifyTrailer(phys, us, 5); !ok {
		t.Fatal("all-zero physical unit (fresh backend) must verify as zeroes")
	}
}

// TestMemDiskBoundsMessages pins the one bounds check both backends
// share: the same message for an offset out of range and a buffer that is
// not one physical unit.
func TestMemDiskBoundsMessages(t *testing.T) {
	fd, err := OpenFileDisk(filepath.Join(t.TempDir(), "d.dat"), 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	for _, tc := range []struct {
		name string
		d    Disk
	}{{"mem", NewMemDisk(4, 64)}, {"file", fd}} {
		buf := make([]byte, PhysUnitSize(64))
		if err := tc.d.ReadUnit(4, buf); err == nil || err.Error() != "store: unit offset 4 out of range [0,4)" {
			t.Errorf("%s: out-of-range read: %v", tc.name, err)
		}
		if err := tc.d.WriteUnit(0, buf[:64]); err == nil || err.Error() != "store: buffer is 64 bytes, physical unit size is 72" {
			t.Errorf("%s: short-buffer write: %v", tc.name, err)
		}
	}
}

func TestDeadDiskFailsLoudly(t *testing.T) {
	var d deadDisk
	if err := d.ReadUnit(0, nil); !errors.Is(err, ErrDiskFailed) {
		t.Fatalf("deadDisk read: %v", err)
	}
	if err := d.WriteUnit(0, nil); !errors.Is(err, ErrDiskFailed) {
		t.Fatalf("deadDisk write: %v", err)
	}
}

// TestDiskFailedNeverEscapes drives every healthy-path operation on a
// degraded store: ErrDiskFailed marks I/O mistakenly routed to a failed
// slot, so seeing it from a Store method is an engine bug.
func TestDiskFailedNeverEscapes(t *testing.T) {
	s := newTestStore(t, 7, 3, 64, 512)
	fillAll(t, s, 1)
	if err := s.Fail(2); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, s.UnitSize())
	for n := int64(0); n < s.DataUnits(); n++ {
		if err := s.ReadUnit(n, buf); err != nil {
			t.Fatalf("degraded ReadUnit(%d): %v", n, err)
		}
		fill(buf, n, 2)
		if err := s.WriteUnit(n, buf); err != nil {
			t.Fatalf("degraded WriteUnit(%d): %v", n, err)
		}
	}
	rng := make([]byte, 4*s.UnitSize())
	if err := s.ReadRange(0, rng); err != nil {
		t.Fatalf("degraded ReadRange: %v", err)
	}
	if _, err := s.Scrub(); err != nil {
		t.Fatalf("degraded Scrub: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("degraded Sync: %v", err)
	}
}

func TestFileDiskSuperblockValidation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.dat")
	d, err := OpenFileDisk(path, 16, 512)
	if err != nil {
		t.Fatal(err)
	}
	phys := make([]byte, PhysUnitSize(512))
	fill(phys[:512], 0, 1)
	stampTrailer(phys, 512, 3)
	if err := d.WriteUnit(3, phys); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		units int64
		us    int
		want  string
	}{
		{"unit size mismatch", 16, 4096, "formatted with 512-byte units"},
		{"unit count mismatch", 99, 512, "formatted for 16 units"},
	}
	for _, tc := range cases {
		if _, err := OpenFileDisk(path, tc.units, tc.us); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: got %v, want mention of %q", tc.name, err, tc.want)
		}
	}

	// Matching reopen must see the bytes back.
	d, err = OpenFileDisk(path, 16, 512)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PhysUnitSize(512))
	if err := d.ReadUnit(3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, phys) {
		t.Fatal("reopened disk lost its contents")
	}
	d.Close()

	// Corrupt the superblock checksum: refuse descriptively.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, 20); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := OpenFileDisk(path, 16, 512); err == nil || !strings.Contains(err.Error(), "corrupt superblock") {
		t.Fatalf("corrupt superblock: %v", err)
	}

	// Not a store file at all.
	alien := filepath.Join(dir, "alien.dat")
	if err := os.WriteFile(alien, bytes.Repeat([]byte{'x'}, 2048), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileDisk(alien, 16, 512); err == nil || !strings.Contains(err.Error(), "bad superblock magic") {
		t.Fatalf("alien file: %v", err)
	}

	// Too short to even hold a superblock.
	stub := filepath.Join(dir, "stub.dat")
	if err := os.WriteFile(stub, []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileDisk(stub, 16, 512); err == nil || !strings.Contains(err.Error(), "too short") {
		t.Fatalf("stub file: %v", err)
	}
}

// TestOpenFileDisksPartialOpenCleanup plants a failure at the third disk
// and checks both the error and that the first two file handles were
// released (no descriptor leak).
func TestOpenFileDisksPartialOpenCleanup(t *testing.T) {
	dir := t.TempDir()
	// disk0002.dat exists with the wrong geometry, so the batch open fails
	// after two successful opens.
	bad, err := OpenFileDisk(filepath.Join(dir, "disk0002.dat"), 8, 256)
	if err != nil {
		t.Fatal(err)
	}
	bad.Close()

	before := countFDs(t)
	if _, err := OpenFileDisks(dir, 5, 16, 512); err == nil {
		t.Fatal("OpenFileDisks succeeded over a mismatched disk file")
	}
	after := countFDs(t)
	if after > before {
		t.Fatalf("descriptor leak: %d open before, %d after failed batch open", before, after)
	}
}

func countFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// embedded is a wrapper that only embeds a Disk: each method it has comes
// from the Disk inside.
type embedded struct{ Disk }

func TestNewValidatesSuppliedGeometry(t *testing.T) {
	lay := testLayout(t, 7, 3)
	disks := make([]Disk, 7)
	for i := range disks {
		disks[i] = NewMemDisk(64, 512)
	}
	disks[4] = NewMemDisk(64, 4096) // wrong unit size
	if _, err := New(Config{Layout: lay, UnitsPerDisk: 64, UnitSize: 512, Disks: disks}); err == nil ||
		!strings.Contains(err.Error(), "disk 4") {
		t.Fatalf("mismatched unit size accepted: %v", err)
	}
	disks[4] = NewMemDisk(2, 512) // too small
	if _, err := New(Config{Layout: lay, UnitsPerDisk: 64, UnitSize: 512, Disks: disks}); err == nil ||
		!strings.Contains(err.Error(), "disk 4") {
		t.Fatalf("undersized disk accepted: %v", err)
	}
	disks[4] = embedded{NewMemDisk(2, 512)} // too small, behind a wrapper
	if _, err := New(Config{Layout: lay, UnitsPerDisk: 64, UnitSize: 512, Disks: disks}); err == nil ||
		!strings.Contains(err.Error(), "disk 4") {
		t.Fatalf("undersized disk behind a wrapper accepted: %v", err)
	}
	disks[4] = &scriptedDisk{under: NewMemDisk(2, 512), slot: 4} // too small, behind the test double
	if _, err := New(Config{Layout: lay, UnitsPerDisk: 64, UnitSize: 512, Disks: disks}); err == nil ||
		!strings.Contains(err.Error(), "disk 4") {
		t.Fatalf("undersized disk behind a pass-through hook accepted: %v", err)
	}
	// Rebuild validates replacements the same way.
	s := newTestStore(t, 7, 3, 64, 512)
	if err := s.Fail(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(NewMemDisk(2, 512)); err == nil || !strings.Contains(err.Error(), "replacement") {
		t.Fatalf("undersized replacement accepted: %v", err)
	}
}
