package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// The three parsers that read bytes this process did not write — a disk
// file's superblock, the intent-log file, a unit's checksum trailer — each
// against an oracle the test computes for itself. `make fuzz` finds and
// runs every Fuzz target in the module; seeds are the cases of the table
// tests in backend_test.go.

// fold maps any int64 into [1, n], leaving values already there alone (so
// the seeds mean what they say): geometries and region counts come from the
// store, not from the file, and are never zero, negative or huge.
func fold(v, n int64) int64 {
	if v >= 1 && v <= n {
		return v
	}
	return 1 + (v&0x7fffffffffffffff)%n
}

// FuzzSuperblock: OpenFileDisk over a file holding arbitrary bytes never
// panics, and opens it only if the file is empty (it is formatted) or
// starts with exactly the header this engine writes for the geometry asked
// for — never a file formatted for another one.
func FuzzSuperblock(f *testing.F) {
	good := encodeSuperblock(16, 512)
	badSum := bytes.Clone(good)
	badSum[20] = 0xFF
	f.Add(good, int64(16), 512)
	f.Add(good, int64(16), 4096) // unit size mismatch
	f.Add(good, int64(99), 512)  // unit count mismatch
	f.Add(badSum, int64(16), 512)
	f.Add(bytes.Repeat([]byte{'x'}, 2048), int64(16), 512) // not a store file
	f.Add([]byte("hi"), int64(16), 512)                    // too short for a superblock
	f.Add([]byte{}, int64(16), 512)                        // fresh file
	path := filepath.Join(f.TempDir(), "d.dat")            // one per worker process, rewritten each time
	f.Fuzz(func(t *testing.T, file []byte, units int64, unitSize int) {
		units = fold(units, 128) // an accepted file is extended to full size
		unitSize = int(fold(int64(unitSize), 1024))
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		want := len(file) == 0 ||
			len(file) >= superblockLen && bytes.Equal(file[:28], encodeSuperblock(units, unitSize)[:28])
		d, err := OpenFileDisk(path, units, unitSize)
		if err == nil {
			defer d.Close()
		}
		if (err == nil) != want {
			t.Fatalf("OpenFileDisk(%d units x %d B) over %d bytes (head %x): err %v, want accepted = %v",
				units, unitSize, len(file), file[:min(len(file), 28)], err, want)
		}
		if err != nil {
			return
		}
		if u, us := d.(sizedDisk).Geometry(); u != units || us != unitSize {
			t.Fatalf("opened as %d x %d, asked for %d x %d", u, us, units, unitSize)
		}
		// Whatever followed the header, every unit is addressable.
		phys := make([]byte, PhysUnitSize(unitSize))
		if err := d.ReadUnit(units-1, phys); err != nil {
			t.Fatalf("last unit of an accepted file: %v", err)
		}
	})
}

// intentFile is an intent-log file as this engine writes it.
func intentFile(regions int64, dirty ...int64) []byte {
	b := make([]byte, intentHeaderLen+regions)
	copy(b, intentMagic[:])
	binary.LittleEndian.PutUint64(b[8:], uint64(regions))
	binary.LittleEndian.PutUint32(b[16:], crc32.Checksum(b[:16], crcTab))
	for _, r := range dirty {
		b[intentHeaderLen+r] = 1
	}
	return b
}

// FuzzIntentLog: fileIntent.Init over a file holding arbitrary bytes
// never panics and returns either an error or a strictly ascending list of
// regions inside [0, regions) — exactly the nonzero bytes of the bitmap —
// and only for a file whose header is the one written for that count.
func FuzzIntentLog(f *testing.F) {
	badMagic := intentFile(4)
	badMagic[0] ^= 1
	badSum := intentFile(4)
	badSum[17] ^= 1
	f.Add(intentFile(4, 1, 3), int64(4))
	f.Add(intentFile(4, 1, 3), int64(5)) // geometry changed
	f.Add(intentFile(4)[:intentHeaderLen+2], int64(4))
	f.Add(intentFile(300, 0, 255, 299), int64(300))
	f.Add(badMagic, int64(4))
	f.Add(badSum, int64(4))
	f.Add([]byte("short"), int64(4))
	f.Add([]byte{}, int64(4))
	path := filepath.Join(f.TempDir(), "intent.log")
	f.Fuzz(func(t *testing.T, file []byte, regions int64) {
		regions = fold(regions, 4096)
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		l := OpenFileIntent(path)
		defer l.Close()
		dirty, err := l.Init(regions)
		want := len(file) == 0 ||
			int64(len(file)) >= intentHeaderLen+regions && bytes.Equal(file[:20], intentFile(regions)[:20])
		if (err == nil) != want {
			t.Fatalf("Init(%d) over %d bytes (head %x): err %v, want accepted = %v",
				regions, len(file), file[:min(len(file), 20)], err, want)
		}
		if err != nil {
			return
		}
		var wantDirty []int64
		if len(file) > 0 {
			for r, b := range file[intentHeaderLen : intentHeaderLen+regions] {
				if b != 0 {
					wantDirty = append(wantDirty, int64(r))
				}
			}
		}
		if !slices.Equal(dirty, wantDirty) {
			t.Fatalf("Init(%d) reported %v dirty, bitmap says %v", regions, dirty, wantDirty)
		}
		// An accepted log takes a mark and a clear for its last region.
		if err := l.MarkBatch([]int64{regions - 1}); err != nil {
			t.Fatal(err)
		}
		if err := l.ClearBatch([]int64{regions - 1}); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzTrailer: verifyTrailer accepts a physical unit at an offset exactly
// when it is what stampTrailer produces for those data at that offset, or
// is all zero. A stamped unit verifies; any one flipped bit, and any other
// offset (short of a 32-bit collision of offMix), is refused.
func FuzzTrailer(f *testing.F) {
	unit := make([]byte, PhysUnitSize(64))
	fill(unit[:64], 9, 1)
	stampTrailer(unit, 64, 17)
	f.Add(unit, int64(17), int64(18), uint(3*8+6)) // the round-trip table test
	f.Add(unit, int64(18), int64(17), uint(64*8))  // misdirected; trailer bit
	f.Add(make([]byte, PhysUnitSize(64)), int64(5), int64(6), uint(0))
	f.Add(make([]byte, trailerLen+1), int64(0), int64(-1), uint(8))
	f.Add(append(make([]byte, 12), 1, 0, 0, 0, 0, 0, 0, 0, 0), int64(0), int64(1), uint(0)) // zero but for a byte past the last whole word
	f.Fuzz(func(t *testing.T, phys []byte, off, other int64, bit uint) {
		if len(phys) <= trailerLen {
			return
		}
		us := len(phys) - trailerLen
		stamped := bytes.Clone(phys)
		stampTrailer(stamped, us, off)
		// The oracle compares bytes: allZero, which verifyTrailer uses, goes
		// a word at a time and is on trial here too, at every length.
		zero := func(b []byte) bool { return bytes.Equal(b, make([]byte, len(b))) }
		want := bytes.Equal(phys, stamped) || zero(phys)
		if got := verifyTrailer(phys, us, off); got != want {
			t.Fatalf("verifyTrailer(%x, off %d) = %v, want %v", phys, off, got, want)
		}

		if !verifyTrailer(stamped, us, off) {
			t.Fatalf("a freshly stamped unit is refused: %x at %d", stamped, off)
		}
		if offMix(other) != offMix(off) && verifyTrailer(stamped, us, other) {
			t.Fatalf("a unit stamped for offset %d is accepted at %d", off, other)
		}
		bit %= uint(len(stamped)) * 8
		stamped[bit/8] ^= 1 << (bit % 8)
		if !zero(stamped) && verifyTrailer(stamped, us, off) {
			t.Fatalf("bit %d flipped and the unit still verifies: %x at %d", bit, stamped, off)
		}
	})
}
