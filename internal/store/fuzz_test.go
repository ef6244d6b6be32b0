package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"declust/internal/gf256"
)

// The three parsers that read bytes this process did not write — a disk
// file's superblock, the intent-log file, a unit's checksum trailer — the
// derivation of a parity's trailer from its terms', and the two-erasure
// decode, each against an oracle the test computes for itself. `make fuzz` finds and runs every Fuzz target in the module; the
// parsers' seeds are the cases of the table tests in backend_test.go.

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
		if u, us := d.Geometry(); u != units || us != unitSize {
			t.Fatalf("opened as %d x %d, asked for %d x %d", u, us, units, unitSize)
		}
		// Whatever followed the header, every unit is addressable.
		phys := make([]byte, PhysUnitSize(unitSize))
		if err := d.ReadUnit(units-1, phys); err != nil {
			t.Fatalf("last unit of an accepted file: %v", err)
		}
	})
}

// castagnoli is the oracles' crc32c: the on-disk words these targets
// expect come from hash/crc32, not from internal/crc32c, which the store
// computes them with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// intentFile is an intent-log file as this engine writes it.
func intentFile(regions int64, dirty ...int64) []byte {
	b := make([]byte, intentHeaderLen+regions)
	copy(b, intentMagic[:])
	binary.LittleEndian.PutUint64(b[8:], uint64(regions))
	binary.LittleEndian.PutUint32(b[16:], crc32.Checksum(b[:16], castagnoli))
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

// FuzzTrailer: stampTrailer's first word is the data's crc32c as
// hash/crc32 computes it, and verifyTrailer accepts a physical unit at an
// offset exactly when it is what stampTrailer produces for those data at
// that offset, or is all zero. A stamped unit verifies; any one flipped bit, and any other
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
		if got, want := binary.LittleEndian.Uint32(stamped[us:]), crc32.Checksum(phys[:us], castagnoli); got != want {
			t.Fatalf("stamped %d B with crc32c %08x, want %08x", us, got, want)
		}
		// The oracle compares bytes: allZero, which verifyTrailer uses, goes
		// a word at a time and is on trial here too, at every length.
		zero := func(b []byte) bool { return bytes.Equal(b, make([]byte, len(b))) }
		want := bytes.Equal(phys, stamped) || zero(phys)
		if _, got := verifyTrailer(phys, us, off); got != want {
			t.Fatalf("verifyTrailer(%x, off %d) = %v, want %v", phys, off, got, want)
		}

		if _, ok := verifyTrailer(stamped, us, off); !ok {
			t.Fatalf("a freshly stamped unit is refused: %x at %d", stamped, off)
		}
		if _, ok := verifyTrailer(stamped, us, other); ok && offMix(other) != offMix(off) {
			t.Fatalf("a unit stamped for offset %d is accepted at %d", off, other)
		}
		bit %= uint(len(stamped)) * 8
		stamped[bit/8] ^= 1 << (bit % 8)
		if _, ok := verifyTrailer(stamped, us, off); ok && !zero(stamped) {
			t.Fatalf("bit %d flipped and the unit still verifies: %x at %d", bit, stamped, off)
		}
	})
}

// FuzzTrailerSum: the crc32c of the XOR of 1–5 units of one length, derived
// by xorSum from the crc32c verifyTrailer computes of each unit, is the
// crc32c of that XOR computed outright, and a unit stamped with it
// verifies. The units are cut from the input; the bits of zeros force some
// of them all-zero and never written — a zero trailer, for which
// verifyTrailer returns the zero unit's crc32c, not the trailer's word. The
// seeds cover unit sizes 40, 64 and 4096 with odd and even counts: an even
// count is where the zero unit's crc32c joins the sum.
func FuzzTrailerSum(f *testing.F) {
	for _, us := range []int{40, 64, 4096} {
		for n := 1; n <= 5; n++ {
			in := make([]byte, n*us)
			fill(in, int64(us), uint64(n))
			f.Add(in, uint8(n-1), uint8(0))
			f.Add(in, uint8(n-1), uint8(0b10))
		}
	}
	f.Fuzz(func(t *testing.T, in []byte, count, zeros uint8) {
		n := 1 + int(count)%5
		us := len(in) / n
		if us == 0 {
			return
		}
		xor := make([]byte, us+trailerLen)
		var x uint32
		for i := 0; i < n; i++ {
			phys := make([]byte, PhysUnitSize(us))
			if zeros&(1<<i) == 0 {
				copy(phys, in[i*us:(i+1)*us])
				stampTrailer(phys, us, int64(i))
			}
			sum, ok := verifyTrailer(phys, us, int64(i))
			if !ok {
				t.Fatalf("unit %d of %d (%d B, zeros %b) fails verification", i, n, us, zeros)
			}
			x ^= sum
			for j := range xor[:us] {
				xor[j] ^= phys[j]
			}
		}
		got := xorSum(x, n, dataSum(make([]byte, us)))
		if want := crc32.Checksum(xor[:us], castagnoli); got != want {
			t.Fatalf("%d units of %d B (zeros %b): derived crc32c %08x, computed %08x", n, us, zeros, got, want)
		}
		putTrailer(xor, us, 99, got)
		if _, ok := verifyTrailer(xor, us, 99); !ok {
			t.Fatalf("%d units of %d B (zeros %b): a unit stamped with the derived crc32c fails verification", n, us, zeros)
		}
	})
}

// FuzzDecode: decode turns the two parity sums a gather leaves around any
// two erasures into what a byte-at-a-time solution of the same equations
// gives, solved with nothing but gf256.Mul and ⊕ (a GF product is undone by
// a table of all 256 products). px and qx are the input's two halves, cut to a
// whole number of 8-byte words, zero allowed; branch picks one of decode's
// four patterns and x, y the data ordinals it erases (0 ≤ x < y ≤ 254).
func FuzzDecode(f *testing.F) {
	for _, n := range []int{0, 8, 4096, 4104} {
		sums := make([]byte, 2*n)
		fill(sums, int64(n), 3)
		for branch := range 4 {
			f.Add(sums, uint8(branch), uint8(2), uint8(5))
		}
	}
	f.Fuzz(func(t *testing.T, sums []byte, branch, x, y uint8) {
		n := len(sums) / 2 &^ 7
		px, qx := bytes.Clone(sums[:n]), bytes.Clone(sums[n:2*n])
		dx := int(x) % 254
		dy := dx + 1 + int(y)%(254-dx)
		gx, gy := gf256.Exp(dx), gf256.Exp(dy)
		// over(c) divides by c: over(c)[gf256.Mul(c, v)] == v.
		over := func(c byte) (t [256]byte) {
			for v := range 256 {
				t[gf256.Mul(c, byte(v))] = byte(v)
			}
			return t
		}
		// solve is one byte of the pattern's answer: the P sum a (the
		// surviving data, and the stored P unless erased) and the Q sum b
		// give the first and the second erased unit, in role order.
		var roles [2]int
		var solve func(a, b byte) (byte, byte)
		switch branch % 4 {
		case 0: // P and Q: both sums are the answers
			roles = [2]int{roleP, roleQ}
			solve = func(a, b byte) (byte, byte) { return a, b }
		case 1: // P and x: b = g^x·d_x, and a = P ⊕ d_x
			roles = [2]int{roleP, dx}
			byX := over(gx)
			solve = func(a, b byte) (byte, byte) {
				d := byX[b]
				return a ^ d, d
			}
		case 2: // x and Q: a = d_x, and b = Q ⊕ g^x·d_x
			roles = [2]int{dx, roleQ}
			solve = func(a, b byte) (byte, byte) { return a, b ^ gf256.Mul(gx, a) }
		case 3: // x < y: a = d_x ⊕ d_y and b = g^x·d_x ⊕ g^y·d_y
			roles = [2]int{dx, dy}
			byXY := over(gx ^ gy)
			solve = func(a, b byte) (byte, byte) {
				d := byXY[b^gf256.Mul(gx, a)]
				return a ^ d, d
			}
		}
		want0, want1 := make([]byte, n), make([]byte, n)
		for i := range n {
			want0[i], want1[i] = solve(px[i], qx[i])
		}
		decode([]erasure{{role: roles[0]}, {role: roles[1]}}, px, qx)
		for i := range n {
			if px[i] != want0[i] || qx[i] != want1[i] {
				t.Fatalf("decode of roles %v over %d-byte sums: byte %d is (%#02x, %#02x), want (%#02x, %#02x)",
					roles, n, i, px[i], qx[i], want0[i], want1[i])
			}
		}
	})
}
