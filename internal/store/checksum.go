package store

import (
	"encoding/binary"
	"fmt"

	"declust/internal/crc32c"
)

// Every unit stored on a backend carries an 8-byte trailer after its data:
//
//	bytes [us, us+4):   crc32c(data), little-endian
//	bytes [us+4, us+8): crc32c(data) XOR offMix(offset), little-endian
//
// The first word detects corruption of the data (torn writes, bit rot,
// firmware lies); the second additionally detects misdirected writes — a
// unit's bytes landing at the wrong offset verifies against the first word
// but not the second. CRC32-C comes from internal/crc32c, which folds a
// unit with carry-less multiplies where the CPU has AVX-512 and VPCLMULQDQ
// and hands everything else to the standard library's hardware CRC32 path;
// that is what keeps verification cheap enough for the hot path.
//
// A unit whose data and trailer are entirely zero is valid and reads as
// zeroes: fresh backends (zeroed memory, sparse files) must be readable
// before their first write, and crc32c of a zero block is nonzero, so the
// convention is unambiguous — any legitimately written unit, including an
// all-zero one, carries a nonzero trailer.

// A lost unit — a data unit of a stripe found past its erasure budget
// (loseStripe) — is written as its poison block: a fixed, nonzero
// function of its logical unit number, stored as ordinary data with an
// ordinary trailer. A read that returns a unit's poison block reports
// ErrUnrecoverable, and a write of one is refused, so the marker reads
// back only where a loss put it. Because it is data, not a trailer value,
// it needs no format of its own and survives every path data takes:
// folded into parity, decoded by a degraded read or a rebuild, undone with
// a failed rebuild.

// poisonWord is word i of logical unit n's poison block, never zero.
func poisonWord(n int64, i int) uint64 {
	x := uint64(n)*0x9e3779b97f4a7c15 ^ uint64(i)*0xc2b2ae3d27d4eb4f
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	return x | 1
}

// poisonBlock fills b, one unit, with logical unit n's poison block.
func poisonBlock(n int64, b []byte) {
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], poisonWord(n, i/8))
	}
}

// isPoisonBlock reports whether b, one unit, is logical unit n's poison
// block: its first word settles it for nearly every unit, and only a match
// compares the rest.
func isPoisonBlock(n int64, b []byte) bool {
	for i := 0; i < len(b); i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != poisonWord(n, i/8) {
			return false
		}
	}
	return true
}

// trailerLen is the per-unit checksum trailer size in bytes: two 32-bit
// words. With the unit size a multiple of 8 (New's rule), a physical unit
// is a multiple of 8 too, so units laid back to back on a backend each
// start on an 8-byte boundary.
const trailerLen = 8

// PhysUnitSize returns the on-backend size of one unit for a store with
// the given data unit size: the data plus its checksum trailer. Custom
// Disk implementations must store units of this physical size.
func PhysUnitSize(unitSize int) int { return unitSize + trailerLen }

// offMix hashes a unit offset into the trailer's second word so that a
// write landing at the wrong offset fails verification.
func offMix(off int64) uint32 {
	x := uint64(off)*0x9e3779b97f4a7c15 + 1
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return uint32(x)
}

// dataSum is the crc32c of one unit's data: the trailer's first word.
func dataSum(data []byte) uint32 { return crc32c.Checksum(data) }

// stampTrailer computes and writes the trailer for phys[:us] stored at
// offset off. phys has length us+trailerLen.
func stampTrailer(phys []byte, us int, off int64) {
	putTrailer(phys, us, off, dataSum(phys[:us]))
}

// putTrailer writes the trailer for phys[:us] stored at offset off from
// sum, the data's crc32c, known already: the new contents' of a written
// unit, computed once, or P's, derived by xorSum.
func putTrailer(phys []byte, us int, off int64, sum uint32) {
	binary.LittleEndian.PutUint32(phys[us:], sum)
	binary.LittleEndian.PutUint32(phys[us+4:], sum^offMix(off))
}

// verifyTrailer reports whether phys is a valid unit for offset off:
// either the trailer matches the data, or the whole physical unit is zero
// (a never-written unit, which reads as zero data). It returns the crc32c
// of phys[:us] it computed to decide, which is the data's whatever the
// trailer says — for a never-written unit the zero unit's, not the zero
// trailer word.
func verifyTrailer(phys []byte, us int, off int64) (uint32, bool) {
	sum := dataSum(phys[:us])
	c1 := binary.LittleEndian.Uint32(phys[us:])
	c2 := binary.LittleEndian.Uint32(phys[us+4:])
	if sum == c1 && c2 == c1^offMix(off) {
		return sum, true
	}
	return sum, c1 == 0 && c2 == 0 && allZero(phys[:us])
}

// xorSum derives the crc32c of the XOR of n units of one length from x, the
// XOR of the units' own crc32c's, and zero, the crc32c of the zero unit of
// that length. crc32c is affine over XOR: crc(a ⊕ b) = crc(a) ⊕ crc(b) ⊕
// crc(0), its pre- and post-conditioning being the part that does not
// depend on the data. Over n units that part cancels in pairs, so the
// zero unit's crc32c remains in the sum exactly when n is even — n = 0
// included, the XOR of no units being the zero unit.
func xorSum(x uint32, n int, zero uint32) uint32 {
	if n%2 == 0 {
		x ^= zero
	}
	return x
}

// badSumError reports a unit whose trailer failed verification; the heal
// path (reconstruct from survivors, rewrite) consumes it via errors.As.
type badSumError struct {
	disk int
	off  int64
}

func (e *badSumError) Error() string {
	return fmt.Sprintf("store: checksum mismatch on disk %d unit %d", e.disk, e.off)
}
