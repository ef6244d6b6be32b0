package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Every unit stored on a backend carries an 8-byte trailer after its data:
//
//	bytes [us, us+4):   crc32c(data), little-endian
//	bytes [us+4, us+8): crc32c(data) XOR offMix(offset), little-endian
//
// The first word detects corruption of the data (torn writes, bit rot,
// firmware lies); the second additionally detects misdirected writes — a
// unit's bytes landing at the wrong offset verifies against the first word
// but not the second. CRC32-C is hardware-accelerated by the standard
// library on amd64 and arm64, which is what keeps verification cheap
// enough for the hot path.
//
// A unit whose data and trailer are entirely zero is valid and reads as
// zeroes: fresh backends (zeroed memory, sparse files) must be readable
// before their first write, and crc32c of a zero block is nonzero, so the
// convention is unambiguous — any legitimately written unit, including an
// all-zero one, carries a nonzero trailer.

// trailerLen is the per-unit checksum trailer size in bytes: two 32-bit
// words. With the unit size a multiple of 8 (New's rule), a physical unit
// is a multiple of 8 too, so units laid back to back on a backend each
// start on an 8-byte boundary.
const trailerLen = 8

// PhysUnitSize returns the on-backend size of one unit for a store with
// the given data unit size: the data plus its checksum trailer. Custom
// Disk implementations must store units of this physical size.
func PhysUnitSize(unitSize int) int { return unitSize + trailerLen }

var crcTab = crc32.MakeTable(crc32.Castagnoli)

// offMix hashes a unit offset into the trailer's second word so that a
// write landing at the wrong offset fails verification.
func offMix(off int64) uint32 {
	x := uint64(off)*0x9e3779b97f4a7c15 + 1
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return uint32(x)
}

// stampTrailer computes and writes the trailer for phys[:us] stored at
// offset off. phys has length us+trailerLen.
func stampTrailer(phys []byte, us int, off int64) {
	sum := crc32.Checksum(phys[:us], crcTab)
	binary.LittleEndian.PutUint32(phys[us:], sum)
	binary.LittleEndian.PutUint32(phys[us+4:], sum^offMix(off))
}

// verifyTrailer reports whether phys is a valid unit for offset off:
// either the trailer matches the data, or the whole physical unit is zero
// (a never-written unit, which reads as zero data).
func verifyTrailer(phys []byte, us int, off int64) bool {
	sum := crc32.Checksum(phys[:us], crcTab)
	c1 := binary.LittleEndian.Uint32(phys[us:])
	c2 := binary.LittleEndian.Uint32(phys[us+4:])
	if sum == c1 && c2 == c1^offMix(off) {
		return true
	}
	return c1 == 0 && c2 == 0 && allZero(phys[:us])
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
