//go:build amd64 && !purego

package crc32c

import (
	"hash/crc32"
	"math/rand"
	"testing"
)

// TestVectorBody runs the assembly body at every length up to 5000 bytes
// and at three alignments, from two running checksums: on a CPU with the
// features, update hands the body an input's whole 16-byte blocks when
// there are at least 256 bytes of them and hash/crc32 the rest, and the
// result must be crc32.Update's. The bytes after the input differ from run
// to run of the loop, so a body that read past its n would be caught. The all-zero unit, whose checksum the
// store's P trailers are derived from, is checked on its own.
func TestVectorBody(t *testing.T) {
	if !hasVPCLMUL {
		t.Skip("the CPU lacks AVX-512F or VPCLMULQDQ, or the OS does not save the ZMM state: no vector body to test")
	}
	buf := make([]byte, 5000+7+64)
	rng := rand.New(rand.NewSource(4))
	rng.Read(buf)
	for _, off := range []int{0, 1, 7} {
		for n := 0; n <= 5000; n++ {
			p := buf[off : off+n]
			rng.Read(buf[off+n:])
			for _, crc := range []uint32{0, 0xdeadbeef} {
				want := crc32.Update(crc, castagnoli, p)
				if got := update(crc, p); got != want {
					t.Fatalf("offset %d, %d bytes, crc %08x: update %08x, want %08x", off, n, crc, got, want)
				}
			}
		}
	}
	zero := make([]byte, 4096)
	if got, want := update(0, zero), crc32.Checksum(zero, castagnoli); got != want {
		t.Fatalf("zero unit: update %08x, want %08x", got, want)
	}
}
