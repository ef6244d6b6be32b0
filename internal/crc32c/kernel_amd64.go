//go:build amd64 && !purego

package crc32c

import "hash/crc32"

// hasVPCLMUL is read once: the CPU has PCLMULQDQ, AVX512F and VPCLMULQDQ,
// and the OS saves the ZMM state.
var hasVPCLMUL = cpuHasVPCLMUL()

func cpuHasVPCLMUL() bool

// updateAVX512 is the body in kernel_amd64.s. crc is the running checksum
// inverted (the register hash/crc32 keeps between calls, before its final
// complement); n is at least 256 and a multiple of 16. It returns the
// register after n bytes, still inverted.
//
//go:noescape
func updateAVX512(crc uint32, p *byte, n int) uint32

// update hands every whole 16-byte block of an input of at least 256 bytes
// to the body, where the CPU has it, and the rest to hash/crc32.
func update(crc uint32, p []byte) uint32 {
	if hasVPCLMUL && len(p) >= 256 {
		n := len(p) &^ 15
		crc = ^updateAVX512(^crc, &p[0], n)
		if p = p[n:]; len(p) == 0 {
			return crc
		}
	}
	return crc32.Update(crc, table, p)
}
