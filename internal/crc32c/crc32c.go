// Package crc32c computes the Castagnoli CRC-32 (crc32c), the checksum
// every unit, superblock and intent-log header of the storage engine
// carries. It computes the same function as hash/crc32 with
// crc32.MakeTable(crc32.Castagnoli); it is faster where the CPU can fold
// wide: on amd64 with AVX-512 and VPCLMULQDQ, an input of at least 256
// bytes has its whole 16-byte blocks folded with carry-less multiplies,
// 256 bytes per iteration into four 512-bit accumulators, and reduced to
// 32 bits by Barrett reduction (kernel_amd64.s; Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ Instruction", Intel
// 2009). Shorter inputs, the last few bytes of a longer one, other CPUs,
// other platforms and the purego build tag go to hash/crc32, which is the
// reference the tests hold the assembly to.
package crc32c

import "hash/crc32"

var table = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the crc32c of p.
func Checksum(p []byte) uint32 { return Update(0, p) }

// Update returns the checksum of the bytes crc is the checksum of followed
// by p, as crc32.Update computes it.
func Update(crc uint32, p []byte) uint32 { return update(crc, p) }
