//go:build amd64 && !purego

#include "textflag.h"

// func cpuHasVPCLMUL() bool
//
// CPUID.1:ECX says the CPU has PCLMULQDQ (bit 1) and the OS uses XSAVE
// (bit 27); XCR0 bits 1, 2 and 5–7 say the OS saves the XMM, YMM, opmask
// and ZMM state; CPUID.7.0 says the CPU has AVX512F (EBX bit 16) and
// VPCLMULQDQ (ECX bit 10).
TEXT ·cpuHasVPCLMUL(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x08000002, CX
	CMPL CX, $0x08000002
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX
	CMPL AX, $0xe6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $16, BX
	JCC  no
	BTL  $10, CX
	JCC  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// The fold constants, each x^e mod P for the Castagnoli polynomial P =
// 0x11edc6f41, bit-reflected and shifted left by one (the form PCLMULQDQ
// wants for a reflected CRC; TestConstants recomputes every one). A
// 128-bit lane [lo, hi] of reflected data moves D bits towards the end of
// the input as lo·x^(D+32) ⊕ hi·x^(D-32): the low quadword of each pair is
// the x^(D+32) constant, the high one the x^(D-32).

// D = 2048: each of the four accumulators over the 256 bytes after it.
DATA fold2048<>+0(SB)/8, $0xdcb17aa4
DATA fold2048<>+8(SB)/8, $0xb9e02b86
GLOBL fold2048<>(SB), RODATA|NOPTR, $16

// D = 512: one accumulator onto the next.
DATA fold512<>+0(SB)/8, $0x740eef02
DATA fold512<>+8(SB)/8, $0x9e4addf8
GLOBL fold512<>(SB), RODATA|NOPTR, $16

// Lanes 0, 1 and 2 of the last accumulator onto lane 3 (D = 384, 256,
// 128); lane 3's pair is zero. The D = 128 pair also drives the 16-byte
// tail loop and the first step of the final reduction.
DATA foldLanes<>+0(SB)/8, $0x1c291d04
DATA foldLanes<>+8(SB)/8, $0x1d82c63da
DATA foldLanes<>+16(SB)/8, $0x1384aa63a
DATA foldLanes<>+24(SB)/8, $0xba4fc28e
DATA foldLanes<>+32(SB)/8, $0xf20c0dfe
DATA foldLanes<>+40(SB)/8, $0x14cd00bd6
DATA foldLanes<>+48(SB)/8, $0
DATA foldLanes<>+56(SB)/8, $0
GLOBL foldLanes<>(SB), RODATA|NOPTR, $64

// x^64: 96 bits down to 64.
DATA x64<>+0(SB)/8, $0xdd45aab8
GLOBL x64<>(SB), RODATA|NOPTR, $8

// Barrett reduction: P′ (P bit-reflected over 33 bits) and μ′ (x^64 / P,
// likewise).
DATA barrett<>+0(SB)/8, $0x105ec76f1
DATA barrett<>+8(SB)/8, $0xdea713f1
GLOBL barrett<>(SB), RODATA|NOPTR, $16

// FOLD moves acc D bits on (k holds the pair in every lane) and XORs src
// into it: two carry-less multiplies and one three-way XOR per 64 bytes.
#define FOLD(k, acc, tmp, src) \
	VPCLMULQDQ $0x00, k, acc, tmp \
	VPCLMULQDQ $0x11, k, acc, acc \
	VPTERNLOGD $0x96, src, tmp, acc

// func updateAVX512(crc uint32, p *byte, n int) uint32
TEXT ·updateAVX512(SB), NOSPLIT, $0-28
	MOVL crc+0(FP), AX
	MOVQ p+8(FP), SI
	MOVQ n+16(FP), CX

	// The first 256 bytes seed the four accumulators, the running
	// checksum XORed into the first four.
	VMOVD     AX, X4
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VPXORQ    Z4, Z0, Z0
	ADDQ      $256, SI
	SUBQ      $256, CX
	CMPQ      CX, $256
	JB        fold4

	VBROADCASTI32X4 fold2048<>(SB), Z4

loop256:
	FOLD(Z4, Z0, Z5, (SI))
	FOLD(Z4, Z1, Z6, 64(SI))
	FOLD(Z4, Z2, Z7, 128(SI))
	FOLD(Z4, Z3, Z8, 192(SI))
	ADDQ $256, SI
	SUBQ $256, CX
	CMPQ CX, $256
	JAE  loop256

fold4:
	// Four accumulators into one...
	VBROADCASTI32X4 fold512<>(SB), Z4
	FOLD(Z4, Z0, Z5, Z1)
	FOLD(Z4, Z0, Z5, Z2)
	FOLD(Z4, Z0, Z5, Z3)

	// ...and its four lanes into X1.
	VMOVDQU64     foldLanes<>(SB), Z4
	VPCLMULQDQ    $0x00, Z4, Z0, Z5
	VPCLMULQDQ    $0x11, Z4, Z0, Z6
	VPXORQ        Z6, Z5, Z5
	VEXTRACTI32X4 $3, Z0, X1
	VEXTRACTI32X4 $1, Z5, X6
	VEXTRACTI32X4 $2, Z5, X7
	VPXOR         X5, X1, X1
	VPXOR         X6, X1, X1
	VPXOR         X7, X1, X1
	VZEROUPPER

	// Whatever whole 16-byte blocks the 256-byte loop left.
	MOVOU foldLanes<>+32(SB), X0
	CMPQ  CX, $16
	JB    finish

tail16:
	MOVOU     (SI), X2
	MOVOA     X1, X5
	PCLMULQDQ $0x00, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X2, X1
	ADDQ      $16, SI
	SUBQ      $16, CX
	CMPQ      CX, $16
	JAE       tail16

	// 128 bits to 32, as ieeeCLMUL in hash/crc32 ends: fold the low
	// quadword onto the high one (x^96), the low 32 bits of that onto the
	// rest (x^64), then Barrett-reduce the remaining 64 bits.
finish:
	PCMPEQB   X3, X3
	PCLMULQDQ $1, X1, X0
	PSRLDQ    $8, X1
	PXOR      X0, X1

	MOVOA  X1, X2
	MOVQ   x64<>(SB), X0
	PSRLQ  $32, X3
	PSRLDQ $4, X2
	PAND   X3, X1
	PCLMULQDQ $0, X0, X1
	PXOR   X2, X1

	MOVOU     barrett<>(SB), X0
	MOVOA     X1, X2
	PAND      X3, X1
	PCLMULQDQ $0x10, X0, X1
	PAND      X3, X1
	PCLMULQDQ $0, X0, X1
	PXOR      X2, X1

	PEXTRD $1, X1, AX
	MOVL   AX, ret+24(FP)
	RET
