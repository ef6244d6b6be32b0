//go:build amd64 && !purego

#include "textflag.h"

// func cpuHasAVX2() bool
//
// CPUID.1:ECX says the OS uses XSAVE (bit 27) and the CPU has AVX (bit 28);
// XCR0 bits 1 and 2 say the OS saves XMM and YMM state; CPUID.7.0:EBX bit 5
// is AVX2.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// The three kernels keep the same registers: Y0 and Y1 are the
// coefficient's low- and high-nibble product tables, each in both 128-bit
// lanes (VPSHUFB looks up within a lane), Y2 is 0x0f in every byte. A step
// splits 32 source bytes into nibbles, looks both halves up and XORs them:
// c·b = lo[b&15] ^ hi[b>>4].

#define LOAD_TABLES(tbl) \
	VBROADCASTI128 (tbl), Y0   \
	VBROADCASTI128 16(tbl), Y1 \
	MOVL           $0x0f, tbl  \
	MOVQ           tbl, X2     \
	VPBROADCASTB   X2, Y2

// PRODUCT leaves c·src in Y3 and the bare source bytes in Y5.
#define PRODUCT(src) \
	VMOVDQU (src), Y5  \
	VPSRLQ  $4, Y5, Y4 \
	VPAND   Y2, Y5, Y3 \
	VPAND   Y2, Y4, Y4 \
	VPSHUFB Y3, Y0, Y3 \
	VPSHUFB Y4, Y1, Y4 \
	VPXOR   Y3, Y4, Y3

// func mulAVX2(tbl *[32]byte, dst, src *byte, n int)
TEXT ·mulAVX2(SB), NOSPLIT, $0-32
	MOVQ tbl+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	MOVQ n+24(FP), CX
	LOAD_TABLES(AX)

mulLoop:
	PRODUCT(SI)
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     mulLoop
	VZEROUPPER
	RET

// func mulAddAVX2(tbl *[32]byte, dst, src *byte, n int)
TEXT ·mulAddAVX2(SB), NOSPLIT, $0-32
	MOVQ tbl+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	MOVQ n+24(FP), CX
	LOAD_TABLES(AX)

mulAddLoop:
	PRODUCT(SI)
	VPXOR   (DI), Y3, Y3
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     mulAddLoop
	VZEROUPPER
	RET

// func xorMulAddAVX2(tbl *[32]byte, p, q, src *byte, n int)
TEXT ·xorMulAddAVX2(SB), NOSPLIT, $0-40
	MOVQ tbl+0(FP), AX
	MOVQ p+8(FP), DX
	MOVQ q+16(FP), DI
	MOVQ src+24(FP), SI
	MOVQ n+32(FP), CX
	LOAD_TABLES(AX)

xorMulAddLoop:
	PRODUCT(SI)
	VPXOR   (DX), Y5, Y5
	VPXOR   (DI), Y3, Y3
	VMOVDQU Y5, (DX)
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     xorMulAddLoop
	VZEROUPPER
	RET
