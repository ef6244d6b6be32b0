//go:build amd64 && !purego

package gf256

// hasAVX2 is read once: the CPU has AVX2 and the OS saves the YMM state.
var hasAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

// The three bodies in kernels_amd64.s. n is a positive multiple of 32; tbl
// is the coefficient's row of nib. Loads and stores are unaligned, and
// mulAVX2 loads a step before it stores it, so dst may be src exactly.
//
//go:noescape
func mulAVX2(tbl *[32]byte, dst, src *byte, n int)

//go:noescape
func mulAddAVX2(tbl *[32]byte, dst, src *byte, n int)

//go:noescape
func xorMulAddAVX2(tbl *[32]byte, p, q, src *byte, n int)

// vecLen is how much of an n-byte operand the vector body takes: every
// whole 32-byte step, or nothing without AVX2.
func vecLen(n int) int {
	if !hasAVX2 {
		return 0
	}
	return n &^ 31
}

func mulVec(dst, src []byte, c byte) int {
	n := vecLen(len(src))
	if n > 0 {
		mulAVX2(&nib[c], &dst[0], &src[0], n)
	}
	return n
}

func mulAddVec(dst, src []byte, c byte) int {
	n := vecLen(len(src))
	if n > 0 {
		mulAddAVX2(&nib[c], &dst[0], &src[0], n)
	}
	return n
}

func xorMulAddVec(p, q, src []byte, c byte) int {
	n := vecLen(len(src))
	if n > 0 {
		xorMulAddAVX2(&nib[c], &p[0], &q[0], &src[0], n)
	}
	return n
}
