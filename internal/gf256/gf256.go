// Package gf256 implements arithmetic over GF(2^8), the Galois field the
// RAID-6 Q parity is computed in. The field is built on the polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11d) with generator 2 — the conventional
// RAID-6 field (Anvin, "The mathematics of RAID-6") — so every nonzero
// element is a power of 2. The scalar ops (Mul, Div, Inv, Exp, Log) work
// through exp/log tables; everything that multiplies a run of bytes by one
// coefficient works through a 256 × 256 product table instead, one row per
// coefficient, so a byte costs one branch-free lookup — or, where the CPU
// has AVX2, through the coefficient's two 16-entry nibble tables, 32 bytes
// to a shuffle (kernels_amd64.s). The table loops are the reference: the
// tests hold the assembly to them byte for byte, and they are the whole
// kernel on every other platform and under the purego build tag.
//
// For a stripe with data units d_0..d_{k-1}, the two parity units are
//
//	P = d_0 ⊕ d_1 ⊕ ... ⊕ d_{k-1}            (plain XOR)
//	Q = g^0·d_0 ⊕ g^1·d_1 ⊕ ... ⊕ g^{k-1}·d_{k-1}
//
// applied byte-wise. P and Q together correct any two erasures; the
// package provides the scalar field ops, the byte-slice kernels the
// storage engine's Q path is built from (MulSlice, MulAddSlice and
// XorMulAddSlice, which folds one unit into P and Q in a single pass), the
// word kernel the simulator uses, and the coefficient solver for the
// two-data-erasure case.
package gf256

import (
	"encoding/binary"
	"fmt"
)

// Poly is the field's reduction polynomial (x^8+x^4+x^3+x^2+1) and
// Generator its primitive element.
const (
	Poly      = 0x11d
	Generator = 2
)

// exp holds g^i for i in [0, 510): doubling the table length lets Mul skip
// the mod-255 reduction of the summed logs. log is its inverse (log[0] is
// unused — zero has no logarithm). mul[a][b] is a·b: 64 KiB, of which one
// call touches the 256-byte row of its coefficient. nib[a] is the same row
// split by nibble for a byte shuffle: a·i in its first 16 bytes and a·(i<<4)
// in its last 16, so a·b = nib[a][b&15] ^ nib[a][16+b>>4] — 8 KiB, of which
// one call loads 32 bytes.
var (
	exp [510]byte
	log [256]byte
	mul [256][256]byte
	nib [256][32]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		exp[i] = byte(x)
		exp[i+255] = byte(x)
		log[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
	}
	for a := range mul {
		for b := range mul[a] {
			mul[a][b] = Mul(byte(a), byte(b))
		}
		for i := 0; i < 16; i++ {
			nib[a][i] = Mul(byte(a), byte(i))
			nib[a][16+i] = Mul(byte(a), byte(i<<4))
		}
	}
}

// Exp returns Generator^n for any n (negative exponents invert).
func Exp(n int) byte {
	n %= 255
	if n < 0 {
		n += 255
	}
	return exp[n]
}

// Log returns the discrete log of x (base Generator). It panics on 0,
// which has no logarithm.
func Log(x byte) int {
	if x == 0 {
		panic("gf256: log of zero")
	}
	return int(log[x])
}

// Mul returns a·b in the field.
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return exp[int(log[a])+int(log[b])]
}

// Div returns a/b in the field. It panics on division by zero.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	d := int(log[a]) - int(log[b])
	if d < 0 {
		d += 255
	}
	return exp[d]
}

// Inv returns the multiplicative inverse of x. It panics on 0.
func Inv(x byte) byte {
	if x == 0 {
		panic("gf256: inverse of zero")
	}
	return exp[255-int(log[x])]
}

// checkLen enforces the slice kernels' contract: every operand is exactly
// as long as src.
func checkLen(fn string, dst, src []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("gf256: %s: len(dst) = %d, len(src) = %d", fn, len(dst), len(src)))
	}
}

// Each slice kernel below is one dispatch: the vector body (mulVec,
// mulAddVec, xorMulAddVec — kernels_amd64.go, or the stubs in
// kernels_portable.go that take nothing) does a whole number of 32-byte
// steps from the front and says how many bytes that was, and the portable
// loop does the rest — the tail of at most 31 bytes, or all of it.
//
// The portable loops share one shape: eight source bytes become one uint64
// through eight lookups in c's row of mul — no branch on the data — and
// meet dst in a single 64-bit load and store; a byte loop takes the tail of
// a length that is not a multiple of 8. The eight-lookup expression is
// spelled out in each loop because it is over the compiler's inlining
// budget as a function, and a call per word costs 60 %.

// MulSlice multiplies every byte of src by c and stores the products in
// dst. dst and src must be equally long (it panics otherwise) and may be
// the same slice. c == 0 zeroes dst, c == 1 copies.
func MulSlice(dst, src []byte, c byte) {
	checkLen("MulSlice", dst, src)
	n := mulVec(dst, src, c)
	mulSlicePortable(dst[n:], src[n:], c)
}

func mulSlicePortable(dst, src []byte, c byte) {
	t := &mul[c]
	i := 0
	for ; i+8 <= len(src); i += 8 {
		s := src[i : i+8 : i+8]
		binary.LittleEndian.PutUint64(dst[i:i+8:i+8],
			uint64(t[s[0]])|uint64(t[s[1]])<<8|uint64(t[s[2]])<<16|uint64(t[s[3]])<<24|
				uint64(t[s[4]])<<32|uint64(t[s[5]])<<40|uint64(t[s[6]])<<48|uint64(t[s[7]])<<56)
	}
	for ; i < len(src); i++ {
		dst[i] = t[src[i]]
	}
}

// MulAddSlice XORs c·src into dst byte-wise — the multiply-accumulate the
// Q sum Q = Σ g^i·d_i is folded with. dst and src must be equally long (it
// panics otherwise). c == 0 leaves dst alone; c == 1, the coefficient of a
// stripe's first data unit, is a plain word XOR.
func MulAddSlice(dst, src []byte, c byte) {
	checkLen("MulAddSlice", dst, src)
	if c == 0 {
		return
	}
	n := mulAddVec(dst, src, c)
	mulAddSlicePortable(dst[n:], src[n:], c)
}

func mulAddSlicePortable(dst, src []byte, c byte) {
	t := &mul[c]
	i := 0
	if c == 1 {
		// Whole words here; the tail below goes through the identity row.
		for ; i+8 <= len(src); i += 8 {
			d := dst[i : i+8 : i+8]
			binary.LittleEndian.PutUint64(d,
				binary.LittleEndian.Uint64(d)^binary.LittleEndian.Uint64(src[i:i+8:i+8]))
		}
	}
	for ; i+8 <= len(src); i += 8 {
		s := src[i : i+8 : i+8]
		d := dst[i : i+8 : i+8]
		binary.LittleEndian.PutUint64(d, binary.LittleEndian.Uint64(d)^
			(uint64(t[s[0]])|uint64(t[s[1]])<<8|uint64(t[s[2]])<<16|uint64(t[s[3]])<<24|
				uint64(t[s[4]])<<32|uint64(t[s[5]])<<40|uint64(t[s[6]])<<48|uint64(t[s[7]])<<56))
	}
	for ; i < len(src); i++ {
		dst[i] ^= t[src[i]]
	}
}

// XorMulAddSlice XORs src into p and c·src into q in one pass over src:
// a data unit's contribution to both parity sums (P takes it bare, Q times
// g^d) for one read of the unit. p, q and src must be equally long (it
// panics otherwise); p and q must not overlap.
func XorMulAddSlice(p, q, src []byte, c byte) {
	checkLen("XorMulAddSlice", p, src)
	checkLen("XorMulAddSlice", q, src)
	n := xorMulAddVec(p, q, src, c)
	xorMulAddSlicePortable(p[n:], q[n:], src[n:], c)
}

func xorMulAddSlicePortable(p, q, src []byte, c byte) {
	t := &mul[c]
	i := 0
	for ; i+8 <= len(src); i += 8 {
		s := src[i : i+8 : i+8]
		pd := p[i : i+8 : i+8]
		qd := q[i : i+8 : i+8]
		binary.LittleEndian.PutUint64(pd, binary.LittleEndian.Uint64(pd)^binary.LittleEndian.Uint64(s))
		binary.LittleEndian.PutUint64(qd, binary.LittleEndian.Uint64(qd)^
			(uint64(t[s[0]])|uint64(t[s[1]])<<8|uint64(t[s[2]])<<16|uint64(t[s[3]])<<24|
				uint64(t[s[4]])<<32|uint64(t[s[5]])<<40|uint64(t[s[6]])<<48|uint64(t[s[7]])<<56))
	}
	for ; i < len(src); i++ {
		p[i] ^= src[i]
		q[i] ^= t[src[i]]
	}
}

// MulWord multiplies each of the 8 bytes of a 64-bit word by c — the
// word-sized kernel for simulators that model one uint64 per unit.
func MulWord(c byte, w uint64) uint64 {
	t := &mul[c]
	return uint64(t[byte(w)]) | uint64(t[byte(w>>8)])<<8 | uint64(t[byte(w>>16)])<<16 | uint64(t[byte(w>>24)])<<24 |
		uint64(t[byte(w>>32)])<<32 | uint64(t[byte(w>>40)])<<40 | uint64(t[byte(w>>48)])<<48 | uint64(t[w>>56])<<56
}

// TwoErasureCoeffs returns the decode coefficients for two erased data
// units at stripe-data ordinals x < y, solving
//
//	Pxy = d_x ⊕ d_y
//	Qxy = g^x·d_x ⊕ g^y·d_y
//
// (Pxy and Qxy are P and Q with every surviving data unit's contribution
// removed). The solution is
//
//	d_y = a·Pxy ⊕ b·Qxy,  d_x = d_y ⊕ Pxy
//
// with a = g^x/(g^x ⊕ g^y) and b = 1/(g^x ⊕ g^y). It panics unless
// 0 <= x < y (g^x ⊕ g^y is then nonzero, so the system is solvable).
func TwoErasureCoeffs(x, y int) (a, b byte) {
	if x < 0 || x >= y {
		panic("gf256: need 0 <= x < y")
	}
	gx, gy := Exp(x), Exp(y)
	den := gx ^ gy
	return Div(gx, den), Inv(den)
}
