package gf256

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// TestGeneratorSanity: the generator's powers must enumerate every nonzero
// field element exactly once per 255-cycle (2 is primitive mod 0x11d).
func TestGeneratorSanity(t *testing.T) {
	seen := make(map[byte]bool)
	for i := 0; i < 255; i++ {
		e := Exp(i)
		if e == 0 {
			t.Fatalf("Exp(%d) = 0", i)
		}
		if seen[e] {
			t.Fatalf("Exp(%d) = %#x repeats before the cycle closes", i, e)
		}
		seen[e] = true
	}
	if len(seen) != 255 {
		t.Fatalf("generator visits %d elements, want 255", len(seen))
	}
	if Exp(255) != Exp(0) || Exp(0) != 1 {
		t.Fatalf("Exp cycle broken: Exp(0)=%#x Exp(255)=%#x", Exp(0), Exp(255))
	}
	if Exp(-1) != Inv(Generator) {
		t.Fatalf("Exp(-1)=%#x, want Inv(g)=%#x", Exp(-1), Inv(Generator))
	}
}

// TestLogExpRoundTrip: log and exp invert each other on every nonzero
// element.
func TestLogExpRoundTrip(t *testing.T) {
	for x := 1; x < 256; x++ {
		if got := Exp(Log(byte(x))); got != byte(x) {
			t.Fatalf("Exp(Log(%#x)) = %#x", x, got)
		}
	}
}

// mulSlow is the bitwise reference multiplication (Russian peasant).
func mulSlow(a, b byte) byte {
	var p byte
	aa, bb := int(a), int(b)
	for bb != 0 {
		if bb&1 != 0 {
			p ^= byte(aa)
		}
		aa <<= 1
		if aa&0x100 != 0 {
			aa ^= Poly
		}
		bb >>= 1
	}
	return p
}

// TestMulMatchesReference: exp/log multiplication, the product table and
// the nibble tables all agree with the bitwise definition on all 65536
// pairs.
func TestMulMatchesReference(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			want := mulSlow(byte(a), byte(b))
			if got := Mul(byte(a), byte(b)); got != want {
				t.Fatalf("Mul(%#x,%#x) = %#x, want %#x", a, b, got, want)
			}
			if got := mul[a][b]; got != want {
				t.Fatalf("mul[%#x][%#x] = %#x, want %#x", a, b, got, want)
			}
			if got := nib[a][b&15] ^ nib[a][16+b>>4]; got != want {
				t.Fatalf("nib[%#x] gives %#x·%#x = %#x, want %#x", a, a, b, got, want)
			}
		}
	}
}

// TestMulDivRoundTrip: (a·b)/b == a for every nonzero b.
func TestMulDivRoundTrip(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 1; b < 256; b++ {
			if got := Div(Mul(byte(a), byte(b)), byte(b)); got != byte(a) {
				t.Fatalf("(%#x * %#x) / %#x = %#x", a, b, b, got)
			}
		}
	}
}

// TestInv: x · Inv(x) == 1 for every nonzero x.
func TestInv(t *testing.T) {
	for x := 1; x < 256; x++ {
		if got := Mul(byte(x), Inv(byte(x))); got != 1 {
			t.Fatalf("%#x * Inv(%#x) = %#x, want 1", x, x, got)
		}
	}
}

func TestFieldAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		a, b, c := byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
		if Mul(a, b) != Mul(b, a) {
			t.Fatalf("commutativity fails at %#x,%#x", a, b)
		}
		if Mul(Mul(a, b), c) != Mul(a, Mul(b, c)) {
			t.Fatalf("associativity fails at %#x,%#x,%#x", a, b, c)
		}
		if Mul(a, b^c) != Mul(a, b)^Mul(a, c) {
			t.Fatalf("distributivity fails at %#x,%#x,%#x", a, b, c)
		}
	}
}

// TestPanics: every contract violation panics, and a slice kernel's panic
// names the function and both lengths.
func TestPanics(t *testing.T) {
	b3, b4 := make([]byte, 3), make([]byte, 4)
	for name, tc := range map[string]struct {
		fn   func()
		want string
	}{
		"log-zero":          {func() { Log(0) }, "log of zero"},
		"div-zero":          {func() { Div(3, 0) }, "division by zero"},
		"inv-zero":          {func() { Inv(0) }, "inverse of zero"},
		"coeffs-order":      {func() { TwoErasureCoeffs(2, 2) }, "0 <= x < y"},
		"coeffs-bounds":     {func() { TwoErasureCoeffs(-1, 3) }, "0 <= x < y"},
		"mul-long-dst":      {func() { MulSlice(b4, b3, 2) }, "MulSlice: len(dst) = 4, len(src) = 3"},
		"mul-short-dst":     {func() { MulSlice(b3, b4, 2) }, "MulSlice: len(dst) = 3, len(src) = 4"},
		"mul-empty-src":     {func() { MulSlice(b3, nil, 2) }, "MulSlice: len(dst) = 3, len(src) = 0"},
		"muladd-long-dst":   {func() { MulAddSlice(b4, b3, 2) }, "MulAddSlice: len(dst) = 4, len(src) = 3"},
		"muladd-short-dst":  {func() { MulAddSlice(b3, b4, 0) }, "MulAddSlice: len(dst) = 3, len(src) = 4"},
		"xormuladd-short-p": {func() { XorMulAddSlice(b3, b4, b4, 2) }, "XorMulAddSlice: len(dst) = 3, len(src) = 4"},
		"xormuladd-long-q":  {func() { XorMulAddSlice(b3, b4, b3, 2) }, "XorMulAddSlice: len(dst) = 4, len(src) = 3"},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("%s: no panic", name)
				} else if msg := fmt.Sprint(r); !strings.Contains(msg, tc.want) {
					t.Errorf("%s: panic %q does not mention %q", name, msg, tc.want)
				}
			}()
			tc.fn()
		}()
	}
}

// kernelLens straddles every boundary of both bodies — the portable loop's
// eight bytes a step, the vector body's 32: empty operands (legal: nothing
// to fold, no panic), a lone tail, one byte either side of one word, of one
// vector step and of two, the engine's 4 KiB unit, and a unit with a byte
// tail and with a one-word tail.
var kernelLens = []int{0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 4096, 4099, 4104}

// TestSliceKernels checks MulSlice, MulAddSlice and XorMulAddSlice against
// the scalar Mul for every coefficient at every length in kernelLens, over
// random destinations, and MulSlice in place — decode's MulSlice(qx, qx, c).
func TestSliceKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range kernelLens {
		src, p0, q0 := make([]byte, n), make([]byte, n), make([]byte, n)
		rng.Read(src)
		rng.Read(p0)
		rng.Read(q0)
		prod, acc, psum := make([]byte, n), make([]byte, n), make([]byte, n)
		got, gotP := make([]byte, n), make([]byte, n)
		for c := 0; c < 256; c++ {
			for i, b := range src {
				prod[i] = Mul(b, byte(c))
				acc[i] = q0[i] ^ prod[i]
				psum[i] = p0[i] ^ b
			}

			copy(got, q0)
			MulSlice(got, src, byte(c))
			if !bytes.Equal(got, prod) {
				t.Fatalf("MulSlice c=%#x n=%d: products differ from Mul", c, n)
			}
			copy(got, src)
			MulSlice(got, got, byte(c))
			if !bytes.Equal(got, prod) {
				t.Fatalf("MulSlice in place c=%#x n=%d: products differ from Mul", c, n)
			}

			copy(got, q0)
			MulAddSlice(got, src, byte(c))
			if !bytes.Equal(got, acc) {
				t.Fatalf("MulAddSlice c=%#x n=%d: sum differs from Mul", c, n)
			}

			copy(gotP, p0)
			copy(got, q0)
			XorMulAddSlice(gotP, got, src, byte(c))
			if !bytes.Equal(gotP, psum) || !bytes.Equal(got, acc) {
				t.Fatalf("XorMulAddSlice c=%#x n=%d: P ok=%v Q ok=%v",
					c, n, bytes.Equal(gotP, psum), bytes.Equal(got, acc))
			}
		}
	}
}

// TestMulWord: every coefficient against every byte value in every lane
// (lane i holds b + 37·i, which runs through all 256 values as b does).
func TestMulWord(t *testing.T) {
	for c := 0; c < 256; c++ {
		for b := 0; b < 256; b++ {
			var w uint64
			for lane := 0; lane < 8; lane++ {
				w |= uint64(byte(b+37*lane)) << (8 * lane)
			}
			got := MulWord(byte(c), w)
			for shift := 0; shift < 64; shift += 8 {
				if want := Mul(byte(c), byte(w>>shift)); byte(got>>shift) != want {
					t.Fatalf("MulWord(%#x, %#x) byte %d: got %#x want %#x",
						c, w, shift/8, byte(got>>shift), want)
				}
			}
		}
	}
}

// TestTwoErasureDecode: for random data, erasing any two ordinals and
// decoding from Pxy/Qxy recovers them.
func TestTwoErasureDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const k = 8
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, k)
		rng.Read(data)
		var p, q byte
		for i, d := range data {
			p ^= d
			q ^= Mul(Exp(i), d)
		}
		for x := 0; x < k; x++ {
			for y := x + 1; y < k; y++ {
				pxy, qxy := p, q
				for i, d := range data {
					if i != x && i != y {
						pxy ^= d
						qxy ^= Mul(Exp(i), d)
					}
				}
				a, b := TwoErasureCoeffs(x, y)
				dy := Mul(a, pxy) ^ Mul(b, qxy)
				dx := dy ^ pxy
				if dx != data[x] || dy != data[y] {
					t.Fatalf("decode(%d,%d): got %#x,%#x want %#x,%#x",
						x, y, dx, dy, data[x], data[y])
				}
			}
		}
	}
}

// againstPortable runs each kernel through its dispatching entry point and
// through the portable loop on the same operands and fails on the first
// kernel whose bytes differ. p and q are the destinations the dispatching
// calls write (the caller chooses where they sit in memory), p0 and q0 the
// contents they start from; MulSlice runs twice, the second time in place.
func againstPortable(t testing.TB, p, q, src, p0, q0 []byte, c byte) {
	t.Helper()
	n := len(src)
	wantP, wantQ := make([]byte, n), make([]byte, n)

	mulSlicePortable(wantQ, src, c)
	copy(q, q0)
	MulSlice(q, src, c)
	if !bytes.Equal(q, wantQ) {
		t.Fatalf("MulSlice c=%#x n=%d differs from the portable loop", c, n)
	}
	copy(q, src)
	MulSlice(q, q, c)
	if !bytes.Equal(q, wantQ) {
		t.Fatalf("MulSlice in place c=%#x n=%d differs from the portable loop", c, n)
	}

	copy(wantQ, q0)
	mulAddSlicePortable(wantQ, src, c)
	copy(q, q0)
	MulAddSlice(q, src, c)
	if !bytes.Equal(q, wantQ) {
		t.Fatalf("MulAddSlice c=%#x n=%d differs from the portable loop", c, n)
	}

	copy(wantP, p0)
	copy(wantQ, q0)
	xorMulAddSlicePortable(wantP, wantQ, src, c)
	copy(p, p0)
	copy(q, q0)
	XorMulAddSlice(p, q, src, c)
	if !bytes.Equal(p, wantP) || !bytes.Equal(q, wantQ) {
		t.Fatalf("XorMulAddSlice c=%#x n=%d differs from the portable loop: P ok=%v Q ok=%v",
			c, n, bytes.Equal(p, wantP), bytes.Equal(q, wantQ))
	}
}

// guarded is an n-byte operand off bytes past a 32-aligned address, with
// 0xA5 on either side of it for intact to find again.
type guarded struct {
	buf []byte
	off int
	op  []byte
}

func newGuarded(n, off int) guarded {
	buf := make([]byte, n+128)
	base := (32 - int(uintptr(unsafe.Pointer(&buf[0]))&31)) & 31
	buf = buf[base : base+32+n+32]
	for i := range buf {
		buf[i] = 0xA5
	}
	return guarded{buf: buf, off: off, op: buf[off : off+n : off+n]}
}

func (g guarded) intact() bool {
	for i, b := range g.buf {
		if (i < g.off || i >= g.off+len(g.op)) && b != 0xA5 {
			return false
		}
	}
	return true
}

// TestVectorMatchesPortable holds the vector body to the portable loops:
// every length in kernelLens, source and destination each at every
// misalignment 0…31 from a 32-aligned base (pooled unit buffers are not
// 32-aligned), the coefficients with a special case or a full table (0, 1,
// the generator, the polynomial's low byte, 0xff), and no byte written
// outside an operand. Where there is no vector body it compares the
// portable loops with themselves and passes.
func TestVectorMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range kernelLens {
		p0, q0 := make([]byte, n), make([]byte, n)
		rng.Read(p0)
		rng.Read(q0)
		for so := 0; so < 32; so++ {
			src := newGuarded(n, so)
			rng.Read(src.op)
			for do := 0; do < 32; do++ {
				p, q := newGuarded(n, 31-do), newGuarded(n, do)
				for _, c := range []byte{0, 1, 2, 0x1d, 0xff} {
					againstPortable(t, p.op, q.op, src.op, p0, q0, c)
				}
				if !p.intact() || !q.intact() || !src.intact() {
					t.Fatalf("n=%d src+%d dst+%d: a kernel wrote outside its operands", n, so, do)
				}
			}
		}
	}
}

// benchKernel times one kernel on the engine's 4 KiB unit, through the
// dispatching entry point and through the portable loop alone: a
// regression in either shows in its own row.
func benchKernel(b *testing.B, dispatch, portable func(dst, src []byte, c byte)) {
	src := make([]byte, 4096)
	dst := make([]byte, 4096)
	rand.New(rand.NewSource(5)).Read(src)
	for _, k := range []struct {
		name string
		fn   func(dst, src []byte, c byte)
	}{{"dispatch", dispatch}, {"portable", portable}} {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(4096)
			for i := 0; i < b.N; i++ {
				k.fn(dst, src, byte(i%255+1))
			}
		})
	}
}

func BenchmarkMulSlice(b *testing.B) { benchKernel(b, MulSlice, mulSlicePortable) }

func BenchmarkMulAddSlice(b *testing.B) { benchKernel(b, MulAddSlice, mulAddSlicePortable) }

func BenchmarkXorMulAddSlice(b *testing.B) {
	p := make([]byte, 4096)
	benchKernel(b,
		func(q, src []byte, c byte) { XorMulAddSlice(p, q, src, c) },
		func(q, src []byte, c byte) { xorMulAddSlicePortable(p, q, src, c) })
}
