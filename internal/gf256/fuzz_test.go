package gf256

import (
	"bytes"
	"testing"
)

// FuzzMulAddSlice drives the slice kernels with arbitrary bytes and an
// arbitrary coefficient. data splits into two equal halves a and b (an odd
// last byte is dropped), and four things must hold:
//
//   - differential: MulAddSlice, XorMulAddSlice and MulSlice agree with a
//     byte-at-a-time loop over the scalar Mul;
//   - one kernel, two bodies: each dispatching entry point agrees byte for
//     byte with its portable loop (againstPortable; the vector body takes
//     every whole 32 bytes, so the step-N corpus files sit on its edges);
//   - linearity: c·(a ⊕ b) = c·a ⊕ c·b;
//   - round trip: for c ≠ 0, multiplying c·a by Inv(c) in place returns a.
//
// The seed corpus is testdata/fuzz/FuzzMulAddSlice; `make fuzz` runs it for
// ten seconds in `make verify` and for five minutes nightly.
func FuzzMulAddSlice(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, c byte) {
		n := len(data) / 2
		a, b := data[:n], data[n:2*n]

		againstPortable(t, make([]byte, n), make([]byte, n), a, b, a, c)

		prod, sum := make([]byte, n), make([]byte, n)
		for i := range a {
			prod[i] = Mul(a[i], c)
			sum[i] = b[i] ^ prod[i]
		}
		got := bytes.Clone(b)
		MulAddSlice(got, a, c)
		if !bytes.Equal(got, sum) {
			t.Fatalf("MulAddSlice c=%#x n=%d: got %x want %x", c, n, got, sum)
		}
		p, q := make([]byte, n), bytes.Clone(b)
		XorMulAddSlice(p, q, a, c)
		if !bytes.Equal(p, a) || !bytes.Equal(q, sum) {
			t.Fatalf("XorMulAddSlice c=%#x n=%d: p %x (want %x), q %x (want %x)", c, n, p, a, q, sum)
		}
		ca := make([]byte, n)
		MulSlice(ca, a, c)
		if !bytes.Equal(ca, prod) {
			t.Fatalf("MulSlice c=%#x n=%d: got %x want %x", c, n, ca, prod)
		}

		// c·a ⊕ c·b, then c·(a ⊕ b) on top: linearity leaves zero.
		lin := bytes.Clone(ca)
		MulAddSlice(lin, b, c)
		ab := bytes.Clone(a)
		MulAddSlice(ab, b, 1)
		MulAddSlice(lin, ab, c)
		if !bytes.Equal(lin, make([]byte, n)) {
			t.Fatalf("c=%#x n=%d: c·a ⊕ c·b ⊕ c·(a⊕b) = %x, want zero", c, n, lin)
		}

		if c != 0 {
			MulSlice(ca, ca, Inv(c))
			if !bytes.Equal(ca, a) {
				t.Fatalf("c=%#x n=%d: (c·a)/c = %x, want %x", c, n, ca, a)
			}
		}
	})
}
