//go:build !amd64 || purego

package gf256

// No vector body on this platform (or the purego tag asked for none): the
// portable loops are the whole kernel.

func mulVec(dst, src []byte, c byte) int        { return 0 }
func mulAddVec(dst, src []byte, c byte) int     { return 0 }
func xorMulAddVec(p, q, src []byte, c byte) int { return 0 }
