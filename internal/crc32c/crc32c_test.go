package crc32c

import (
	"bufio"
	"go/build"
	"go/parser"
	"go/token"
	"hash/crc32"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sink keeps the benchmarked checksums live.
var sink uint32

// FuzzUpdate: Update over arbitrary bytes, at an arbitrary running
// checksum, is crc32.Update with the Castagnoli table.
func FuzzUpdate(f *testing.F) {
	unit := make([]byte, 4096)
	rand.New(rand.NewSource(2)).Read(unit)
	f.Add(uint32(0), unit)
	f.Add(uint32(0xdeadbeef), unit[:257])
	f.Add(uint32(1), unit[:255])
	f.Add(uint32(0), make([]byte, 4096))
	f.Add(uint32(0), []byte{})
	f.Fuzz(func(t *testing.T, crc uint32, p []byte) {
		if got, want := Update(crc, p), crc32.Update(crc, castagnoli, p); got != want {
			t.Fatalf("Update(%08x) of %d bytes = %08x, want %08x", crc, len(p), got, want)
		}
	})
}

// TestConstants recomputes every constant kernel_amd64.s declares from the
// polynomial and compares it with the file: a fold constant is x^e mod P,
// bit-reflected over 32 bits and shifted left by one; P′ is P reflected
// over 33 bits and μ′ the quotient x^64 / P, likewise. Every DATA word of
// the file must be named here.
func TestConstants(t *testing.T) {
	const poly = 0x11edc6f41 // P, x^32 included
	xmod := func(e int) uint64 {
		r := uint64(1)
		for ; e > 0; e-- {
			if r <<= 1; r&(1<<32) != 0 {
				r ^= poly
			}
		}
		return r
	}
	fold := func(e int) uint64 { return uint64(bits.Reverse32(uint32(xmod(e)))) << 1 }
	reflect33 := func(v uint64) uint64 { return bits.Reverse64(v) >> 31 }
	// x^64 = μ·P + r: the quotient bit by bit, highest degree first.
	var mu, rem uint64 = 0, 1 << 32 // rem holds x^64's top 33 bits as the division shifts in zeros
	for d := 32; d >= 0; d-- {
		if rem&(1<<32) != 0 {
			mu |= 1 << d
			rem ^= poly
		}
		rem <<= 1
	}
	want := map[string]uint64{
		"fold2048<>+0":  fold(2048 + 32),
		"fold2048<>+8":  fold(2048 - 32),
		"fold512<>+0":   fold(512 + 32),
		"fold512<>+8":   fold(512 - 32),
		"foldLanes<>+0": fold(384 + 32), "foldLanes<>+8": fold(384 - 32),
		"foldLanes<>+16": fold(256 + 32), "foldLanes<>+24": fold(256 - 32),
		"foldLanes<>+32": fold(128 + 32), "foldLanes<>+40": fold(128 - 32),
		"foldLanes<>+48": 0, "foldLanes<>+56": 0,
		"x64<>+0":     fold(64),
		"barrett<>+0": reflect33(poly),
		"barrett<>+8": reflect33(mu),
	}
	f, err := os.Open("kernel_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data := regexp.MustCompile(`^DATA (\w+<>\+\d+)\(SB\)/8, \$(0x[0-9a-f]+|0)$`)
	seen := 0
	for sc := bufio.NewScanner(f); sc.Scan(); {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "DATA") {
			continue
		}
		m := data.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("unparsed DATA line %q", line)
			continue
		}
		w, ok := want[m[1]]
		if !ok {
			t.Errorf("%s: no recomputed value for this word", m[1])
			continue
		}
		got, err := strconv.ParseUint(m[2], 0, 64)
		if err != nil {
			t.Fatal(err)
		}
		if got != w {
			t.Errorf("%s = %#x, recomputed %#x", m[1], got, w)
		}
		seen++
	}
	if seen != len(want) {
		t.Errorf("checked %d DATA words, expected %d", seen, len(want))
	}
}

// TestImportsOnlyStandardLibrary keeps the package a leaf, like
// internal/gf256 and internal/drive: no non-test file imports anything
// outside the standard library.
func TestImportsOnlyStandardLibrary(t *testing.T) {
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if p, err := build.Import(path, ".", build.FindOnly); err != nil || !p.Goroot {
				t.Errorf("%s imports %q, which is not in the standard library", fset.Position(imp.Pos()), path)
			}
		}
	}
}

// BenchmarkChecksum prices one 4 KiB unit, the size every trailer stamp
// and verify covers: /dispatch is Checksum (the vector body where the CPU
// has it), /stdlib the hash/crc32 loop it replaces.
func BenchmarkChecksum(b *testing.B) {
	unit := make([]byte, 4096)
	rand.New(rand.NewSource(3)).Read(unit)
	for _, k := range []struct {
		name string
		sum  func([]byte) uint32
	}{
		{"dispatch", Checksum},
		{"stdlib", func(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(int64(len(unit)))
			for i := 0; i < b.N; i++ {
				sink = k.sum(unit)
			}
		})
	}
}
