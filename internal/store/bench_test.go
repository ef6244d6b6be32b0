package store

import (
	"crypto/subtle"
	"sync/atomic"
	"testing"
	"time"

	"declust/internal/layout"
)

// The layer probes below price, one layer at a time, what a 4 KiB unit
// operation is made of, so that a saving or a regression in the
// end-to-end numbers can be attributed to a pass: the trailer's crc32c
// (BenchmarkTrailer), an XOR pass (BenchmarkXORBytes; the GF(2^8) folds are
// internal/gf256's benchmarks), the lock and intent mark every write takes
// (BenchmarkStripeLockIntent), and the whole op (BenchmarkUnitOp). `make
// bench-layers` runs them with internal/gf256's.

// probeUnit is the unit size the layer probes price.
const probeUnit = 4096

// BenchmarkFanOutHandOff measures what overlapThreshold is set against:
// the cost of handing one item of a two-item batch to a helper goroutine
// and joining it, over the same batch run inline.
func BenchmarkFanOutHandOff(b *testing.B) {
	for _, v := range []struct {
		name      string
		threshold time.Duration
	}{{"inline", time.Hour}, {"handoff", 0}} {
		b.Run(v.name, func(b *testing.B) {
			old := overlapThreshold
			overlapThreshold = v.threshold
			defer func() { overlapThreshold = old }()
			s, err := New(Config{Layout: testLayout(b, 7, 4), UnitsPerDisk: 48, UnitSize: 512, IOWorkers: 4})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			var sink atomic.Int64
			item := func(i int) error { sink.Add(int64(i)); return nil }
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.fanOutFunc(2, item); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrailer: stamping a 4 KiB unit's trailer (a crc32c over the data
// and two words written) and verifying it (the same crc32c and two words
// compared), per unit.
func BenchmarkTrailer(b *testing.B) {
	phys := make([]byte, PhysUnitSize(probeUnit))
	fill(phys[:probeUnit], 1, 1)
	b.Run("stamp", func(b *testing.B) {
		b.SetBytes(probeUnit)
		for i := 0; i < b.N; i++ {
			stampTrailer(phys, probeUnit, int64(i))
		}
	})
	b.Run("verify", func(b *testing.B) {
		stampTrailer(phys, probeUnit, 7)
		b.SetBytes(probeUnit)
		for i := 0; i < b.N; i++ {
			if _, ok := verifyTrailer(phys, probeUnit, 7); !ok {
				b.Fatal("a stamped unit fails verification")
			}
		}
	})
}

// BenchmarkXORBytes: one XOR pass over a 4 KiB unit in place, dst ^= src,
// the way every XOR fold of the engine calls it.
func BenchmarkXORBytes(b *testing.B) {
	dst, src := make([]byte, probeUnit), make([]byte, probeUnit)
	fill(dst, 1, 1)
	fill(src, 2, 1)
	b.SetBytes(probeUnit)
	for i := 0; i < b.N; i++ {
		subtle.XORBytes(dst, dst, src)
	}
}

// BenchmarkStripeLockIntent: what every write takes around its commit — the
// stripe's write lock, the region's active count and the intent mark's fast
// path (the region is already durably dirty), then the unlock.
func BenchmarkStripeLockIntent(b *testing.B) {
	s := probeStore(b, testLayout(b, 21, 5))
	defer s.Close()
	const stripe = 3
	r := int64(stripe / intentRegionStripes)
	if err := s.markIntent(r); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.locks.lock(stripe)
		s.regionActive[r].Add(1)
		err := s.markIntent(r)
		s.regionActive[r].Add(-1)
		s.locks.unlock(stripe)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnitOp: ReadUnit and WriteUnit of a healthy 4 KiB unit at C = 21,
// G = 5, single parity and P+Q, serial (IOWorkers = 1) over memory disks
// filled with data — the in-package twin of the benchmark module's
// store.*.healthy_ns probes, which visit the units in the same scattered
// order.
func BenchmarkUnitOp(b *testing.B) {
	for _, code := range []struct {
		name string
		lay  func(testing.TB, int, int) layout.Layout
	}{{"P", testLayout}, {"P+Q", testPQLayout}} {
		s := probeStore(b, code.lay(b, 21, 5))
		defer s.Close()
		units := make([]int64, s.DataUnits())
		for i := range units {
			units[i] = int64(i) * 7919 % s.DataUnits()
		}
		buf := make([]byte, probeUnit)
		fill(buf, 3, 1)
		for _, op := range []struct {
			name string
			do   func(int64, []byte) error
		}{{"read", s.ReadUnit}, {"write", s.WriteUnit}} {
			b.Run(code.name+"/"+op.name, func(b *testing.B) {
				b.SetBytes(probeUnit)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := op.do(units[i%len(units)], buf); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// probeStore is a serial memory-backed store of 4 KiB units, 420 units per
// disk, over lay, every data unit written once.
func probeStore(b *testing.B, lay layout.Layout) *Store {
	b.Helper()
	s, err := New(Config{Layout: lay, UnitsPerDisk: 420, UnitSize: probeUnit, IOWorkers: 1})
	if err != nil {
		b.Fatal(err)
	}
	span := make([]byte, int(s.dataPerStripe)*probeUnit)
	for stripe := int64(0); stripe < s.Stripes(); stripe++ {
		first := stripe * s.dataPerStripe
		for i := int64(0); i < s.dataPerStripe; i++ {
			fill(span[i*probeUnit:(i+1)*probeUnit], first+i, 1)
		}
		if err := s.WriteRange(first, span); err != nil {
			b.Fatal(err)
		}
	}
	return s
}
