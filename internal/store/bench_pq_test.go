package store

import (
	"sync/atomic"
	"testing"
)

// latPQStore builds the paper's 21-disk, G=5 array under the P+Q
// dual-parity code over latency-injected in-memory backends, pre-filled
// at full speed; the returned knob arms the latency (see latStore).
func latPQStore(b *testing.B, units int64, ioWorkers, rebuildWorkers int) (*Store, *atomic.Int64) {
	b.Helper()
	lay := testPQLayout(b, 21, 5)
	const us = 4096
	lat := new(atomic.Int64)
	disks := make([]Disk, lay.Disks())
	for i := range disks {
		disks[i] = slowDisk{Disk: NewMemDisk(units, us), lat: lat}
	}
	s, err := New(Config{
		Layout: lay, UnitsPerDisk: units, UnitSize: us, Disks: disks,
		IOWorkers: ioWorkers, RebuildWorkers: rebuildWorkers,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	buf := make([]byte, s.DataUnits()*us)
	for n := int64(0); n < s.DataUnits(); n++ {
		fill(buf[n*us:(n+1)*us], n, 1)
	}
	if err := s.WriteRange(0, buf); err != nil {
		b.Fatal(err)
	}
	lat.Store(int64(benchLatency))
	return s, lat
}

// pqWorkerVariants is workerVariants over the P+Q store.
func pqWorkerVariants(b *testing.B, units int64, fn func(b *testing.B, s *Store, lat *atomic.Int64)) {
	b.Run("serial", func(b *testing.B) {
		s, lat := latPQStore(b, units, 1, 1)
		fn(b, s, lat)
	})
	b.Run("parallel", func(b *testing.B) {
		s, lat := latPQStore(b, units, 8, 4)
		fn(b, s, lat)
	})
}

// doublyLostUnits returns the data units on victim disk a whose stripe
// also holds a unit of victim disk b — every read of one is a genuine
// two-erasure decode once both disks are failed.
func doublyLostUnits(b *testing.B, s *Store, a, c int) []int64 {
	b.Helper()
	var out []int64
	for n := int64(0); n < s.DataUnits(); n++ {
		u := s.mapper.Loc(n)
		if u.Disk != a {
			continue
		}
		stripe, _ := s.lay.Locate(u)
		for j := 0; j < s.lay.G(); j++ {
			if s.lay.Unit(stripe, j).Disk == c {
				out = append(out, n)
				break
			}
		}
	}
	if len(out) == 0 {
		b.Fatalf("no stripe spans both disks %d and %d", a, c)
	}
	return out
}

// BenchmarkStorePQDegraded2Read measures reads of units whose stripe has
// lost BOTH failed disks: every read runs the GF(2^8) two-erasure decode
// over the stripe's G−2 survivors.
func BenchmarkStorePQDegraded2Read(b *testing.B) {
	pqWorkerVariants(b, 105, func(b *testing.B, s *Store, _ *atomic.Int64) {
		const v1, v2 = 7, 13
		lost := doublyLostUnits(b, s, v1, v2)
		if err := s.Fail(v1); err != nil {
			b.Fatal(err)
		}
		if err := s.Fail(v2); err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, s.UnitSize())
		b.SetBytes(int64(s.UnitSize()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.ReadUnit(lost[i%len(lost)], buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStorePQWriteRMW measures the healthy dual-parity small write:
// the six-access read-modify-write (read data+P+Q, write data+P+Q, Q
// folded through the GF(2^8) generator), against single parity's four —
// six device waits serial, two overlapped.
func BenchmarkStorePQWriteRMW(b *testing.B) {
	pqWorkerVariants(b, 105, func(b *testing.B, s *Store, _ *atomic.Int64) { benchSmallWrite(b, s) })
}

// BenchmarkStorePQRebuild2 measures the two-erasure rebuild: each
// iteration fails two disks and rebuilds both slots, the first sweep
// decoding doubly-lost stripes with the full Reed–Solomon solve.
func BenchmarkStorePQRebuild2(b *testing.B) {
	pqWorkerVariants(b, 45, func(b *testing.B, s *Store, lat *atomic.Int64) {
		const v1, v2 = 7, 13
		spares := []Disk{
			slowDisk{Disk: NewMemDisk(s.unitsPerDisk, s.UnitSize()), lat: lat},
			slowDisk{Disk: NewMemDisk(s.unitsPerDisk, s.UnitSize()), lat: lat},
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Fail(v1); err != nil {
				b.Fatal(err)
			}
			if err := s.Fail(v2); err != nil {
				b.Fatal(err)
			}
			for j := range spares {
				if err := s.Rebuild(spares[j]); err != nil {
					b.Fatal(err)
				}
			}
			// The detached victims become the next blank spares.
			s.admin.Lock()
			spares[0] = s.detached[len(s.detached)-2]
			spares[1] = s.detached[len(s.detached)-1]
			s.detached = s.detached[:len(s.detached)-2]
			s.admin.Unlock()
		}
	})
}
