package store

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// benchStore builds the paper's 21-disk, G=5 (α=0.2) array over
// in-memory backends, pre-filled, returning the store and its disk
// handles (so rebuild benchmarks can recycle detached disks as
// replacements instead of allocating per cycle).
func benchStore(b *testing.B) (*Store, []Disk) {
	b.Helper()
	lay := testLayout(b, 21, 5)
	const units, us = 210, 4096
	disks := make([]Disk, lay.Disks())
	for i := range disks {
		disks[i] = NewMemDisk(units, us)
	}
	s, err := New(Config{Layout: lay, UnitsPerDisk: units, UnitSize: us, Disks: disks})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	buf := make([]byte, us)
	for n := int64(0); n < s.DataUnits(); n++ {
		fill(buf, n, 1)
		if err := s.WriteUnit(n, buf); err != nil {
			b.Fatal(err)
		}
	}
	return s, disks
}

// runClients drives the store from GOMAXPROCS client goroutines at the
// given read fraction and reports unit throughput.
func runClients(b *testing.B, s *Store, readFrac float64) {
	b.Helper()
	total := s.DataUnits()
	readCut := int64(readFrac * float64(1<<32))
	var seed atomic.Int64
	b.SetBytes(int64(s.UnitSize()))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		buf := make([]byte, s.UnitSize())
		for pb.Next() {
			n := rng.Int63n(total)
			if int64(rng.Uint32()) < readCut {
				if err := s.ReadUnit(n, buf); err != nil {
					panic(err)
				}
			} else {
				fill(buf, n, 2)
				if err := s.WriteUnit(n, buf); err != nil {
					panic(err)
				}
			}
		}
	})
	b.StopTimer()
}

// BenchmarkStoreFaultFreeOps measures the healthy array under the
// paper's 50/50 read/write mix from GOMAXPROCS concurrent clients.
func BenchmarkStoreFaultFreeOps(b *testing.B) {
	s, _ := benchStore(b)
	runClients(b, s, 0.5)
}

// BenchmarkStoreDegradedOps measures the same mix with one disk failed
// and no replacement: lost reads pay G−1-wide on-the-fly XOR
// reconstruction, lost writes fold into parity.
func BenchmarkStoreDegradedOps(b *testing.B) {
	s, _ := benchStore(b)
	if err := s.Fail(7); err != nil {
		b.Fatal(err)
	}
	runClients(b, s, 0.5)
}

// slowDisk wraps a backend with a fixed per-access latency drawn from a
// shared, switchable knob. Real disks cost milliseconds per access; the
// parallel fast path exists to overlap those waits across the array's
// independent devices, so these benchmarks measure wall-clock with
// latency injected — which also makes the speedup visible on single-core
// CI, where CPU parallelism alone would show nothing. The knob starts at
// zero so the pre-fill runs at memory speed.
type slowDisk struct {
	Disk
	lat *atomic.Int64 // nanoseconds per access, shared across the array
}

func (d slowDisk) ReadUnit(off int64, p []byte) error {
	if l := d.lat.Load(); l > 0 {
		time.Sleep(time.Duration(l))
	}
	return d.Disk.ReadUnit(off, p)
}

func (d slowDisk) WriteUnit(off int64, p []byte) error {
	if l := d.lat.Load(); l > 0 {
		time.Sleep(time.Duration(l))
	}
	return d.Disk.WriteUnit(off, p)
}

// benchLatency is the per-access latency the Store* wall-clock benchmarks
// inject once their stores are filled.
const benchLatency = 100 * time.Microsecond

// latStore builds the paper's 21-disk, G=5 array over latency-injected
// in-memory backends with the given worker configuration, pre-filled at
// full speed; the returned knob arms the latency.
func latStore(b *testing.B, units int64, ioWorkers, rebuildWorkers int) (*Store, *atomic.Int64) {
	b.Helper()
	lay := testLayout(b, 21, 5)
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

// workerVariants runs fn as serial (IOWorkers=1) and parallel
// (IOWorkers=8, RebuildWorkers=4) sub-benchmarks so the fan-out speedup
// is a single benchdiff line apart.
func workerVariants(b *testing.B, units int64, fn func(b *testing.B, s *Store, lat *atomic.Int64)) {
	b.Run("serial", func(b *testing.B) {
		s, lat := latStore(b, units, 1, 1)
		fn(b, s, lat)
	})
	b.Run("parallel", func(b *testing.B) {
		s, lat := latStore(b, units, 8, 4)
		fn(b, s, lat)
	})
}

// BenchmarkStoreDegradedRead measures a single client reading lost units:
// every read XOR-reconstructs from the stripe's G−1=4 survivors, whose
// reads the parallel store overlaps.
func BenchmarkStoreDegradedRead(b *testing.B) {
	workerVariants(b, 105, func(b *testing.B, s *Store, _ *atomic.Int64) {
		const victim = 7
		if err := s.Fail(victim); err != nil {
			b.Fatal(err)
		}
		var lost []int64
		for n := int64(0); n < s.DataUnits(); n++ {
			if s.mapper.Loc(n).Disk == victim {
				lost = append(lost, n)
			}
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

// benchSmallWrite measures a single client's healthy unit writes: the
// read-modify-write whose accesses the parallel store issues as two
// overlapped rounds.
func benchSmallWrite(b *testing.B, s *Store) {
	buf := make([]byte, s.UnitSize())
	total := s.DataUnits()
	b.SetBytes(int64(s.UnitSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := int64(i) % total
		fill(buf, n, 2)
		if err := s.WriteUnit(n, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreSmallWrite measures the healthy single-parity small
// write: four accesses (read data+P, write data+P), four device waits
// serial and two overlapped. BenchmarkStorePQWriteRMW is its P+Q twin:
// six waits serial, two overlapped.
func BenchmarkStoreSmallWrite(b *testing.B) {
	workerVariants(b, 105, func(b *testing.B, s *Store, _ *atomic.Int64) { benchSmallWrite(b, s) })
}

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
				if err := s.fanOut(2, item); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreRangeRead measures an 8-stripe (32-unit) sequential read,
// which the parallel store decomposes into per-stripe jobs.
func BenchmarkStoreRangeRead(b *testing.B) {
	workerVariants(b, 105, func(b *testing.B, s *Store, _ *atomic.Int64) {
		const units = 32
		buf := make([]byte, units*s.UnitSize())
		spans := s.DataUnits() - units + 1
		b.SetBytes(int64(len(buf)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.ReadRange((int64(i)*units)%spans, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStoreRangeWrite measures an 8-stripe aligned sequential write:
// every stripe takes the large-write path (parity from new contents, no
// pre-reads) and the parallel store fans both the stripe jobs and each
// stripe's G commit writes.
func BenchmarkStoreRangeWrite(b *testing.B) {
	workerVariants(b, 105, func(b *testing.B, s *Store, _ *atomic.Int64) {
		units := int64(8 * (s.lay.G() - 1))
		buf := make([]byte, units*int64(s.UnitSize()))
		for u := int64(0); u < units; u++ {
			fill(buf[u*int64(s.UnitSize()):(u+1)*int64(s.UnitSize())], u, 2)
		}
		starts := (s.DataUnits() / units) * units
		b.SetBytes(int64(len(buf)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.WriteRange((int64(i)*units)%starts, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStoreRebuild measures the full rebuild sweep's wall-clock:
// each iteration fails disk 7 and rebuilds it onto a spare. The parallel
// store shards the sweep across RebuildWorkers and overlaps each shard's
// G−1 survivor reads.
func BenchmarkStoreRebuild(b *testing.B) {
	workerVariants(b, 45, func(b *testing.B, s *Store, lat *atomic.Int64) {
		const victim = 7
		var spare Disk = slowDisk{Disk: NewMemDisk(s.unitsPerDisk, s.UnitSize()), lat: lat}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Fail(victim); err != nil {
				b.Fatal(err)
			}
			if err := s.Rebuild(spare); err != nil {
				b.Fatal(err)
			}
			// The detached victim becomes the next blank spare.
			s.admin.Lock()
			spare = s.detached[len(s.detached)-1]
			s.detached = s.detached[:len(s.detached)-1]
			s.admin.Unlock()
		}
	})
}

// BenchmarkStoreParallelClients measures 8 concurrent clients on a
// degraded latency-injected store at the paper's 50/50 mix — the
// continuous-operation scenario where user load and wide reconstruction
// reads contend for the disks.
func BenchmarkStoreParallelClients(b *testing.B) {
	workerVariants(b, 105, func(b *testing.B, s *Store, _ *atomic.Int64) {
		if err := s.Fail(7); err != nil {
			b.Fatal(err)
		}
		const clients = 8
		total := s.DataUnits()
		var next atomic.Int64
		b.SetBytes(int64(s.UnitSize()))
		b.ResetTimer()
		var wg sync.WaitGroup
		wg.Add(clients)
		for c := 0; c < clients; c++ {
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(c) + 1))
				buf := make([]byte, s.UnitSize())
				for next.Add(1) <= int64(b.N) {
					n := rng.Int63n(total)
					if rng.Intn(2) == 0 {
						if err := s.ReadUnit(n, buf); err != nil {
							panic(err)
						}
					} else {
						fill(buf, n, 3)
						if err := s.WriteUnit(n, buf); err != nil {
							panic(err)
						}
					}
				}
			}(c)
		}
		wg.Wait()
	})
}

// BenchmarkStoreRebuildingOps measures the mix while the array is
// continuously failing and rebuilding in the background — the paper's
// continuous-operation scenario as a throughput number.
func BenchmarkStoreRebuildingOps(b *testing.B) {
	s, disks := benchStore(b)
	const victim = 7
	spare := NewMemDisk(s.unitsPerDisk, s.UnitSize())
	stop := make(chan struct{})
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		cur := disks[victim]
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Fail(victim); err != nil {
				panic(err)
			}
			if err := s.Rebuild(spare); err != nil {
				panic(err)
			}
			// The detached disk becomes the next blank replacement.
			cur, spare = spare, cur
		}
	}()
	runClients(b, s, 0.5)
	close(stop)
	<-churnDone
}
