package store

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"declust/internal/layout"
)

// The bound on overlap is per batch: how many helpers a batch gets depends
// on the batch and on Config.IOWorkers, never on what other operations are
// doing. These tests pin that under concurrency, by rendezvous — a batch
// that was issued narrower than it should be hangs until the watchdog
// fails the test — and pin the other side too: nested batches stay within
// IOWorkers each, and every helper is gone when its operation returns.

// stripeMeet is the rendezvous of an array that several operations use at
// once. A stripe's lock admits one writer at a time, so the reads one
// operation has in flight are the reads of one stripe: while armed, a read
// returns only once `reads` reads of its stripe are in flight together, and
// a write once `writes` writes of its stripe are.
type stripeMeet struct {
	lay           layout.Layout
	mu            sync.Mutex
	reads, writes int // parties per meeting; 0: accesses of that kind pass
	held          map[stripeAccess]*meeting
}

type stripeAccess struct {
	stripe int64
	write  bool
}

func (sm *stripeMeet) arm(reads, writes int) {
	sm.mu.Lock()
	sm.reads, sm.writes, sm.held = reads, writes, map[stripeAccess]*meeting{}
	sm.mu.Unlock()
}

func (sm *stripeMeet) join(disk int, off int64, write bool) error {
	sm.mu.Lock()
	n := sm.reads
	if write {
		n = sm.writes
	}
	if n == 0 {
		sm.mu.Unlock()
		return nil
	}
	stripe, _ := sm.lay.Locate(layout.Loc{Disk: disk, Offset: off})
	k := stripeAccess{stripe, write}
	m := sm.held[k]
	if m == nil {
		m = new(meeting)
		m.arm(n)
		sm.held[k] = m
	}
	sm.mu.Unlock()
	return m.join()
}

// met returns the meetings held since arm; call it at quiesce.
func (sm *stripeMeet) met() int {
	total := 0
	for _, m := range sm.held {
		total += m.met
	}
	return total
}

type stripeMeetDisk struct {
	Disk
	n  int
	sm *stripeMeet
}

func (d stripeMeetDisk) ReadUnit(off int64, p []byte) error {
	if err := d.sm.join(d.n, off, false); err != nil {
		return err
	}
	return d.Disk.ReadUnit(off, p)
}

func (d stripeMeetDisk) WriteUnit(off int64, p []byte) error {
	if err := d.sm.join(d.n, off, true); err != nil {
		return err
	}
	return d.Disk.WriteUnit(off, p)
}

func stripeMeetStore(t *testing.T, lay layout.Layout, units int64, cfg Config) (*Store, *stripeMeet) {
	t.Helper()
	forceOverlap(t)
	sm := &stripeMeet{lay: lay}
	cfg.Disks = make([]Disk, lay.Disks())
	for i := range cfg.Disks {
		cfg.Disks[i] = stripeMeetDisk{Disk: NewMemDisk(units, 512), n: i, sm: sm}
	}
	cfg.Layout, cfg.UnitsPerDisk, cfg.UnitSize = lay, units, 512
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	fillAll(t, s, 1)
	return s, sm
}

// TestOverlapEverySweepGatherIsOneRound: with RebuildWorkers shards
// sweeping at once, every shard's gather still has all G−1 survivor reads
// in flight together — a rebuilt unit costs one device wait whatever the
// other shards are doing.
func TestOverlapEverySweepGatherIsOneRound(t *testing.T) {
	lay := testLayout(t, 11, 5)
	s, sm := stripeMeetStore(t, lay, 40, Config{IOWorkers: 4, RebuildWorkers: 4})
	if err := s.Fail(3); err != nil {
		t.Fatal(err)
	}
	sm.arm(lay.G()-1, 0)
	if err := s.Rebuild(NewMemDisk(40, 512)); err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	if _, total := s.RebuildProgress(); int64(sm.met()) != total {
		t.Fatalf("%d rebuilt units held %d rounds of %d overlapped reads", total, sm.met(), lay.G()-1)
	}
	sm.arm(0, 0)
	for n := int64(0); n < s.DataUnits(); n++ {
		verifyUnit(t, s, n, 1)
	}
	if err := s.CheckParity(); err != nil {
		t.Fatal(err)
	}
}

// TestOverlapEveryClientWriteIsTwoRounds: sixteen clients at IOWorkers=4,
// and every one of their small writes still has its two pre-reads in
// flight together and then its two writes — a client's helper does not
// depend on how many other clients there are.
func TestOverlapEveryClientWriteIsTwoRounds(t *testing.T) {
	s, sm := stripeMeetStore(t, testLayout(t, 7, 4), 48, Config{IOWorkers: 4})
	const clients, writes = 16, 12
	sm.arm(2, 2)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := int64(0); c < clients; c++ {
		go func(c int64) {
			defer wg.Done()
			buf := make([]byte, s.UnitSize())
			for i := int64(0); i < writes; i++ {
				n := c + i*clients
				fill(buf, n, 2)
				if err := s.WriteUnit(n, buf); err != nil {
					t.Errorf("client %d: WriteUnit(%d): %v", c, n, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := sm.met(); got != 2*clients*writes {
		t.Fatalf("%d writes held %d overlapped rounds, want two each", clients*writes, got)
	}
	sm.arm(0, 0)
	for n := int64(0); n < clients*writes; n++ {
		verifyUnit(t, s, n, 2)
	}
	if err := s.CheckParity(); err != nil {
		t.Fatal(err)
	}
}

// flightCount watches the reads of one operation: how many are in flight,
// in how many stripes, and how many within one batch — a stripe's direct
// reads are its span's batch, its gather reads its lost unit's. The first
// `first` reads to arrive are held until all of them have, so the peaks
// below are those of a run in which the outermost batch did overlap.
type flightCount struct {
	lay     layout.Layout
	first   int
	arrived chan struct{} // closed when the first-th read arrives

	mu                                        sync.Mutex
	total, now                                int
	stripes, direct, gathered                 map[int64]int
	peak, peakStripes, peakDirect, peakGather int
}

func (fc *flightCount) enter(stripe int64, gather bool) (held bool) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.total++
	if fc.total == fc.first {
		close(fc.arrived)
	}
	batch, peak := fc.direct, &fc.peakDirect
	if gather {
		batch, peak = fc.gathered, &fc.peakGather
	}
	fc.now++
	fc.stripes[stripe]++
	batch[stripe]++
	fc.peak = max(fc.peak, fc.now)
	fc.peakStripes = max(fc.peakStripes, len(fc.stripes))
	*peak = max(*peak, batch[stripe])
	return fc.total < fc.first
}

func (fc *flightCount) leave(stripe int64, gather bool) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	batch := fc.direct
	if gather {
		batch = fc.gathered
	}
	fc.now--
	batch[stripe]--
	if fc.stripes[stripe]--; fc.stripes[stripe] == 0 {
		delete(fc.stripes, stripe)
	}
}

type flightDisk struct {
	Disk
	n  int
	fc *flightCount
}

func (d flightDisk) ReadUnit(off int64, p []byte) error {
	if d.fc.first == 0 {
		return d.Disk.ReadUnit(off, p)
	}
	stripe, _ := d.fc.lay.Locate(layout.Loc{Disk: d.n, Offset: off})
	gather := inGather()
	held := d.fc.enter(stripe, gather)
	defer d.fc.leave(stripe, gather)
	if held {
		select {
		case <-d.fc.arrived:
		case <-time.After(stuckAfter):
			return errStuck
		}
	}
	time.Sleep(50 * time.Microsecond) // lets the batch's other helpers get here too
	return d.Disk.ReadUnit(off, p)
}

// TestOverlapNestedBatchesAreBoundedEach: a degraded eight-stripe range
// read is three levels of batches — stripes, the units of a stripe's span,
// the survivors of a lost unit. With nothing shared between them each
// level is still bounded by IOWorkers, the read issues exactly the
// accesses it needs, and so never has more in flight than it has. At
// IOWorkers=8 no batch of this array is wider than the bound; at 3 every
// one is.
func TestOverlapNestedBatchesAreBoundedEach(t *testing.T) {
	for _, workers := range []int{8, 3} {
		t.Run(fmt.Sprintf("IOWorkers=%d", workers), func(t *testing.T) {
			forceOverlap(t)
			lay := testLayout(t, 11, 5)
			fc := &flightCount{lay: lay}
			disks := make([]Disk, lay.Disks())
			for i := range disks {
				disks[i] = flightDisk{Disk: NewMemDisk(40, 512), n: i, fc: fc}
			}
			s, err := New(Config{Layout: lay, UnitsPerDisk: 40, UnitSize: 512, Disks: disks, IOWorkers: workers})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			fillAll(t, s, 1)
			const stripes, victim = 8, 3
			if err := s.Fail(victim); err != nil {
				t.Fatal(err)
			}
			per := int(s.dataPerStripe)
			accesses := 0
			for n := int64(0); n < int64(stripes*per); n++ {
				if s.mapper.Loc(n).Disk == victim {
					accesses += lay.G() - 1
				} else {
					accesses++
				}
			}
			if accesses == stripes*per {
				t.Fatalf("disk %d holds no data unit of the first %d stripes", victim, stripes)
			}

			fc.arrived = make(chan struct{})
			fc.stripes, fc.direct, fc.gathered = map[int64]int{}, map[int64]int{}, map[int64]int{}
			fc.first = min(stripes, workers)
			got := make([]byte, stripes*per*s.UnitSize())
			if err := s.ReadRange(0, got); err != nil {
				t.Fatalf("ReadRange: %v", err)
			}
			want := make([]byte, s.UnitSize())
			for n := 0; n < stripes*per; n++ {
				fill(want, int64(n), 1)
				if !bytes.Equal(got[n*s.UnitSize():(n+1)*s.UnitSize()], want) {
					t.Fatalf("unit %d does not match what was written", n)
				}
			}
			if fc.total != accesses {
				t.Errorf("the read issued %d accesses, needs %d", fc.total, accesses)
			}
			if fc.peak < fc.first || fc.peak > accesses {
				t.Errorf("%d accesses in flight at the peak, want within [%d, %d]", fc.peak, fc.first, accesses)
			}
			for _, b := range []struct {
				what        string
				peak, items int
			}{
				{"stripes being read", fc.peakStripes, stripes},
				{"direct reads of one span", fc.peakDirect, per},
				{"survivor reads of one gather", fc.peakGather, lay.G() - 1},
			} {
				if b.peak > min(b.items, workers) {
					t.Errorf("%d %s at once, batch of %d", b.peak, b.what, b.items)
				}
			}
		})
	}
}

// TestOverlapLeavesNoGoroutines: helpers and write-behinds live exactly as
// long as the call that started them, on the failure path too.
func TestOverlapLeavesNoGoroutines(t *testing.T) {
	forceOverlap(t)
	s, err := New(Config{Layout: testLayout(t, 7, 4), UnitsPerDisk: 48, UnitSize: 512, IOWorkers: 4, RebuildWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillAll(t, s, 1)
	base := runtime.NumGoroutine()

	if err := s.Fail(2); err != nil {
		t.Fatal(err)
	}
	if err := s.ReadRange(0, make([]byte, 24*s.UnitSize())); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(NewMemDisk(48, 512)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Scrub(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckParity(); err != nil {
		t.Fatal(err)
	}
	err = s.fanOut(64, func(i int) error {
		if i == 5 {
			return errPlanted
		}
		return nil
	})
	if !errors.Is(err, errPlanted) {
		t.Fatalf("fanOut = %v, want the planted failure", err)
	}
	if st := s.Stats(); st.FanOuts == 0 || st.FanOutsInline != 0 {
		t.Fatalf("forced overlap: FanOuts=%d FanOutsInline=%d", st.FanOuts, st.FanOutsInline)
	}
	waitFor(t, "every helper to exit", func() bool { return runtime.NumGoroutine() <= base })
}

// TestOverlapCountsEachBatchOnce: FanOuts + FanOutsInline is the number of
// batches issued, whichever way the gate decides — two per healthy small
// write, one per rebuilt unit (the sweep's question about its write-behind
// is not a batch).
func TestOverlapCountsEachBatchOnce(t *testing.T) {
	for _, tc := range []struct {
		name      string
		threshold time.Duration
	}{{"gate open", 0}, {"gate shut", time.Hour}} {
		t.Run(tc.name, func(t *testing.T) {
			setOverlapThreshold(t, tc.threshold)
			s, err := New(Config{Layout: testLayout(t, 7, 4), UnitsPerDisk: 48, UnitSize: 512, IOWorkers: 4, RebuildWorkers: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			batches := func() int64 {
				st := s.Stats()
				if open := tc.threshold == 0; open != (st.FanOutsInline == 0) || open != (st.FanOuts != 0) {
					t.Fatalf("FanOuts=%d FanOutsInline=%d with the %s", st.FanOuts, st.FanOutsInline, tc.name)
				}
				return st.FanOuts + st.FanOutsInline
			}
			fillAll(t, s, 1)
			if got, want := batches(), 2*s.DataUnits(); got != want {
				t.Fatalf("%d healthy unit writes counted %d batches, want %d", s.DataUnits(), got, want)
			}
			if err := s.Fail(4); err != nil {
				t.Fatal(err)
			}
			before := batches()
			if err := s.Rebuild(NewMemDisk(48, 512)); err != nil {
				t.Fatal(err)
			}
			if got, want := batches()-before, s.Stats().RebuiltUnits; got != want {
				t.Fatalf("an idle rebuild of %d units counted %d batches", want, got)
			}
		})
	}
}
