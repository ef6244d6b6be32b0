package store

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"declust/internal/layout"
)

// These tests pin what the engine overlaps and when. The first group
// proves overlap without a clock: backends that answer only while enough
// accesses are in flight at once, so a serial engine would hang (and the
// test's watchdog turn that into a failure). The second pins the gate:
// what a store observes of its backends decides whether it fans out.

// setOverlapThreshold fixes the gate's threshold for every store built
// for the rest of the test.
func setOverlapThreshold(t testing.TB, d time.Duration) {
	t.Helper()
	old := overlapThreshold
	overlapThreshold = d
	t.Cleanup(func() { overlapThreshold = old })
}

// forceOverlap makes every store built for the rest of the test fan out
// every batch it can, whatever its backends' speed, so the overlapped
// paths run under -race on memory disks.
func forceOverlap(t testing.TB) { setOverlapThreshold(t, 0) }

// fanOutFunc issues a batch whose items are calls of fn, for tests that
// drive fanOut directly.
func (s *Store) fanOutFunc(n int, fn func(int) error) error {
	return fanOut(s, n, fn, func(fn func(int) error, i int) error { return fn(i) })
}

// errStuck is what a rendezvous backend answers when the accesses it was
// promised never came. It wraps ErrDiskFailed so the engine does not
// retry it.
var errStuck = fmt.Errorf("no overlapping access arrived: %w", ErrDiskFailed)

// stuckAfter bounds every wait below: reached only by a failing test.
const stuckAfter = 5 * time.Second

// meeting is a barrier shared by the disks of an array. While armed for n
// parties, an access returns only once n accesses are in flight together.
type meeting struct {
	mu      sync.Mutex
	n       int // 0: not armed
	waiting int
	release chan struct{} // closed when the current meeting's last party arrives
	met     int           // meetings held
}

func (m *meeting) arm(n int) {
	m.mu.Lock()
	m.n, m.waiting, m.release = n, 0, make(chan struct{})
	m.mu.Unlock()
}

func (m *meeting) join() error {
	m.mu.Lock()
	if m.n == 0 {
		m.mu.Unlock()
		return nil
	}
	m.waiting++
	ch := m.release
	if m.waiting == m.n {
		m.waiting, m.release = 0, make(chan struct{})
		m.met++
		m.mu.Unlock()
		close(ch)
		return nil
	}
	m.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-time.After(stuckAfter):
		return errStuck
	}
}

// hook holds every unit access at the meeting.
func (m *meeting) hook(c call, pass func() error) error {
	if c.access() {
		if err := m.join(); err != nil {
			return err
		}
	}
	return pass()
}

func meetStore(t *testing.T, lay layout.Layout) (*Store, *meeting) {
	t.Helper()
	forceOverlap(t)
	m := new(meeting)
	s := scriptedStore(t, Config{Layout: lay, UnitsPerDisk: 48, UnitSize: 512, IOWorkers: 4}, m.hook)
	fillAll(t, s, 1)
	return s, m
}

// TestOverlapSmallWriteIsTwoRounds: a healthy unit write is two rounds of
// accesses, each wholly in flight at once — P and old data, then data and
// P; under P+Q three and three.
func TestOverlapSmallWriteIsTwoRounds(t *testing.T) {
	for _, tc := range []struct {
		name  string
		lay   func(testing.TB, int, int) layout.Layout
		width int // accesses per round
	}{
		{"P", testLayout, 2},
		{"P+Q", testPQLayout, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, m := meetStore(t, tc.lay(t, 7, 4))
			before := s.Stats().FanOuts
			const writes = 16
			buf := make([]byte, s.UnitSize())
			m.arm(tc.width)
			for n := int64(0); n < writes; n++ {
				fill(buf, n*3, 2)
				if err := s.WriteUnit(n*3, buf); err != nil {
					t.Fatalf("WriteUnit(%d): %v", n*3, err)
				}
			}
			m.arm(0)
			if m.met != 2*writes {
				t.Fatalf("%d writes held %d rounds of %d overlapped accesses, want %d", writes, m.met, tc.width, 2*writes)
			}
			if got := s.Stats().FanOuts - before; got != 2*writes {
				t.Fatalf("Stats.FanOuts grew by %d over %d writes, want %d", got, writes, 2*writes)
			}
			for n := int64(0); n < writes; n++ {
				verifyUnit(t, s, n*3, 2)
			}
			if err := s.CheckParity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOverlapDegradedAndRangeReads: a lost unit's G−1 survivors are read
// as one round, and so are the units of a range read inside one stripe.
func TestOverlapDegradedAndRangeReads(t *testing.T) {
	lay := testLayout(t, 7, 4)
	s, m := meetStore(t, lay)
	buf := make([]byte, 3*s.UnitSize())

	m.arm(3) // stripe 2's three data units
	if err := s.ReadRange(6, buf); err != nil {
		t.Fatalf("ReadRange inside one stripe: %v", err)
	}
	m.arm(0)
	if m.met != 1 {
		t.Fatalf("a one-stripe range read held %d rounds, want 1", m.met)
	}

	const victim = 3
	if err := s.Fail(victim); err != nil {
		t.Fatal(err)
	}
	var lost int64 = -1
	for n := int64(0); n < s.DataUnits(); n++ {
		if layout.DataLoc(s.lay, n).Disk == victim {
			lost = n
			break
		}
	}
	m.arm(lay.G() - 1)
	if err := s.ReadUnit(lost, buf[:s.UnitSize()]); err != nil {
		t.Fatalf("degraded ReadUnit(%d): %v", lost, err)
	}
	m.arm(0)
	if m.met != 2 {
		t.Fatalf("a degraded read did not gather its %d survivors as one round", lay.G()-1)
	}
	verifyUnit(t, s, lost, 1)
}

// sweepWatch lets a replacement disk wait for the sweep's next gather: it
// counts the array's reads and wakes waiters at each.
type sweepWatch struct {
	mu      sync.Mutex
	reads   int
	changed chan struct{}
}

func (w *sweepWatch) noteRead() {
	w.mu.Lock()
	w.reads++
	close(w.changed)
	w.changed = make(chan struct{})
	w.mu.Unlock()
}

// waitReads returns once the array has seen n reads.
func (w *sweepWatch) waitReads(n int) error {
	w.mu.Lock()
	for w.reads < n {
		ch := w.changed
		w.mu.Unlock()
		select {
		case <-ch:
		case <-time.After(stuckAfter):
			return errStuck
		}
		w.mu.Lock()
	}
	w.mu.Unlock()
	return nil
}

// TestOverlapRebuildWriteBehind: the sweep gathers unit k+1's survivors
// while unit k's replacement write is still in flight.
func TestOverlapRebuildWriteBehind(t *testing.T) {
	forceOverlap(t)
	lay := testLayout(t, 7, 4)
	w := &sweepWatch{changed: make(chan struct{})}
	s := scriptedStore(t, Config{Layout: lay, UnitsPerDisk: 48, UnitSize: 512, IOWorkers: 4, RebuildWorkers: 1},
		func(c call, pass func() error) error {
			if c.op == opRead {
				w.noteRead()
			}
			return pass()
		})
	fillAll(t, s, 1)
	if err := s.Fail(2); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	w.reads = 0 // the fill's pre-reads
	w.mu.Unlock()
	// A one-worker sweep over a quiet array reads G−1 survivors per unit,
	// so the replacement's write of unit k follows exactly (k+1)·(G−1)
	// reads: every write but the last returns only once the sweep has gone
	// on to read for unit k+1.
	_, total := s.RebuildProgress()
	behind := &scriptedDisk{under: NewMemDisk(48, 512), slot: 2, hook: func(c call, pass func() error) error {
		if c.op == opWrite && c.off < total-1 {
			if err := w.waitReads(int(c.off+1)*(lay.G()-1) + 1); err != nil {
				return err
			}
		}
		return pass()
	}}
	if err := s.Rebuild(behind); err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	for n := int64(0); n < s.DataUnits(); n++ {
		verifyUnit(t, s, n, 1)
	}
	if err := s.CheckParity(); err != nil {
		t.Fatal(err)
	}
}

// errPlanted is the failure a test plants. It wraps ErrDiskFailed so the
// engine does not retry it.
var errPlanted = fmt.Errorf("planted: %w", ErrDiskFailed)

// TestOverlapRebuildWriteBehindFailure: a write left behind that fails is
// found when the worker joins it — after the next unit's gather, which
// here fails too — and the rebuild reports the lower offset of the two
// and leaves every stripe unlocked.
func TestOverlapRebuildWriteBehindFailure(t *testing.T) {
	forceOverlap(t)
	lay := testLayout(t, 7, 4)
	const target, k = 2, 10
	next := layout.RebuildSources(lay, layout.Loc{Disk: target, Offset: k + 1})[0]
	s := scriptedStore(t, Config{Layout: lay, UnitsPerDisk: 48, UnitSize: 512, IOWorkers: 4, RebuildWorkers: 1},
		failAt(opRead, next))
	buf := make([]byte, s.UnitSize())
	for n := int64(0); n < s.DataUnits(); n++ {
		if stripe, _ := lay.Locate(next); n/s.dataPerStripe == stripe {
			continue // its pre-reads would hit the planted read error
		}
		fill(buf, n, 1)
		if err := s.WriteUnit(n, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Fail(target); err != nil {
		t.Fatal(err)
	}
	err := s.Rebuild(&scriptedDisk{under: NewMemDisk(48, 512), slot: target, hook: failAt(opWrite, layout.Loc{Disk: target, Offset: k})})
	if !errors.Is(err, errPlanted) {
		t.Fatalf("Rebuild = %v, want the planted failure", err)
	}
	if want := fmt.Sprint(layout.Loc{Disk: target, Offset: k}); !strings.Contains(err.Error(), want) {
		t.Fatalf("Rebuild = %q, want the failed write-behind of %s — the lower offset", err, want)
	}
	for i := range s.locks.locks {
		if !s.locks.locks[i].TryLock() {
			t.Fatalf("stripe lock %d still held after the failed rebuild", i)
		}
		s.locks.locks[i].Unlock()
	}
}

// TestOverlapGateShutOnMemory: over memory disks a parallel store never
// pays for a hand-off — every batch of the whole lifecycle runs inline.
func TestOverlapGateShutOnMemory(t *testing.T) {
	for _, tc := range []struct {
		name string
		lay  layout.Layout
	}{
		{"P", testLayout(t, 7, 4)},
		{"P+Q", testPQLayout(t, 7, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := openStore(t, Config{Layout: tc.lay, UnitsPerDisk: 48, UnitSize: 512, IOWorkers: 8, RebuildWorkers: 2})
			fillAll(t, s, 1)
			buf := make([]byte, 8*s.UnitSize())
			if err := s.WriteRange(1, buf); err != nil {
				t.Fatal(err)
			}
			if err := s.Fail(1); err != nil {
				t.Fatal(err)
			}
			if err := s.ReadRange(0, buf); err != nil {
				t.Fatal(err)
			}
			if err := s.Rebuild(NewMemDisk(48, 512)); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.FanOuts != 0 || st.FanOutsInline == 0 {
				t.Fatalf("memory-backed store: FanOuts=%d FanOutsInline=%d (device latency %v), want none fanned out",
					st.FanOuts, st.FanOutsInline, st.DeviceLatency)
			}
			if st.DeviceLatency <= 0 || st.DeviceLatency >= overlapThreshold {
				t.Fatalf("DeviceLatency = %v over memory disks, want within (0, %v)", st.DeviceLatency, overlapThreshold)
			}
		})
	}
}

// TestOverlapGateFollowsDeviceLatency: the gate opens within two timed
// accesses of the backends turning slow, and shuts again — within the
// accesses the moving average needs to decay — once they are fast.
func TestOverlapGateFollowsDeviceLatency(t *testing.T) {
	// Every access sleeps for lat, which starts at zero so the fill runs
	// at memory speed.
	var lat atomic.Int64
	s := scriptedStore(t, Config{Layout: testLayout(t, 7, 4), UnitsPerDisk: 48, UnitSize: 512, IOWorkers: 4},
		func(c call, pass func() error) error {
			if l := lat.Load(); l > 0 && c.access() {
				time.Sleep(time.Duration(l))
			}
			return pass()
		})
	fillAll(t, s, 1)
	if st := s.Stats(); st.FanOuts != 0 {
		t.Fatalf("FanOuts = %d before any latency was injected", st.FanOuts)
	}

	// Slow: the second timed access of a millisecond running lifts the
	// average over the threshold, and one access in sampleEvery is timed —
	// four unit writes, and the fifth fans out.
	lat.Store(int64(time.Millisecond))
	buf := make([]byte, s.UnitSize())
	const slowWrites = 2*sampleEvery/4 + 1
	for n := int64(0); n < slowWrites; n++ {
		if err := s.WriteUnit(n, buf); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.FanOuts == 0 || st.DeviceLatency < overlapThreshold {
		t.Fatalf("after %d slow accesses: FanOuts=%d DeviceLatency=%v, want the gate open", slowWrites*4, st.FanOuts, st.DeviceLatency)
	}

	// Fast again: each timed access takes an eighth off the average, so
	// from a few milliseconds it is under the threshold within 64 samples.
	lat.Store(0)
	for n := int64(0); n < 64*sampleEvery/4; n++ {
		if err := s.WriteUnit(n%s.DataUnits(), buf); err != nil {
			t.Fatal(err)
		}
	}
	shut := s.Stats()
	for n := int64(0); n < 8; n++ {
		if err := s.WriteUnit(n, buf); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.FanOuts != shut.FanOuts || st.DeviceLatency >= overlapThreshold {
		t.Fatalf("%d fast accesses on: FanOuts %d → %d, DeviceLatency=%v, want the gate shut",
			64*sampleEvery, shut.FanOuts, st.FanOuts, st.DeviceLatency)
	}
}

// TestOverlapHealedSpanCountsDegradedReadsOnce: a span's read batch that
// meets damage serves nothing, and the span, the damaged unit and the lost
// one with it, is served again under the write lock (serveSpan); the lost
// unit is counted in Stats.DegradedReads once. The damage is a media error
// on the first read of the span's second unit, in the batch that also
// decodes the first, and does not recur.
func TestOverlapHealedSpanCountsDegradedReadsOnce(t *testing.T) {
	forceOverlap(t)
	lay := testLayout(t, 7, 4)
	lost, flaky := layout.DataLoc(lay, 0), layout.DataLoc(lay, 1)
	var armed, struck atomic.Bool
	s := scriptedStore(t, Config{Layout: lay, UnitsPerDisk: 48, UnitSize: 512, IOWorkers: 4},
		func(c call, pass func() error) error {
			if c.op != opRead || c.disk != flaky.Disk || c.off != flaky.Offset || !armed.Load() || !struck.CompareAndSwap(false, true) {
				return pass()
			}
			return fmt.Errorf("planted: %w", ErrMedia)
		})
	fillAll(t, s, 1)
	if err := s.Fail(lost.Disk); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)

	before := s.Stats()
	got := make([]byte, 3*s.UnitSize())
	if err := s.ReadRange(0, got); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, s.UnitSize())
	for n := 0; n < 3; n++ {
		fill(want, int64(n), 1)
		if !bytes.Equal(got[n*s.UnitSize():(n+1)*s.UnitSize()], want) {
			t.Fatalf("unit %d: range read does not match what was written", n)
		}
	}
	after := s.Stats()
	if after.MediaErrors != before.MediaErrors+1 {
		t.Fatalf("MediaErrors %d -> %d: the planted error did not strike the batch", before.MediaErrors, after.MediaErrors)
	}
	if d := after.DegradedReads - before.DegradedReads; d != 1 {
		t.Fatalf("DegradedReads rose by %d for a span with one lost unit", d)
	}
}

// TestOverlapDamagedSpanCountsDegradedReadsOnce: the same count when the
// damage is a latent sector error, which also fails the lost unit's own
// reconstruction until the sweep's healing read absorbs it — P+Q, so that
// a lost and a damaged unit in one stripe are still recoverable.
func TestOverlapDamagedSpanCountsDegradedReadsOnce(t *testing.T) {
	forceOverlap(t)
	latent := new(latentUnits)
	s := scriptedStore(t, Config{Layout: testPQLayout(t, 7, 5), UnitsPerDisk: 48, UnitSize: 512, IOWorkers: 4}, latent.hook)
	fillAll(t, s, 1)
	lost, live := layout.DataLoc(s.lay, 0), layout.DataLoc(s.lay, 1)
	if err := s.Fail(lost.Disk); err != nil {
		t.Fatal(err)
	}
	latent.add(live)
	before := s.Stats().DegradedReads
	if err := s.ReadRange(0, make([]byte, 3*s.UnitSize())); err != nil {
		t.Fatal(err)
	}
	if d := s.Stats().DegradedReads - before; d != 1 {
		t.Fatalf("DegradedReads rose by %d for a span with one lost unit", d)
	}
	if latent.healed.Load() != 1 {
		t.Fatal("the range read did not heal the latent sector")
	}
}
