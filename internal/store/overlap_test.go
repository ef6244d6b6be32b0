package store

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
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

type meetDisk struct {
	Disk
	m *meeting
}

func (d meetDisk) ReadUnit(off int64, p []byte) error {
	if err := d.m.join(); err != nil {
		return err
	}
	return d.Disk.ReadUnit(off, p)
}

func (d meetDisk) WriteUnit(off int64, p []byte) error {
	if err := d.m.join(); err != nil {
		return err
	}
	return d.Disk.WriteUnit(off, p)
}

func meetStore(t *testing.T, lay layout.Layout) (*Store, *meeting) {
	t.Helper()
	forceOverlap(t)
	m := new(meeting)
	disks := make([]Disk, lay.Disks())
	for i := range disks {
		disks[i] = meetDisk{Disk: NewMemDisk(48, 512), m: m}
	}
	s, err := New(Config{Layout: lay, UnitsPerDisk: 48, UnitSize: 512, Disks: disks, IOWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
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
		if s.mapper.Loc(n).Disk == victim {
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

type watchedDisk struct {
	Disk
	w *sweepWatch
}

func (d watchedDisk) ReadUnit(off int64, p []byte) error {
	d.w.noteRead()
	return d.Disk.ReadUnit(off, p)
}

// behindDisk is the replacement of a one-worker sweep over a quiet array,
// where unit k's write follows exactly (k+1)·gather reads: every write but
// the last returns only once the sweep has gone on to read for unit k+1.
type behindDisk struct {
	Disk
	w      *sweepWatch
	gather int // reads per rebuilt unit
	last   int64
}

func (d behindDisk) WriteUnit(off int64, p []byte) error {
	if off < d.last {
		if err := d.w.waitReads(int(off+1)*d.gather + 1); err != nil {
			return err
		}
	}
	return d.Disk.WriteUnit(off, p)
}

// TestOverlapRebuildWriteBehind: the sweep gathers unit k+1's survivors
// while unit k's replacement write is still in flight.
func TestOverlapRebuildWriteBehind(t *testing.T) {
	forceOverlap(t)
	lay := testLayout(t, 7, 4)
	w := &sweepWatch{changed: make(chan struct{})}
	disks := make([]Disk, lay.Disks())
	for i := range disks {
		disks[i] = watchedDisk{Disk: NewMemDisk(48, 512), w: w}
	}
	s, err := New(Config{Layout: lay, UnitsPerDisk: 48, UnitSize: 512, Disks: disks, IOWorkers: 4, RebuildWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillAll(t, s, 1)
	if err := s.Fail(2); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	w.reads = 0 // the fill's pre-reads
	w.mu.Unlock()
	_, total := s.RebuildProgress()
	if err := s.Rebuild(behindDisk{Disk: NewMemDisk(48, 512), w: w, gather: lay.G() - 1, last: total - 1}); err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	for n := int64(0); n < s.DataUnits(); n++ {
		verifyUnit(t, s, n, 1)
	}
	if err := s.CheckParity(); err != nil {
		t.Fatal(err)
	}
}

// failAtDisk fails, without retry, reads or writes at the listed offsets.
type failAtDisk struct {
	Disk
	reads, writes map[int64]bool
}

var errPlanted = fmt.Errorf("planted: %w", ErrDiskFailed)

func (d failAtDisk) ReadUnit(off int64, p []byte) error {
	if d.reads[off] {
		return errPlanted
	}
	return d.Disk.ReadUnit(off, p)
}

func (d failAtDisk) WriteUnit(off int64, p []byte) error {
	if d.writes[off] {
		return errPlanted
	}
	return d.Disk.WriteUnit(off, p)
}

// TestOverlapRebuildWriteBehindFailure: a write left behind that fails is
// found when the worker joins it — after the next unit's gather, which
// here fails too — and the rebuild reports the lower offset of the two
// and leaves every stripe unlocked.
func TestOverlapRebuildWriteBehindFailure(t *testing.T) {
	forceOverlap(t)
	lay := testLayout(t, 7, 4)
	const target, k = 2, 10
	next := layout.SurvivingUnits(lay, layout.Loc{Disk: target, Offset: k + 1})[0]
	disks := make([]Disk, lay.Disks())
	for i := range disks {
		disks[i] = NewMemDisk(48, 512)
	}
	disks[next.Disk] = failAtDisk{Disk: disks[next.Disk], reads: map[int64]bool{next.Offset: true}}
	s, err := New(Config{Layout: lay, UnitsPerDisk: 48, UnitSize: 512, Disks: disks, IOWorkers: 4, RebuildWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
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
	err = s.Rebuild(failAtDisk{Disk: NewMemDisk(48, 512), writes: map[int64]bool{k: true}})
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
			s, err := New(Config{Layout: tc.lay, UnitsPerDisk: 48, UnitSize: 512, IOWorkers: 8, RebuildWorkers: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
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

// slowDisk wraps a backend with a fixed per-access latency drawn from a
// shared, switchable knob. The knob starts at zero so a pre-fill runs at
// memory speed.
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

// TestOverlapGateFollowsDeviceLatency: the gate opens within two timed
// accesses of the backends turning slow, and shuts again — within the
// accesses the moving average needs to decay — once they are fast.
func TestOverlapGateFollowsDeviceLatency(t *testing.T) {
	lay := testLayout(t, 7, 4)
	lat := new(atomic.Int64)
	disks := make([]Disk, lay.Disks())
	for i := range disks {
		disks[i] = slowDisk{Disk: NewMemDisk(48, 512), lat: lat}
	}
	s, err := New(Config{Layout: lay, UnitsPerDisk: 48, UnitSize: 512, Disks: disks, IOWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
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

// inGather reports whether the caller is running inside Store.gather — a
// survivor read of a reconstruction or a pre-read, not a unit's direct
// read. It is how a test disk tells apart two reads of one unit that the
// Disk interface shows it identically. The match is by name: should gather
// be renamed, mediaOnceDisk's direct read waits for a gather that never
// shows and its test fails, loudly.
func inGather() bool {
	pcs := make([]uintptr, 32)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if strings.Contains(f.Function, "(*Store).gather") {
			return true
		}
		if !more {
			return false
		}
	}
}

// mediaOnceDisk answers, once armed, the first direct read of one offset
// with a media error — and holds that read until a gather's read of the
// same offset has returned clean, so the order of the two is the disk's
// doing, not the scheduler's. Every other access passes through.
type mediaOnceDisk struct {
	Disk
	off      int64
	armed    atomic.Bool
	struck   atomic.Bool
	once     sync.Once
	gathered chan struct{} // closed when a gather has read off
}

func (d *mediaOnceDisk) ReadUnit(off int64, p []byte) error {
	if off != d.off || !d.armed.Load() {
		return d.Disk.ReadUnit(off, p)
	}
	if inGather() {
		err := d.Disk.ReadUnit(off, p)
		d.once.Do(func() { close(d.gathered) })
		return err
	}
	if !d.struck.CompareAndSwap(false, true) {
		return d.Disk.ReadUnit(off, p)
	}
	select {
	case <-d.gathered:
		return fmt.Errorf("planted: %w", ErrMedia)
	case <-time.After(stuckAfter):
		return errStuck
	}
}

// TestOverlapAbandonedReadBatchCountsDegradedReadsOnce: a span's read
// batch that meets damage is abandoned for the healing sweep, which reads
// the span again; a lost unit the batch had already reconstructed must not
// be counted in Stats.DegradedReads a second time. The damaged read is the
// span's second unit read directly; its read inside the first unit's
// reconstruction is clean, and the disk makes it the earlier of the two
// however the batch's items are scheduled.
func TestOverlapAbandonedReadBatchCountsDegradedReadsOnce(t *testing.T) {
	forceOverlap(t)
	lay := testLayout(t, 7, 4)
	lost, flaky := layout.DataLoc(lay, 0), layout.DataLoc(lay, 1)
	disks := make([]Disk, lay.Disks())
	for i := range disks {
		disks[i] = NewMemDisk(48, 512)
	}
	once := &mediaOnceDisk{Disk: disks[flaky.Disk], off: flaky.Offset, gathered: make(chan struct{})}
	disks[flaky.Disk] = once
	s, err := New(Config{Layout: lay, UnitsPerDisk: 48, UnitSize: 512, Disks: disks, IOWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillAll(t, s, 1)
	if err := s.Fail(lost.Disk); err != nil {
		t.Fatal(err)
	}
	once.armed.Store(true)

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
	s, fds := faultStore(t, 7, 5, 48, 512,
		func(int) FaultConfig { return FaultConfig{} },
		Config{Layout: testPQLayout(t, 7, 5), IOWorkers: 4})
	fillAll(t, s, 1)
	lost, live := s.mapper.Loc(0), s.mapper.Loc(1)
	if err := s.Fail(lost.Disk); err != nil {
		t.Fatal(err)
	}
	fds[live.Disk].InjectLSE(live.Offset)
	before := s.Stats().DegradedReads
	if err := s.ReadRange(0, make([]byte, 3*s.UnitSize())); err != nil {
		t.Fatal(err)
	}
	if d := s.Stats().DegradedReads - before; d != 1 {
		t.Fatalf("DegradedReads rose by %d for a span with one lost unit", d)
	}
	if fds[live.Disk].Stats().LSEHealed != 1 {
		t.Fatal("the range read did not heal the latent sector")
	}
}
