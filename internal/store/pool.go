package store

import (
	"sync"
	"sync/atomic"
	"time"
)

// The parallel I/O fast path. A Store's disks are independent devices, so
// every multi-unit operation — the G−1 survivor reads of a degraded or
// healing read, the two rounds of a parity update (pre-reads, then data
// and parity writes), the units of a range read, the per-stripe jobs of a
// range operation, CheckParity's sweep — is a batch of accesses that can
// be in flight simultaneously. fanOut is the single primitive all of them
// use: it runs the items of one batch on up to Config.IOWorkers goroutines,
// the submitting one among them.
//
// Whether a batch is worth handing to helpers is decided in one place,
// overlap, from what the store observes of its backends: handing an item
// to another goroutine costs a microsecond or two, so it pays only when
// the device waits it overlaps are much longer than that. A store over memory or
// page-cache-resident files therefore issues every batch inline, in index
// order, on the submitting goroutine — the serial engine, with no closure
// built — and a store over real devices overlaps them.
//
// The bound is per batch — min(n, IOWorkers) goroutines, started
// unconditionally once the gate says yes — and there is no store-wide one:
// the gate already starts no helper on a store where it would not be asleep
// on a device, and the work bounds the rest. Every goroutine of a batch
// holds one of its items and the submitter is one of them, so an operation,
// however its batches nest (a range operation's per-stripe job issuing a
// degraded read that itself gathers survivors), never has more goroutines
// than backend accesses; how many operations run at once is the callers'
// choice (clients, RebuildWorkers). Helpers take no lock and starting one
// never blocks, so nesting cannot deadlock.
//
// Config.IOWorkers=1 disables all of it — no gate, no sampling, no
// helpers; every batch runs in submission order on the submitting
// goroutine, byte-identical to the parallel engine (pinned by
// TestParallelMatchesSerial).

// overlapThreshold is the device wait a batch must be able to save before
// it is fanned out: the submitter overlaps a batch of n accesses when
// (n−1) × the observed access time reaches it. It is set an order of
// magnitude above the hand-off itself — 0.7–1.0 µs per batch back to back
// (BenchmarkFanOutHandOff), about 1.6 µs inside a real small write, more
// when the helper's P has gone idle and must be woken — so that a pread
// from the page cache (≈ 0.65 µs; fanning those out made file-backed
// small writes 44 % slower) never pays for a fan-out, anything that
// actually waits for a device (tens of µs and up) always gets one, and
// nothing realistic sits near the line. Tests set it to zero before New
// to force every batch of a memory-backed store through the fan-out
// paths.
var overlapThreshold = 16 * time.Microsecond

// sampleEvery is how many backend accesses pass between two timed ones: a
// timed access costs two clock reads (≈ 50 ns), so one in eight keeps the
// gate's cost per access under 10 ns against the fastest backend there is.
const sampleEvery = 8

// overlapGate holds what a parallel store observes of its backends and
// what it did with it. A serial store (IOWorkers=1) has none: its methods
// are no-ops on a nil receiver, so the serial engine pays one nil test per
// access and nothing else.
type overlapGate struct {
	threshold int64         // overlapThreshold, fixed at New
	tick      atomic.Uint32 // backend accesses; every sampleEvery-th is timed
	prev      atomic.Int64  // the previous timed access, ns
	ewma      atomic.Int64  // moving average of timed accesses, ns (weight 1/8)

	fanOuts, inline atomic.Int64
}

// begin starts timing a backend access if it is this one's turn; the zero
// Time means it is not.
func (g *overlapGate) begin() time.Time {
	if g == nil || g.tick.Add(1)%sampleEvery != 0 {
		return time.Time{}
	}
	return time.Now()
}

// end folds a timed access into the moving average, as the smaller of
// itself and the timed access before it: a lone stall — the goroutine
// preempted mid-access, a collector pause — then never shows, while a
// device that is slow is slow twice running. Concurrent samples may
// overwrite each other; the average only has to be roughly right.
func (g *overlapGate) end(start time.Time) {
	if start.IsZero() {
		return
	}
	d := int64(time.Since(start))
	if p := g.prev.Swap(d); p < d {
		d = p
	}
	old := g.ewma.Load()
	g.ewma.Store(old + (d-old)/8)
}

// pays reports whether overlapping n independent accesses would save more
// device wait — n−1 of them, at the observed access time — than the
// hand-off costs. Never on a serial store.
func (g *overlapGate) pays(n int) bool {
	return g != nil && n >= 2 && int64(n-1)*g.ewma.Load() >= g.threshold
}

// overlap is pays asked for a batch that is about to be issued, and the
// one place the engine chooses between inline and overlapped issue: a
// batch it turns down is counted in Stats.FanOutsInline.
func (s *Store) overlap(n int) bool {
	g := s.gate
	if g == nil || n < 2 {
		return false
	}
	if !g.pays(n) {
		g.inline.Add(1)
		return false
	}
	return true
}

// fanBatch is one fan-out in flight: items are claimed by atomic counter
// so helpers and the submitter load-balance; the first error (lowest item
// index among those observed) wins and cancels the items not yet claimed.
type fanBatch struct {
	fn   func(int) error
	n    int64
	next atomic.Int64
	stop atomic.Bool
	mu   sync.Mutex
	errI int64
	err  error
	wg   sync.WaitGroup
}

func (b *fanBatch) run() {
	for !b.stop.Load() {
		i := b.next.Add(1) - 1
		if i >= b.n {
			return
		}
		if err := b.fn(int(i)); err != nil {
			b.mu.Lock()
			if b.err == nil || i < b.errI {
				b.err, b.errI = err, i
			}
			b.mu.Unlock()
			b.stop.Store(true)
			return
		}
	}
}

// fanOut runs fn(0), …, fn(n−1). When the gate is shut the calls run in
// index order on the calling goroutine with the first error aborting the
// rest — the serial engine's exact behavior. Otherwise they are spread
// over min(n, IOWorkers) goroutines, the caller one of them: in-flight
// calls complete after an error but unclaimed ones are cancelled, and the
// returned error is the lowest-indexed one observed. Callers on a path
// that must not allocate ask overlap themselves first and build fn only
// when it says yes.
func (s *Store) fanOut(n int, fn func(int) error) error {
	if !s.overlap(n) {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	s.gate.fanOuts.Add(1)
	helpers := min(n, s.ioWorkers) - 1
	b := fanBatch{fn: fn, n: int64(n)}
	b.wg.Add(helpers)
	for h := 0; h < helpers; h++ {
		go func() {
			defer b.wg.Done()
			b.run()
		}()
	}
	b.run()
	b.wg.Wait()
	return b.err
}
