package sim

import (
	"math/rand"
	"testing"
)

// TestRunUntilCanceledHead covers the lazy-cancellation fast path: a
// canceled event sitting at the queue head must be skipped (and not fired)
// by RunUntil, both below and above the horizon.
func TestRunUntilCanceledHead(t *testing.T) {
	e := New()
	canceledFired := false
	tm := e.Schedule(1, func() { canceledFired = true })
	var fired []float64
	e.Schedule(2, func() { fired = append(fired, e.Now()) })
	e.Schedule(5, func() { fired = append(fired, e.Now()) })
	e.Cancel(tm)
	if p := e.Pending(); p != 2 {
		t.Fatalf("Pending = %d after cancel, want 2 (canceled events not counted)", p)
	}
	e.RunUntil(3)
	if canceledFired {
		t.Fatal("canceled head event fired")
	}
	if len(fired) != 1 || fired[0] != 2 {
		t.Fatalf("fired = %v, want [2]", fired)
	}
	if e.Now() != 3 {
		t.Fatalf("Now = %v, want 3", e.Now())
	}
	// A canceled head beyond the horizon stays queued and still never fires.
	tm2 := e.Schedule(0.5, func() { canceledFired = true })
	e.Cancel(tm2)
	e.RunUntil(3.2)
	e.Run()
	if canceledFired {
		t.Fatal("canceled event fired during drain")
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d events total, want 2", len(fired))
	}
}

// TestCancelAfterFire asserts that canceling an event that already fired
// is a no-op, even though its node has returned to the pool.
func TestCancelAfterFire(t *testing.T) {
	e := New()
	n := 0
	tm := e.Schedule(1, func() { n++ })
	e.Run()
	if n != 1 {
		t.Fatalf("fired %d, want 1", n)
	}
	e.Cancel(tm) // stale: node recycled, generation bumped
	// The node is reused for the next event; the stale handle must not
	// touch it.
	e.Schedule(1, func() { n++ })
	e.Cancel(tm)
	e.Run()
	if n != 2 {
		t.Fatalf("stale Cancel suppressed a reused event: fired %d, want 2", n)
	}
}

// TestCancelAfterPoolReuse is the generation-counter contract: a Timer
// held across its event's firing and the node's reuse cancels neither the
// old nor the new incarnation.
func TestCancelAfterPoolReuse(t *testing.T) {
	e := New()
	var stale []Timer
	fired := 0
	for round := 0; round < 5; round++ {
		// Each round schedules two events; their nodes come from the pool
		// populated by the previous round.
		stale = append(stale, e.Schedule(1, func() { fired++ }))
		stale = append(stale, e.Schedule(2, func() { fired++ }))
		e.Run()
		for _, tm := range stale {
			e.Cancel(tm)
		}
	}
	if fired != 10 {
		t.Fatalf("fired %d, want 10: stale Timers must never cancel reused nodes", fired)
	}
	// And a live Timer still cancels its own incarnation.
	live := e.Schedule(1, func() { fired++ })
	e.Cancel(live)
	e.Run()
	if fired != 10 {
		t.Fatalf("live Cancel failed: fired %d, want 10", fired)
	}
}

// TestCanceledThenReusedNodeKeepsLaterEvent pins the subtle case: cancel
// a pending event, let its node recycle through a fire, and make sure the
// original Timer (two generations stale) is inert.
func TestCanceledThenReusedNodeKeepsLaterEvent(t *testing.T) {
	e := New()
	fired := 0
	tm := e.Schedule(1, func() { t.Fatal("canceled event fired") })
	e.Cancel(tm)
	e.Run() // pops the canceled node, recycles it
	e.Schedule(1, func() { fired++ })
	e.Cancel(tm) // two generations stale
	e.Run()
	if fired != 1 {
		t.Fatalf("fired %d, want 1", fired)
	}
}

// TestZeroAllocSteadyState is the pool guarantee: once the heap slice and
// node pool are warm, a schedule/fire cycle performs zero allocations —
// on an empty heap, with a cancel drained in between, and with 64 events
// resident so every push and pop walks a deep heap. These are the three
// cycles bench_test.go times; the 0 allocs/op there is asserted here.
func TestZeroAllocSteadyState(t *testing.T) {
	fn := func() {}
	for _, tc := range []struct {
		name     string
		resident int // events left in the heap while the cycle runs
		cycle    func(e *Engine, rng *rand.Rand)
	}{
		{"schedule/fire", 0, func(e *Engine, _ *rand.Rand) {
			e.Schedule(1, fn)
			e.Step()
		}},
		{"schedule/cancel/drain", 0, func(e *Engine, _ *rand.Rand) {
			tm := e.Schedule(1, fn)
			e.Cancel(tm)
			e.Schedule(2, fn)
			e.Step()
			e.Step()
		}},
		{"schedule/fire at depth 64", 64, func(e *Engine, rng *rand.Rand) {
			e.Schedule(e.heap[0].time-e.now+rng.Float64()*100, fn)
			e.Step()
		}},
	} {
		e := New()
		rng := rand.New(rand.NewSource(1))
		// Warm the pool and the heap's backing array.
		for i := 0; i < 65; i++ {
			e.Schedule(float64(i), fn)
		}
		e.Run()
		for i := 0; i < tc.resident; i++ {
			e.Schedule(rng.Float64()*100, fn)
		}
		if allocs := testing.AllocsPerRun(1000, func() { tc.cycle(e, rng) }); allocs != 0 {
			t.Errorf("%s cycle allocates %.1f objects, want 0", tc.name, allocs)
		}
		if got := e.Pending(); got != tc.resident {
			t.Errorf("%s cycle left %d events pending, want %d", tc.name, got, tc.resident)
		}
	}
}

// TestPropertyOrderingWithCancels drives random schedules interleaved with
// random lazy cancels and checks ordering, FIFO ties and that no canceled
// event fires.
func TestPropertyOrderingWithCancels(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		live := map[int]bool{}
		var timers []Timer
		id := 0
		last := -1.0
		for i := 0; i < 300; i++ {
			switch {
			case len(timers) > 0 && rng.Intn(4) == 0:
				j := rng.Intn(len(timers))
				e.Cancel(timers[j])
				delete(live, j)
			default:
				me := id
				id++
				live[me] = true
				timers = append(timers, e.Schedule(rng.Float64()*50, func() {
					if !live[me] {
						t.Fatalf("seed %d: canceled event %d fired", seed, me)
					}
					if e.Now() < last {
						t.Fatalf("seed %d: time went backwards", seed)
					}
					last = e.Now()
					delete(live, me)
				}))
			}
		}
		e.Run()
		if len(live) != 0 {
			t.Fatalf("seed %d: %d live events never fired", seed, len(live))
		}
		if e.Pending() != 0 {
			t.Fatalf("seed %d: Pending = %d after drain", seed, e.Pending())
		}
	}
}
