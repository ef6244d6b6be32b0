package disk

import (
	"math/rand"
	"testing"

	"declust/internal/sim"
)

func TestObserverSeesEveryCompletion(t *testing.T) {
	eng := sim.New()
	d := New(eng, IBM0661(), 0.2)
	var events []Event
	d.SetObserver(func(e Event) { events = append(events, e) })
	rng := rand.New(rand.NewSource(5))
	const n = 200
	for i := 0; i < n; i++ {
		d.Submit(&Request{Start: rng.Int63n(d.Geometry().TotalSectors()/8) * 8, Count: 8, Write: i%2 == 0})
	}
	eng.Run()
	if len(events) != n {
		t.Fatalf("observed %d events, want %d", len(events), n)
	}
	for _, e := range events {
		if e.Finish <= e.Start || e.Start < e.QueuedAt {
			t.Fatalf("bad timestamps %+v", e)
		}
		if e.Cyl < 0 || e.Cyl >= d.Geometry().Cylinders {
			t.Fatalf("bad cylinder %+v", e)
		}
		if e.SeekDist < 0 || e.SeekDist >= d.Geometry().Cylinders {
			t.Fatalf("bad seek distance %+v", e)
		}
	}
}

func TestObserverRemovable(t *testing.T) {
	eng := sim.New()
	d := New(eng, IBM0661(), 0.2)
	calls := 0
	d.SetObserver(func(Event) { calls++ })
	d.Submit(&Request{Start: 0, Count: 8})
	eng.Run()
	d.SetObserver(nil)
	d.Submit(&Request{Start: 0, Count: 8})
	eng.Run()
	if calls != 1 {
		t.Fatalf("observer called %d times, want 1", calls)
	}
}

func TestSequentialStreamShowsZeroSeeks(t *testing.T) {
	// The observer exposes the effect Table 8-1 hinges on: sequential
	// transfers barely move the arm.
	eng := sim.New()
	d := New(eng, IBM0661(), 0.2)
	const n = 300
	zero := 0
	d.SetObserver(func(e Event) {
		if e.SeekDist == 0 {
			zero++
		}
	})
	for i := 0; i < n; i++ {
		d.Submit(&Request{Start: int64(i) * 8, Count: 8, Write: true})
	}
	eng.Run()
	if zero < n*95/100 {
		t.Fatalf("sequential stream only %d of %d zero seeks", zero, n)
	}
}
