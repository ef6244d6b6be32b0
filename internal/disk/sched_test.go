package disk

import (
	"math/rand"
	"reflect"
	"testing"
)

// submitAt queues a request targeting the given cylinder and appends its
// tag to order when it completes.
func submitAt(d *Disk, cyl int64, prio int, tag int64, order *[]int64) {
	d.Submit(&Request{
		Start: cyl * d.Geometry().SectorsPerCylinder(), Count: 8, Priority: prio,
		OnDone: func(_, _ float64, _ Status) { *order = append(*order, tag) },
	})
}

func TestFIFOServesInArrivalOrder(t *testing.T) {
	eng, d := newDisk(Config{Policy: FIFO})
	var order []int64
	d.Submit(&Request{Start: 0, Count: 8}) // occupy the arm
	for _, cyl := range []int64{700, 10, 400, 5} {
		submitAt(d, cyl, 0, cyl, &order)
	}
	eng.Run()
	want := []int64{700, 10, 400, 5}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("FIFO order %v, want %v", order, want)
	}
}

func TestSSTFServesNearestFirst(t *testing.T) {
	eng, d := newDisk(Config{Policy: SSTF})
	var order []int64
	d.Submit(&Request{Start: 400 * d.Geometry().SectorsPerCylinder(), Count: 8})
	for _, cyl := range []int64{700, 390, 430} {
		submitAt(d, cyl, 0, cyl, &order)
	}
	eng.Run()
	want := []int64{390, 430, 700}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("SSTF order %v, want %v", order, want)
	}
}

func TestCSCANSweepsUpAndWraps(t *testing.T) {
	eng, d := newDisk(Config{Policy: CSCAN})
	var order []int64
	// Park the head at cylinder 400, then offer work on both sides: the
	// circular elevator serves everything at or above 400 in ascending
	// order, then wraps to the lowest pending cylinder.
	d.Submit(&Request{Start: 400 * d.Geometry().SectorsPerCylinder(), Count: 8})
	for _, cyl := range []int64{390, 800, 10, 450} {
		submitAt(d, cyl, 0, cyl, &order)
	}
	eng.Run()
	want := []int64{450, 800, 10, 390}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("CSCAN order %v, want %v", order, want)
	}
}

func TestCSCANPrefersAheadOverBehind(t *testing.T) {
	eng, d := newDisk(Config{Policy: CSCAN})
	var order []int64
	d.Submit(&Request{Start: 400 * d.Geometry().SectorsPerCylinder(), Count: 8})
	// 399 is one cylinder behind; CSCAN must still go up to 900 first.
	for _, cyl := range []int64{399, 900} {
		submitAt(d, cyl, 0, cyl, &order)
	}
	eng.Run()
	want := []int64{900, 399}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("CSCAN order %v, want %v (no early reversal)", order, want)
	}
}

// TestAgePromotionBoundsStarvation keeps a demoted request from waiting
// beyond the bound: once aged, it competes in the user class even while
// user work keeps arriving.
func TestAgePromotionBoundsStarvation(t *testing.T) {
	eng, d := newDisk(Config{Policy: FIFO, AgePromoteMS: 100})
	var reconDone float64
	spc := d.Geometry().SectorsPerCylinder()
	d.Submit(&Request{Start: 0, Count: 8})
	d.Submit(&Request{Start: 100 * spc, Count: 8, Priority: -1,
		OnDone: func(_, f float64, _ Status) { reconDone = f }})
	// A steady stream of user requests that would starve the demoted one
	// forever without the age bound: each completion submits another.
	n := 0
	var refill func(_, _ float64, _ Status)
	refill = func(_, _ float64, _ Status) {
		if n < 50 {
			n++
			d.Submit(&Request{Start: int64(200+n) * spc, Count: 8, OnDone: refill})
		}
	}
	d.Submit(&Request{Start: 200 * spc, Count: 8, OnDone: refill})
	eng.Run()
	if reconDone == 0 {
		t.Fatal("demoted request never completed")
	}
	// Service order is FIFO among eligibles, so once promoted (at 100 ms
	// of waiting) the demoted request is the oldest and goes next; it must
	// finish long before the 50-request user stream drains (~1 s).
	if reconDone > 400 {
		t.Fatalf("demoted request finished at %.1f ms; promotion at 100 ms did not take effect", reconDone)
	}
	if n < 50 {
		t.Fatalf("user stream stalled at %d submissions", n)
	}
}

// TestNoAgeBoundPreservesStrictDomination pins today's behaviour with the
// bound off: the demoted request waits for every user request, even ones
// that arrived long after it.
func TestNoAgeBoundPreservesStrictDomination(t *testing.T) {
	eng, d := newDisk(Config{Policy: FIFO})
	var order []int64
	d.Submit(&Request{Start: 0, Count: 8})
	submitAt(d, 100, -1, -1, &order)
	for i := int64(0); i < 5; i++ {
		submitAt(d, 200+i, 0, i, &order)
	}
	eng.Run()
	if order[len(order)-1] != -1 {
		t.Fatalf("demoted request served at %v, want last; order %v", order[len(order)-1], order)
	}
}

// TestPoliciesDeterministic replays the same submission schedule twice per
// policy and requires identical completion sequences.
func TestPoliciesDeterministic(t *testing.T) {
	for _, p := range []Policy{FIFO, SSTF, CSCAN, CVSCAN} {
		run := func() []float64 {
			eng, d := newDisk(Config{Policy: p, CvscanBias: 0.2, AgePromoteMS: 50})
			rng := rand.New(rand.NewSource(5))
			var times []float64
			for i := 0; i < 200; i++ {
				prio := 0
				if i%3 == 0 {
					prio = -1
				}
				d.Submit(&Request{
					Start: rng.Int63n(d.Geometry().TotalSectors()/8) * 8, Count: 8,
					Priority: prio,
					OnDone:   func(_, f float64, _ Status) { times = append(times, f) },
				})
			}
			eng.Run()
			return times
		}
		if a, b := run(), run(); !reflect.DeepEqual(a, b) {
			t.Fatalf("policy %v not deterministic", p)
		}
	}
}

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, p := range []Policy{CVSCAN, FIFO, SSTF, CSCAN} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("elevator"); err == nil {
		t.Fatal("ParsePolicy accepted an unknown policy")
	}
	if p, err := ParsePolicy(""); err != nil || p != CVSCAN {
		t.Fatalf("empty policy = %v, %v; want CVSCAN default", p, err)
	}
}

// TestSSTFThroughputBeatsFIFO is the motivating effect: under a deep
// random queue, seek-optimizing schedulers complete the same work sooner.
func TestSSTFThroughputBeatsFIFO(t *testing.T) {
	elapsed := func(p Policy) float64 {
		eng, d := newDisk(Config{Policy: p})
		rng := rand.New(rand.NewSource(21))
		for i := 0; i < 200; i++ {
			d.Submit(&Request{Start: rng.Int63n(d.Geometry().TotalSectors()/8) * 8, Count: 8})
		}
		eng.Run()
		return eng.Now()
	}
	fifo, sstf := elapsed(FIFO), elapsed(SSTF)
	if sstf >= fifo {
		t.Fatalf("SSTF (%.1f ms) not faster than FIFO (%.1f ms) on a deep random queue", sstf, fifo)
	}
}
