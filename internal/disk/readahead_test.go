package disk

import (
	"testing"

	"declust/internal/drive"
	"declust/internal/sim"
)

func TestSequentialReadHitsBuffer(t *testing.T) {
	eng, d := newDisk(Config{CvscanBias: 0.2, ReadAheadTracks: 1})
	var first, second struct{ start, finish float64 }
	d.Submit(&Request{Start: 0, Count: 8, OnDone: func(s, f float64, _ Status) { first.start, first.finish = s, f }})
	eng.Run()
	d.Submit(&Request{Start: 8, Count: 8, OnDone: func(s, f float64, _ Status) { second.start, second.finish = s, f }})
	eng.Run()
	if first.finish <= first.start {
		t.Fatal("first read paid no mechanical time")
	}
	if second.finish != second.start {
		t.Fatalf("sequential hit took %v ms, want 0", second.finish-second.start)
	}
	st := d.Stats()
	if st.CacheHits != 1 || st.CacheHitSectors != 8 {
		t.Fatalf("cache hits %d / %d sectors, want 1 / 8", st.CacheHits, st.CacheHitSectors)
	}
	// The hit moved no platter sectors and kept the arm idle.
	if st.SectorsMoved != 8 {
		t.Fatalf("sectors moved %d, want 8 (only the first read)", st.SectorsMoved)
	}
}

func TestReadAheadWindowEndsAtTrackBoundary(t *testing.T) {
	eng, d := newDisk(Config{CvscanBias: 0.2, ReadAheadTracks: 1})
	d.Submit(&Request{Start: 0, Count: 8})
	eng.Run()
	// Sectors 8..47 are on the same track: hits. Sector 48 starts the next
	// track: beyond a 1-track window, so it must pay mechanical time.
	d.Submit(&Request{Start: 8, Count: 40})
	eng.Run()
	if st := d.Stats(); st.CacheHits != 1 {
		t.Fatalf("rest-of-track read: %d hits, want 1", st.CacheHits)
	}
	var svc float64
	d.Submit(&Request{Start: 48, Count: 8, OnDone: func(s, f float64, _ Status) { svc = f - s }})
	eng.Run()
	if svc == 0 {
		t.Fatal("next-track read hit a 1-track window")
	}
}

func TestReadAheadMultipleTracks(t *testing.T) {
	eng, d := newDisk(Config{CvscanBias: 0.2, ReadAheadTracks: 2})
	d.Submit(&Request{Start: 0, Count: 8})
	eng.Run()
	// A 2-track window after reading [0,8) covers [8, 96).
	var svc float64
	d.Submit(&Request{Start: 48, Count: 8, OnDone: func(s, f float64, _ Status) { svc = f - s }})
	eng.Run()
	if svc != 0 {
		t.Fatalf("second-track read took %v ms under a 2-track window, want 0", svc)
	}
	d.Submit(&Request{Start: 96, Count: 8, OnDone: func(s, f float64, _ Status) { svc = f - s }})
	eng.Run()
	if svc == 0 {
		t.Fatal("third-track read hit a 2-track window")
	}
}

func TestWriteInvalidatesBuffer(t *testing.T) {
	eng, d := newDisk(Config{CvscanBias: 0.2, ReadAheadTracks: 1})
	d.Submit(&Request{Start: 0, Count: 8})
	eng.Run()
	d.Submit(&Request{Start: 16, Count: 8, Write: true})
	eng.Run()
	var svc float64
	d.Submit(&Request{Start: 8, Count: 8, OnDone: func(s, f float64, _ Status) { svc = f - s }})
	eng.Run()
	if svc == 0 {
		t.Fatal("read hit a buffer an overlapping write should have invalidated")
	}
	if d.Stats().CacheHits != 0 {
		t.Fatalf("cache hits %d, want 0", d.Stats().CacheHits)
	}
}

func TestNonOverlappingWriteKeepsBuffer(t *testing.T) {
	eng, d := newDisk(Config{CvscanBias: 0.2, ReadAheadTracks: 1})
	d.Submit(&Request{Start: 0, Count: 8})
	eng.Run()
	// A write far away does not touch the buffered track.
	d.Submit(&Request{Start: 48 * 1000, Count: 8, Write: true})
	eng.Run()
	var svc float64
	d.Submit(&Request{Start: 8, Count: 8, OnDone: func(s, f float64, _ Status) { svc = f - s }})
	eng.Run()
	if svc != 0 {
		t.Fatalf("read missed (%v ms) despite a non-overlapping write", svc)
	}
}

func TestHitWindowConsumedMonotonically(t *testing.T) {
	eng, d := newDisk(Config{CvscanBias: 0.2, ReadAheadTracks: 1})
	d.Submit(&Request{Start: 0, Count: 8})
	eng.Run()
	// Consume [24,32): the window advances past it, so the skipped-over
	// range [8,24) is no longer served (the stream moved on).
	d.Submit(&Request{Start: 24, Count: 8})
	eng.Run()
	var svc float64
	d.Submit(&Request{Start: 8, Count: 8, OnDone: func(s, f float64, _ Status) { svc = f - s }})
	eng.Run()
	if svc == 0 {
		t.Fatal("backward read hit a consumed window")
	}
}

func TestHitCompletesWhileArmBusy(t *testing.T) {
	eng, d := newDisk(Config{CvscanBias: 0.2, ReadAheadTracks: 1})
	d.Submit(&Request{Start: 0, Count: 8})
	eng.Run()
	// Occupy the arm with a far request, then submit a buffered read: the
	// hit must complete now, not after the mechanical transfer.
	var far, hit float64
	d.Submit(&Request{Start: 48 * 900 * 14, Count: 8, OnDone: func(_, f float64, _ Status) { far = f }})
	d.Submit(&Request{Start: 8, Count: 8, OnDone: func(_, f float64, _ Status) { hit = f }})
	eng.Run()
	if hit >= far {
		t.Fatalf("buffered hit finished at %v ms, after the mechanical transfer at %v ms", hit, far)
	}
}

func TestMediaErrorDoesNotFillBuffer(t *testing.T) {
	eng, d := newDisk(Config{CvscanBias: 0.2, ReadAheadTracks: 1})
	d.SetFaultHook(func(int64, int, bool) Status { return MediaError }, 10)
	d.Submit(&Request{Start: 0, Count: 8})
	eng.Run()
	d.SetFaultHook(nil, 0)
	var svc float64
	d.Submit(&Request{Start: 8, Count: 8, OnDone: func(s, f float64, _ Status) { svc = f - s }})
	eng.Run()
	if svc == 0 {
		t.Fatal("read hit a buffer primed by a failed read")
	}
}

// TestReadAheadCountsHits: a buffered read counts as a cache hit and
// completes with no service time and no arm movement.
func TestReadAheadCountsHits(t *testing.T) {
	eng, d := newDisk(Config{CvscanBias: 0.2, ReadAheadTracks: 1})
	var svc []float64
	onDone := func(s, f float64, _ Status) { svc = append(svc, f-s) }
	d.Submit(&Request{Start: 0, Count: 8, OnDone: onDone})
	eng.Run()
	if st := d.Stats(); st.CacheHits != 0 {
		t.Fatalf("mechanical read counted %d cache hits", st.CacheHits)
	}
	before := d.Stats()
	d.Submit(&Request{Start: 8, Count: 8, OnDone: onDone})
	eng.Run()
	st := d.Stats()
	if len(svc) != 2 || st.Completed != 2 {
		t.Fatalf("%d completions delivered, %d counted, want 2", len(svc), st.Completed)
	}
	if st.CacheHits != 1 || st.CacheHitSectors != 8 {
		t.Fatalf("%d cache hits of %d sectors, want 1 of 8", st.CacheHits, st.CacheHitSectors)
	}
	if svc[1] != 0 || st.SeekCyls != before.SeekCyls || st.BusyMS != before.BusyMS {
		t.Fatalf("hit took %v ms of service, %d cylinders and %v busy ms, want 0/0/0",
			svc[1], st.SeekCyls-before.SeekCyls, st.BusyMS-before.BusyMS)
	}
}

func TestNegativeReadAheadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative read-ahead")
		}
	}()
	NewWithConfig(sim.New(), drive.IBM0661(), Config{ReadAheadTracks: -1})
}
