package store

import (
	"fmt"
	"testing"
	"time"
)

// TestSweepPacing: a throttle of p over a sweep of n indices holds the sweep
// open for at least n·p of wall-clock time, at one worker and at four, and
// whether or not the sweep passes indices over — a Scrub with a disk failed
// skips every stripe that disk touches (at C=5, G=4 four stripes in five)
// and pauses after each all the same, as the rebuild does after units
// already redirected. Only the lower bound is asserted: a loaded machine
// makes a sweep slower, never faster.
func TestSweepPacing(t *testing.T) {
	const pause = 500 * time.Microsecond
	scrub := func(t *testing.T, s *Store) int64 {
		res, err := s.Scrub()
		if err != nil {
			t.Fatalf("Scrub: %v", err)
		}
		if got := res.Skipped > 0; got != (s.Mode() == Degraded) {
			t.Fatalf("Scrub in mode %v skipped %d stripes", s.Mode(), res.Skipped)
		}
		return s.Stripes()
	}
	rebuild := func(t *testing.T, s *Store) int64 {
		if err := s.Rebuild(NewMemDisk(s.unitsPerDisk, s.UnitSize())); err != nil {
			t.Fatalf("Rebuild: %v", err)
		}
		return s.unitsPerDisk
	}
	for _, tc := range []struct {
		name  string
		fail  bool
		sweep func(*testing.T, *Store) int64 // runs the sweep, returns its index count
	}{
		{"scrub/healthy", false, scrub},
		{"scrub/degraded", true, scrub},
		{"rebuild", true, rebuild},
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers%d", tc.name, workers), func(t *testing.T) {
				s := openStore(t, Config{Layout: testLayout(t, 5, 4), UnitsPerDisk: 64, UnitSize: 512,
					RebuildWorkers: workers, RebuildThrottle: pause, ScrubThrottle: pause})
				fillAll(t, s, 1)
				if tc.fail {
					if err := s.Fail(0); err != nil {
						t.Fatal(err)
					}
				}
				start := time.Now()
				n := tc.sweep(t, s)
				if took, want := time.Since(start), time.Duration(n)*pause; took < want {
					t.Fatalf("a sweep of %d indices paced at %v took %v, want at least %v", n, pause, took, want)
				}
			})
		}
	}
}
