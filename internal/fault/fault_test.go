package fault

import (
	"slices"
	"testing"

	"declust/internal/disk"
	"declust/internal/drive"
	"declust/internal/sim"
)

func testGeom() drive.Geometry { return drive.IBM0661() }

func newTestInjector(t *testing.T, cfg Config) (*sim.Engine, *Injector) {
	t.Helper()
	eng := sim.New()
	in, err := New(eng, testGeom(), 4, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return eng, in
}

func TestConfigValidation(t *testing.T) {
	eng := sim.New()
	cases := []Config{
		{TransientRate: -0.1},
		{TransientRate: 0.95},
		{LSERatePerGBHour: -1},
		{TimeoutMS: -5},
	}
	for _, cfg := range cases {
		if _, err := New(eng, testGeom(), 4, cfg); err == nil {
			t.Errorf("New(%+v) accepted invalid config", cfg)
		}
	}
	if _, err := New(eng, testGeom(), 0, Config{}); err == nil {
		t.Error("New accepted zero disks")
	}
}

func TestTimeoutDefault(t *testing.T) {
	_, in := newTestInjector(t, Config{})
	if got := in.TimeoutMS(); got != 50 {
		t.Errorf("default TimeoutMS = %v, want 50", got)
	}
	_, in = newTestInjector(t, Config{TimeoutMS: 12})
	if got := in.TimeoutMS(); got != 12 {
		t.Errorf("TimeoutMS = %v, want 12", got)
	}
}

// A zero-rate injector must schedule nothing: Start then drain should
// leave the clock at zero with no events processed.
func TestZeroRatesScheduleNothing(t *testing.T) {
	eng, in := newTestInjector(t, Config{Seed: 7})
	in.Start()
	eng.Run()
	if eng.Now() != 0 {
		t.Errorf("clock advanced to %v with zero fault rates", eng.Now())
	}
	if s := in.Stats(); s != (Stats{}) {
		t.Errorf("stats = %+v, want zero", s)
	}
}

func TestLSEArrivalsAndStop(t *testing.T) {
	eng, in := newTestInjector(t, Config{Seed: 1, LSERatePerGBHour: 5000})
	in.Start()
	eng.RunUntil(3_600_000) // one simulated hour
	in.Stop()
	eng.Run() // must drain: no pending arrivals remain
	s := in.Stats()
	if s.LSEArrivals == 0 {
		t.Fatal("no LSE arrivals in an hour at a high rate")
	}
	if s.BadSectors != s.LSEArrivals-s.Healed {
		t.Errorf("BadSectors=%d, arrivals=%d healed=%d: inconsistent",
			s.BadSectors, s.LSEArrivals, s.Healed)
	}
	total := 0
	for slot := 0; slot < 4; slot++ {
		total += in.BadSectors(slot)
	}
	if int64(total) != s.BadSectors {
		t.Errorf("per-slot sum %d != BadSectors %d", total, s.BadSectors)
	}
}

// Same seed and config must produce the identical arrival sequence.
func TestLSEDeterminism(t *testing.T) {
	run := func() (float64, Stats, int) {
		eng, in := newTestInjector(t, Config{Seed: 42, LSERatePerGBHour: 2000})
		in.Start()
		eng.RunUntil(1_000_000)
		in.Stop()
		return eng.Now(), in.Stats(), in.BadSectors(2)
	}
	t1, s1, b1 := run()
	t2, s2, b2 := run()
	if t1 != t2 || s1 != s2 || b1 != b2 {
		t.Errorf("runs diverged: (%v,%+v,%d) vs (%v,%+v,%d)", t1, s1, b1, t2, s2, b2)
	}
}

func TestHookMediaErrorAndHeal(t *testing.T) {
	_, in := newTestInjector(t, Config{Seed: 3})
	in.bad[1].Add(100)
	in.stats.LSEArrivals = 1

	hook := in.Hook(1)
	if st := hook(100, 8, false); st != disk.MediaError {
		t.Errorf("read over bad sector = %v, want MediaError", st)
	}
	if st := hook(108, 8, false); st != disk.OK {
		t.Errorf("read beside bad sector = %v, want OK", st)
	}
	if st := in.Hook(0)(100, 8, false); st != disk.OK {
		t.Errorf("read on clean slot = %v, want OK", st)
	}
	// A write over the region heals it.
	if st := hook(96, 16, true); st != disk.OK {
		t.Errorf("write = %v, want OK", st)
	}
	if st := hook(100, 8, false); st != disk.OK {
		t.Errorf("read after healing write = %v, want OK", st)
	}
	if s := in.Stats(); s.Healed != 1 || s.BadSectors != 0 {
		t.Errorf("stats after heal = %+v", s)
	}
}

func TestHookTransient(t *testing.T) {
	_, in := newTestInjector(t, Config{Seed: 9, TransientRate: 0.5})
	hook := in.Hook(0)
	timeouts := 0
	for i := 0; i < 1000; i++ {
		if hook(0, 8, false) == disk.Timeout {
			timeouts++
		}
	}
	if timeouts < 400 || timeouts > 600 {
		t.Errorf("%d/1000 timeouts at rate 0.5", timeouts)
	}
}

func TestResetDisk(t *testing.T) {
	_, in := newTestInjector(t, Config{Seed: 5})
	for s := int64(0); s < 10; s++ {
		in.bad[2].Add(s)
	}
	in.stats.LSEArrivals = 10
	in.ResetDisk(2)
	if in.BadSectors(2) != 0 {
		t.Errorf("BadSectors(2) = %d after reset", in.BadSectors(2))
	}
	if s := in.Stats(); s.BadSectors != 0 || s.Healed != 10 {
		t.Errorf("stats after reset = %+v", s)
	}
	if st := in.Hook(2)(0, 8, false); st != disk.OK {
		t.Errorf("read after reset = %v, want OK", st)
	}
}

// TestArrivalsIgnoreAccesses: latent-sector arrivals are a fixed input to
// the array, not a function of its accesses. Two injectors on one seed
// schedule the same arrivals — the same times, slots and sectors — though
// one of them draws a transient outcome for 1000 more accesses between
// every two arrivals.
func TestArrivalsIgnoreAccesses(t *testing.T) {
	geom := drive.IBM0661().Scaled(1000) // 1344 sectors: every one can be checked
	type arrival struct {
		ms        float64
		slot, bad int
	}
	run := func(extra int) ([]arrival, [4][]bool) {
		eng := sim.New()
		in, err := New(eng, geom, 4, Config{Seed: 11, LSERatePerGBHour: 2e7, TransientRate: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		in.Start()
		var got []arrival
		var prev [4]int
		for eng.Now() < 100_000 && eng.Step() {
			for slot := range prev {
				if n := in.BadSectors(slot); n != prev[slot] {
					got = append(got, arrival{eng.Now(), slot, n})
					prev[slot] = n
					for range extra {
						in.Hook(slot)(0, 1, false)
					}
				}
			}
		}
		in.Stop()
		var bad [4][]bool
		for slot := range bad {
			for s := range geom.TotalSectors() {
				bad[slot] = append(bad[slot], in.bad[slot].Hit(s, 1))
			}
		}
		return got, bad
	}
	quiet, quietBad := run(0)
	busy, busyBad := run(1000)
	if len(quiet) < 100 {
		t.Fatalf("only %d arrivals: the rate is too low to show anything", len(quiet))
	}
	if !slices.Equal(quiet, busy) || !slices.EqualFunc(quietBad[:], busyBad[:], slices.Equal) {
		t.Errorf("1000 accesses between arrivals moved them: %d arrivals against %d", len(busy), len(quiet))
	}
}
