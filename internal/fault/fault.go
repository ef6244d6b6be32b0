// Package fault is a deterministic, seed-driven fault injector for the
// simulated disk array. It models the three failure classes that dominate
// real array reliability (Thomasian, arXiv:1801.08873):
//
//   - full-disk failures, exponential lifetimes that the lifecycle driver
//     (core.RunLifecycle) draws and applies itself;
//   - latent sector errors (LSEs), arriving per disk as a Poisson process
//     proportional to its capacity, discovered only when the sector is
//     next read, and healed when it is next written (remapping);
//   - transient request faults, an independent per-request timeout
//     probability; a retry draws a fresh outcome.
//
// Determinism contract: every random draw comes from two RNG streams per
// slot, both derived from one seed — one draws the transient outcome of each
// access (Hook), the other the time and sector of each latent-sector arrival
// — and all injector activity rides the simulation engine's deterministic
// event order, so the same seed and configuration produce byte-identical
// fault sequences. The arrivals are a fixed input to the array: how many
// accesses it makes, and so how many transient outcomes are drawn, moves no
// arrival (TestArrivalsIgnoreAccesses). With zero rates the injector
// schedules no events and draws nothing, so a disabled injector leaves a
// simulation bit-for-bit identical to one with no injector at all.
package fault

import (
	"fmt"
	"math/rand"

	"declust/internal/disk"
	"declust/internal/drive"
	"declust/internal/sim"
)

// Config parameterizes an Injector.
type Config struct {
	// Seed drives every random draw. Distinct from the workload seed so
	// fault processes never perturb arrival processes.
	Seed int64
	// LSERatePerGBHour is the latent-sector-error arrival rate per GB of
	// disk capacity per simulated hour. Real drives sit around 1e-5 to
	// 1e-4; accelerated simulations use much larger values.
	LSERatePerGBHour float64
	// TransientRate is the probability that any one request times out.
	// Must be in [0, 0.9]: retries draw independently, so service always
	// terminates, but rates near 1 would make retry storms unbounded.
	TransientRate float64
	// TimeoutMS is the stall a timed-out request costs; 0 selects 50 ms.
	TimeoutMS float64
}

// Stats counts injector activity.
type Stats struct {
	LSEArrivals int64 // latent sector errors injected
	BadSectors  int64 // currently latent (injected, not yet healed)
	Healed      int64 // bad sectors cleared by writes
}

// Injector owns the fault state of every disk slot in one array.
type Injector struct {
	eng  *sim.Engine
	cfg  Config
	geom drive.Geometry

	access   []*rand.Rand   // per slot: transient outcomes
	arrival  []*rand.Rand   // per slot: latent-sector arrival times and sectors
	bad      []drive.Latent // per-slot latent sectors
	arrivals []sim.Timer    // pending LSE arrival per slot
	stopped  bool
	stats    Stats

	lseRatePerMS float64 // per-disk arrival rate, events per simulated ms
}

// New builds an injector for an array of `disks` slots of the given
// geometry. It schedules nothing until Start.
func New(eng *sim.Engine, geom drive.Geometry, disks int, cfg Config) (*Injector, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if disks <= 0 {
		return nil, fmt.Errorf("fault: %d disks", disks)
	}
	if cfg.LSERatePerGBHour < 0 {
		return nil, fmt.Errorf("fault: negative LSE rate %v", cfg.LSERatePerGBHour)
	}
	if cfg.TransientRate < 0 || cfg.TransientRate > 0.9 {
		return nil, fmt.Errorf("fault: transient rate %v outside [0, 0.9]", cfg.TransientRate)
	}
	if cfg.TimeoutMS == 0 {
		cfg.TimeoutMS = 50
	}
	if cfg.TimeoutMS < 0 {
		return nil, fmt.Errorf("fault: negative timeout %v ms", cfg.TimeoutMS)
	}
	gb := float64(geom.TotalSectors()) * float64(geom.BytesPerSector) / (1 << 30)
	in := &Injector{
		eng:          eng,
		cfg:          cfg,
		geom:         geom,
		access:       make([]*rand.Rand, disks),
		arrival:      make([]*rand.Rand, disks),
		bad:          make([]drive.Latent, disks),
		arrivals:     make([]sim.Timer, disks),
		lseRatePerMS: cfg.LSERatePerGBHour * gb / 3_600_000,
	}
	for i := range disks {
		in.access[i] = rand.New(rand.NewSource(streamSeed(cfg.Seed, i, accessStream)))
		in.arrival[i] = rand.New(rand.NewSource(streamSeed(cfg.Seed, i, arrivalStream)))
	}
	return in, nil
}

// The salts of a slot's two streams.
const (
	accessStream  = 0
	arrivalStream = 1 << 32
)

// streamSeed derives a well-mixed seed for one stream of one slot, so
// neighboring slots, and a slot's two streams, get uncorrelated streams.
func streamSeed(seed int64, slot int, stream uint64) int64 {
	return int64(drive.Mix(uint64(seed)*0x9e3779b97f4a7c15 + uint64(slot) + 1 + stream))
}

// TimeoutMS returns the configured transient stall.
func (in *Injector) TimeoutMS() float64 { return in.cfg.TimeoutMS }

// Stats returns a copy of the activity counters.
func (in *Injector) Stats() Stats {
	s := in.stats
	for slot := range in.bad {
		s.BadSectors += int64(in.bad[slot].Len())
	}
	return s
}

// BadSectors reports the current latent error count on one slot.
func (in *Injector) BadSectors(slot int) int { return in.bad[slot].Len() }

// Start begins the per-slot LSE arrival processes. A zero LSE rate
// schedules nothing.
func (in *Injector) Start() {
	if in.lseRatePerMS <= 0 {
		return
	}
	in.stopped = false
	for slot := range in.bad {
		in.scheduleLSE(slot)
	}
}

// Stop cancels every pending arrival so the engine can drain. Latent
// errors already injected remain until healed.
func (in *Injector) Stop() {
	in.stopped = true
	for slot, tm := range in.arrivals {
		in.eng.Cancel(tm) // no-op on the zero Timer or a stale handle
		in.arrivals[slot] = sim.Timer{}
	}
}

func (in *Injector) scheduleLSE(slot int) {
	delay := in.arrival[slot].ExpFloat64() / in.lseRatePerMS
	in.arrivals[slot] = in.eng.Schedule(delay, func() {
		if in.stopped {
			return
		}
		if in.bad[slot].Add(in.arrival[slot].Int63n(in.geom.TotalSectors())) {
			in.stats.LSEArrivals++
		}
		in.scheduleLSE(slot)
	})
}

// Hook returns the disk.FaultHook for one slot. Writes heal overlapping
// latent errors (sector remapping) before the transient draw, so a write
// never reports a media error; reads report one when any covered sector
// is latent.
func (in *Injector) Hook(slot int) disk.FaultHook {
	return func(start int64, count int, write bool) disk.Status {
		if write {
			in.stats.Healed += int64(in.bad[slot].Heal(start, count))
		}
		if in.cfg.TransientRate > 0 && in.access[slot].Float64() < in.cfg.TransientRate {
			return disk.Timeout
		}
		if !write && in.bad[slot].Hit(start, count) {
			return disk.MediaError
		}
		return disk.OK
	}
}

// ResetDisk clears a slot's latent errors — call when a fresh drive is
// installed in it. The slot keeps its RNG streams: replacement changes
// which faults the new drive sees, not the determinism of the run.
func (in *Injector) ResetDisk(slot int) {
	in.stats.Healed += int64(in.bad[slot].Len())
	in.bad[slot] = drive.Latent{}
}
