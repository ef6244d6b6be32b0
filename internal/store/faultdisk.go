package store

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// FaultConfig parameterizes a FaultDisk. All rates are per-operation
// probabilities in [0, 1); zero disables that fault class. The knobs
// mirror internal/fault's simulated-time injector, ported to wall-clock
// backends (Thomasian, arXiv:1801.08873: transients, latent sector
// errors, and silent corruption dominate real-array reliability).
type FaultConfig struct {
	// Seed drives every random draw. Concurrent callers interleave their
	// draws nondeterministically, so a seed reproduces the fault mix and
	// rates exactly but the per-operation outcome sequence only
	// approximately; record it anyway — rerunning a chaos seed explores
	// the same fault regime.
	Seed int64
	// TransientRate is the probability an operation fails with an error
	// wrapping ErrTransient before touching the medium. A retry draws a
	// fresh outcome.
	TransientRate float64
	// TornWriteRate is the probability a write persists only a prefix of
	// the unit (the rest keeps its old contents) and reports an error
	// wrapping ErrTransient — "write failed, on-disk state unknown", the
	// crash-shaped outcome. A full-unit retry repairs the tear; a tear
	// that goes unretried is caught by the checksum trailer on next read.
	TornWriteRate float64
	// LSERate is the probability that the unit a read touches goes
	// latent: the read (and every later read of that unit) fails with an
	// error wrapping ErrMedia until the unit is next written, which heals
	// it (sector remapping). The engine's self-healing read path turns
	// each discovery into a reconstruct-and-rewrite.
	LSERate float64
	// CorruptRate is the probability a read returns bit-flipped data
	// while the stored bytes stay intact (a transient transfer/firmware
	// corruption). Only the checksum trailer can catch it.
	CorruptRate float64
	// LostWriteRate is the probability a write is acknowledged but never
	// persisted. Unit-local checksums cannot detect a lost write (the old
	// unit is self-consistent); only a parity scrub surfaces it.
	LostWriteRate float64
	// LatencyMax, when positive, sleeps a uniform [0, LatencyMax) per
	// operation, modeling a slow or congested device.
	LatencyMax time.Duration
}

func (c FaultConfig) validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"TransientRate", c.TransientRate},
		{"TornWriteRate", c.TornWriteRate},
		{"LSERate", c.LSERate},
		{"CorruptRate", c.CorruptRate},
		{"LostWriteRate", c.LostWriteRate},
	} {
		if r.v < 0 || r.v >= 1 {
			return fmt.Errorf("store: fault %s %v outside [0, 1)", r.name, r.v)
		}
	}
	if c.LatencyMax < 0 {
		return fmt.Errorf("store: negative fault LatencyMax %v", c.LatencyMax)
	}
	return nil
}

// FaultStats counts injected faults since creation.
type FaultStats struct {
	Reads, Writes int64 // operations seen (including retried attempts)
	Transients    int64 // operations failed with a transient error
	TornWrites    int64 // writes that persisted only a prefix
	LostWrites    int64 // writes acknowledged but dropped
	LSEInjected   int64 // units gone latent
	LSEHealed     int64 // latent units healed by a write
	CorruptReads  int64 // reads returned with flipped bits
	Latent        int64 // currently latent units
}

// FaultDisk wraps a Disk with seed-driven fault injection: transient
// errors, latent sector errors, torn and lost writes, read corruption,
// and injected latency. It is the storage plane's port of the simulator's
// internal/fault injector, and is what make store-chaos drives the engine
// with. Safe for concurrent use.
type FaultDisk struct {
	under Disk

	mu       sync.Mutex
	cfg      FaultConfig
	rng      *rand.Rand
	bad      map[int64]bool // latent units: reads fail until next write
	loseNext bool           // drop exactly the next write (LoseNextWrite)
	stats    FaultStats
}

// NewFaultDisk wraps d with fault injection per cfg. It panics on an
// invalid configuration (rates outside [0,1)) — fault wiring is test and
// harness code, where a loud failure beats a threaded error.
func NewFaultDisk(d Disk, cfg FaultConfig) *FaultDisk {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	return &FaultDisk{
		under: d,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		bad:   make(map[int64]bool),
	}
}

// SetConfig replaces the fault rates, keeping the RNG stream and any
// latent errors already injected. Chaos harnesses use it to reshape the
// fault regime between phases.
func (d *FaultDisk) SetConfig(cfg FaultConfig) {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	d.mu.Lock()
	cfg.Seed = d.cfg.Seed
	d.cfg = cfg
	d.mu.Unlock()
}

// Quiesce stops all future injection (rates to zero). Latent errors
// already injected persist until healed by a write — quiescing ends the
// storm, it does not repair the damage.
func (d *FaultDisk) Quiesce() { d.SetConfig(FaultConfig{}) }

// InjectLSE marks the unit at off latent: reads fail with ErrMedia until
// the unit is next written.
func (d *FaultDisk) InjectLSE(off int64) {
	d.mu.Lock()
	if !d.bad[off] {
		d.bad[off] = true
		d.stats.LSEInjected++
		d.stats.Latent++
	}
	d.mu.Unlock()
}

// LoseNextWrite drops exactly the next write (acknowledged, not
// persisted), regardless of LostWriteRate. Deterministic scrub tests use
// it to plant a stale unit.
func (d *FaultDisk) LoseNextWrite() {
	d.mu.Lock()
	d.loseNext = true
	d.mu.Unlock()
}

// Stats returns a snapshot of the injection counters.
func (d *FaultDisk) Stats() FaultStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Geometry forwards the underlying backend's geometry when it has one;
// (0, 0) says it reports none, which New and Rebuild take as unknown.
func (d *FaultDisk) Geometry() (int64, int) {
	if sd, ok := d.under.(sizedDisk); ok {
		return sd.Geometry()
	}
	return 0, 0
}

// Sync forwards to the underlying backend when it supports durability.
func (d *FaultDisk) Sync() error {
	if sd, ok := d.under.(syncDisk); ok {
		return sd.Sync()
	}
	return nil
}

func (d *FaultDisk) Close() error { return d.under.Close() }

// draw runs f under the RNG lock and applies any decided latency outside
// it, so injected stalls never serialize the whole disk.
func (d *FaultDisk) draw(f func()) time.Duration {
	d.mu.Lock()
	var lat time.Duration
	if d.cfg.LatencyMax > 0 {
		lat = time.Duration(d.rng.Int63n(int64(d.cfg.LatencyMax)))
	}
	f()
	d.mu.Unlock()
	return lat
}

func (d *FaultDisk) ReadUnit(off int64, dst []byte) error {
	var (
		outcome  error
		corrupt  bool
		flipByte int
		flipBits byte
	)
	lat := d.draw(func() {
		d.stats.Reads++
		switch {
		case d.bad[off]:
			outcome = fmt.Errorf("faultdisk: latent sector error at unit %d: %w", off, ErrMedia)
		case d.cfg.TransientRate > 0 && d.rng.Float64() < d.cfg.TransientRate:
			d.stats.Transients++
			outcome = fmt.Errorf("faultdisk: injected read timeout at unit %d: %w", off, ErrTransient)
		case d.cfg.LSERate > 0 && d.rng.Float64() < d.cfg.LSERate:
			d.bad[off] = true
			d.stats.LSEInjected++
			d.stats.Latent++
			outcome = fmt.Errorf("faultdisk: latent sector error at unit %d: %w", off, ErrMedia)
		case d.cfg.CorruptRate > 0 && d.rng.Float64() < d.cfg.CorruptRate:
			corrupt = true
			flipByte = d.rng.Intn(len(dst))
			flipBits = byte(1 + d.rng.Intn(255))
			d.stats.CorruptReads++
		}
	})
	if lat > 0 {
		time.Sleep(lat)
	}
	if outcome != nil {
		return outcome
	}
	if err := d.under.ReadUnit(off, dst); err != nil {
		return err
	}
	if corrupt {
		dst[flipByte] ^= flipBits
	}
	return nil
}

func (d *FaultDisk) WriteUnit(off int64, src []byte) error {
	var (
		outcome error
		lost    bool
		tearAt  int
	)
	lat := d.draw(func() {
		d.stats.Writes++
		switch {
		case d.cfg.TransientRate > 0 && d.rng.Float64() < d.cfg.TransientRate:
			d.stats.Transients++
			outcome = fmt.Errorf("faultdisk: injected write timeout at unit %d: %w", off, ErrTransient)
		case d.loseNext || (d.cfg.LostWriteRate > 0 && d.rng.Float64() < d.cfg.LostWriteRate):
			d.loseNext = false
			lost = true
			d.stats.LostWrites++
		case d.cfg.TornWriteRate > 0 && d.rng.Float64() < d.cfg.TornWriteRate:
			// Tear somewhere strictly inside the unit: a zero-length tear
			// is a lost write and a full-length tear is a clean write.
			tearAt = 1 + d.rng.Intn(len(src)-1)
			d.stats.TornWrites++
		}
		if outcome == nil && !lost && d.bad[off] {
			// The write (even a torn one) remaps the latent sector.
			delete(d.bad, off)
			d.stats.LSEHealed++
			d.stats.Latent--
		}
	})
	if lat > 0 {
		time.Sleep(lat)
	}
	if outcome != nil {
		return outcome
	}
	if lost {
		return nil // acknowledged, dropped
	}
	if tearAt > 0 {
		// Persist new prefix over old suffix, then report failure with the
		// on-disk state unknown — the crash-shaped write outcome.
		mixed := make([]byte, len(src))
		if err := d.under.ReadUnit(off, mixed); err != nil {
			// Cannot compose the torn image; fall through to a full write
			// so the fault never invents a *second* failure class.
			if err := d.under.WriteUnit(off, src); err != nil {
				return err
			}
			return fmt.Errorf("faultdisk: torn write at unit %d: %w", off, ErrTransient)
		}
		copy(mixed[:tearAt], src[:tearAt])
		if err := d.under.WriteUnit(off, mixed); err != nil {
			return err
		}
		return fmt.Errorf("faultdisk: torn write at unit %d: %w", off, ErrTransient)
	}
	return d.under.WriteUnit(off, src)
}
