package store

import (
	"fmt"
	"sync"

	"declust/internal/drive"
)

// FaultConfig parameterizes a FaultDisk. All rates are per-operation
// probabilities in [0, 1); zero disables that fault class. The knobs
// mirror internal/fault's simulated-time injector, ported to wall-clock
// backends (Thomasian, arXiv:1801.08873: transients, latent sector
// errors, and silent corruption dominate real-array reliability).
type FaultConfig struct {
	// Seed keys every draw, exact per unit access: the fate of the n-th
	// access to a unit is a hash of (Seed, unit, n), so it is the same in
	// every run whatever the order in which concurrent callers reach other
	// units. A rerun of a chaos seed meets the same faults at the same
	// accesses wherever each unit sees the same sequence of accesses.
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
	} {
		if r.v < 0 || r.v >= 1 {
			return fmt.Errorf("store: fault %s %v outside [0, 1)", r.name, r.v)
		}
	}
	return nil
}

// FaultStats counts injected faults since creation.
type FaultStats struct {
	Reads, Writes int64 // operations seen (including retried attempts)
	Transients    int64 // operations failed with a transient error
	TornWrites    int64 // writes that persisted only a prefix
	LSEInjected   int64 // units gone latent
	LSEHealed     int64 // latent units healed by a write
	CorruptReads  int64 // reads returned with flipped bits
	Latent        int64 // currently latent units
}

// FaultDisk wraps a Disk with seed-driven fault injection: transient
// errors, latent sector errors, torn writes and read corruption, each at
// its configured rate. It is the storage plane's port of the simulator's
// internal/fault injector, and is what make store-chaos drives the engine
// with. Safe for concurrent use.
type FaultDisk struct {
	under Disk

	mu     sync.Mutex
	cfg    FaultConfig
	bad    drive.Latent     // latent units: reads fail until next write
	access map[int64]uint64 // unit → accesses it has had
	stats  FaultStats
}

// NewFaultDisk wraps d with fault injection per cfg. It panics on an
// invalid configuration (rates outside [0,1)) — fault wiring is test and
// harness code, where a loud failure beats a threaded error.
func NewFaultDisk(d Disk, cfg FaultConfig) *FaultDisk {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	return &FaultDisk{under: d, cfg: cfg, access: make(map[int64]uint64)}
}

// SetConfig replaces the fault rates, keeping the seed, each unit's access
// count and any latent errors already injected. Chaos harnesses use it to
// reshape the fault regime between phases.
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

// Stats returns a snapshot of the injection counters.
func (d *FaultDisk) Stats() FaultStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.stats
	s.Latent = int64(d.bad.Len())
	return s
}

// fate is one unit access's draws: the splitmix64 stream keyed by (seed,
// unit, n-th access to the unit), whose class-th word is the draw of that
// fault class. drawWhere places a tear, or a flip's byte (low half of the
// word) and bits (high half).
type fate uint64

const drawTransient, drawTorn, drawLSE, drawCorrupt, drawWhere = 1, 2, 3, 4, 5

func (f fate) word(class uint64) uint64 { return drive.Mix(uint64(f) + class*0x9e3779b97f4a7c15) }

// hit reports whether the access meets the class's fault at rate.
func (f fate) hit(class uint64, rate float64) bool { return float64(f.word(class)>>11)/(1<<53) < rate }

// next counts an access to unit off and returns its fate. The caller holds mu.
func (d *FaultDisk) next(off int64) fate {
	n := d.access[off]
	d.access[off] = n + 1
	return fate(drive.Mix(drive.Mix(uint64(d.cfg.Seed)*0x9e3779b97f4a7c15+uint64(off)) + n))
}

func (d *FaultDisk) Geometry() (int64, int) { return d.under.Geometry() }
func (d *FaultDisk) Sync() error            { return d.under.Sync() }
func (d *FaultDisk) Close() error           { return d.under.Close() }

func (d *FaultDisk) ReadUnit(off int64, dst []byte) error {
	var (
		outcome  error
		corrupt  bool
		flipByte int
		flipBits byte
	)
	d.mu.Lock()
	d.stats.Reads++
	f := d.next(off)
	switch {
	case d.bad.Hit(off, 1):
		outcome = fmt.Errorf("faultdisk: latent sector error at unit %d: %w", off, ErrMedia)
	case f.hit(drawTransient, d.cfg.TransientRate):
		d.stats.Transients++
		outcome = fmt.Errorf("faultdisk: injected read timeout at unit %d: %w", off, ErrTransient)
	case f.hit(drawLSE, d.cfg.LSERate):
		d.bad.Add(off)
		d.stats.LSEInjected++
		outcome = fmt.Errorf("faultdisk: latent sector error at unit %d: %w", off, ErrMedia)
	case f.hit(drawCorrupt, d.cfg.CorruptRate):
		corrupt = true
		w := f.word(drawWhere)
		flipByte, flipBits = int(uint32(w)%uint32(len(dst))), byte(1+(w>>32)%255)
		d.stats.CorruptReads++
	}
	d.mu.Unlock()
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
		tearAt  int
	)
	d.mu.Lock()
	d.stats.Writes++
	f := d.next(off)
	switch {
	case f.hit(drawTransient, d.cfg.TransientRate):
		d.stats.Transients++
		outcome = fmt.Errorf("faultdisk: injected write timeout at unit %d: %w", off, ErrTransient)
	case f.hit(drawTorn, d.cfg.TornWriteRate):
		// Tear somewhere strictly inside the unit: a zero-length tear
		// is a lost write and a full-length tear is a clean write.
		tearAt = 1 + int(f.word(drawWhere)%uint64(len(src)-1))
		d.stats.TornWrites++
	}
	if outcome == nil {
		// The write (even a torn one) remaps the latent sector.
		d.stats.LSEHealed += int64(d.bad.Heal(off, 1))
	}
	d.mu.Unlock()
	if outcome != nil {
		return outcome
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
