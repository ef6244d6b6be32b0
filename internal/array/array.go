// Package array implements the RAID striping driver of the paper: a
// single-failure-correcting disk array layered on the layout and disk
// packages, with fault-free, degraded and reconstruction operating modes
// and the four reconstruction algorithms of §8 (baseline, user-writes,
// redirection of reads, redirection plus piggybacking of writes).
//
// The driver mirrors the Sprite striping driver's behaviour that the paper
// simulates: it has no cache and no control of disk timing, so a user
// write is four independent disk accesses (pre-read data and parity, write
// data and parity), with the three-access variant when a parity stripe has
// only three units, and degraded-mode accesses reconstruct on the fly.
//
// Unlike a timing-only simulator, the array carries real unit contents
// (one 64-bit word per 4 KB unit, parity = XOR over the stripe), so every
// algorithm's correctness — not just its timing — is checked by tests.
package array

import (
	"fmt"
	"slices"

	"declust/internal/disk"
	"declust/internal/fault"
	"declust/internal/layout"
	"declust/internal/metrics"
	"declust/internal/sim"
	"declust/internal/stats"
	"declust/internal/telemetry"
)

// ReconAlgorithm selects how much non-reconstruction work is sent to the
// replacement disk during recovery (§8's four algorithms).
type ReconAlgorithm int

const (
	// Baseline sends no user work to the replacement: user writes to
	// unreconstructed units fold into the parity unit, and reads of
	// already-reconstructed units still reconstruct on the fly.
	Baseline ReconAlgorithm = iota
	// UserWrites sends only user writes targeted at unreconstructed
	// units of the failed disk directly to the replacement.
	UserWrites
	// Redirect adds redirection of reads: user reads of
	// already-reconstructed units are serviced by the replacement.
	Redirect
	// RedirectPiggyback adds piggybacking of writes: user reads that
	// reconstruct on the fly also write the result to the replacement.
	RedirectPiggyback
)

func (a ReconAlgorithm) String() string {
	switch a {
	case Baseline:
		return "baseline"
	case UserWrites:
		return "user-writes"
	case Redirect:
		return "redirect"
	case RedirectPiggyback:
		return "redirect+piggyback"
	default:
		return fmt.Sprintf("ReconAlgorithm(%d)", int(a))
	}
}

// Config assembles an array.
type Config struct {
	Layout layout.Layout
	Geom   disk.Geometry
	// UnitSectors is the stripe unit size in sectors (8 = 4 KB).
	UnitSectors int
	// CvscanBias is the V(R) scheduling bias for every disk.
	CvscanBias float64
	// SchedPolicy selects each disk's queue scheduler; the zero value is
	// CVSCAN, the original behaviour.
	SchedPolicy disk.Policy
	// ReadAheadTracks enables per-disk track read-ahead buffers of that
	// many tracks; 0 disables them.
	ReadAheadTracks int
	// PrioAgeMS bounds scheduling-class starvation: a queued request older
	// than this competes in the top class regardless of its priority.
	// 0 keeps strict class domination.
	PrioAgeMS float64
	// Algorithm selects the reconstruction algorithm.
	Algorithm ReconAlgorithm
	// ReconProcs is the number of parallel reconstruction processes
	// started by Reconstruct (the paper uses 1 and 8).
	ReconProcs int
	// ReconLowPriority runs reconstruction accesses in a lower disk
	// scheduling class than user accesses (paper §9 future work).
	ReconLowPriority bool
	// ReconThrottleCyclesPerSec caps each reconstruction process's
	// cycle rate; 0 means unthrottled (paper §9 future work).
	ReconThrottleCyclesPerSec float64
	// DataMapper assigns logical data units to stripe units; nil selects
	// the paper's stripe-index mapping (layout.StripeIndexMapper).
	DataMapper layout.DataMapper
	// DistributedSparing reconstructs lost units into per-stripe spare
	// units spread over the surviving disks instead of onto a
	// replacement disk. Requires a Layout implementing
	// layout.SpareLayout (see layout.NewSpared).
	DistributedSparing bool
	// Faults, when non-nil, injects latent sector errors and transient
	// timeouts into every drive (including replacements installed later).
	// Nil leaves the drives perfect: no hook is installed, no random
	// draw ever happens, and the simulation is byte-identical to one
	// built without fault support.
	Faults *fault.Injector
	// Metrics, when non-nil, receives operation counters (user
	// reads/writes, on-the-fly reconstructions, reconstruction cycles).
	// Nil disables them at zero cost on the I/O paths.
	Metrics *metrics.Registry
	// Tracer, when non-nil, receives reconstruction lifecycle events.
	Tracer metrics.Tracer
	// Spans, when non-nil, records request-lifecycle spans: array phases
	// (lock wait, pre-reads, commits, on-the-fly reconstruction) and
	// reconstruction cycles, with per-disk segments beneath them. Nil —
	// the default — costs the I/O paths only nil checks.
	Spans *telemetry.Tracer
}

// Array is a simulated redundant disk array under a striping driver.
type Array struct {
	eng    *sim.Engine
	cfg    Config
	lay    layout.Layout
	mapper layout.DataMapper
	// parities is the layout's parity units per stripe: 1 (P, the paper's
	// model) or 2 (P+Q, the RAID-6-style double-failure code). It is only
	// ever a count — of equations to sum, of units to keep current, of
	// dead units a stripe survives; no path asks which code it is (see
	// weigh in ops.go).
	parities int

	disks        []*disk.Disk
	unitsPerDisk int64 // usable units per disk (whole allocation periods)
	numStripes   int64
	dataUnits    int64

	// Failure state. failed == -1 means fault-free.
	failed      int
	replacement bool   // a fresh disk occupies the failed slot
	reconDone   []bool // per-offset: unit at (failed, offset) is valid on the replacement/spare
	spareLay    layout.SpareLayout
	spared      bool // distributed sparing finished; array serves from spares

	locks lockTable

	// Contents: one word per unit per disk; parity unit k holds the sum
	// Σ g^(k·d)·data_d of its stripe's data words (P, k = 0, their XOR).
	// expected mirrors the latest value logically written to each data
	// unit.
	contents [][]uint64
	expected []uint64
	writeSeq uint64

	// Reconstruction bookkeeping. reconEpoch distinguishes reconstruction
	// runs: every deferred continuation captures the epoch at issue and
	// quietly dies if an abort (or completion) bumped it meanwhile.
	reconActive    bool
	reconRemaining int64
	reconTotal     int64
	reconCursor    int64
	reconStartMS   float64
	reconEndMS     float64
	reconProcsLive int
	reconEpoch     int
	reconOnDone    func()
	reconCycles    int64
	reconReads     []int64 // per-disk survivor units read by the sweep
	readPhase      stats.Sample
	writePhase     stats.Sample

	// Fault handling (see faults.go, scrub.go).
	fstats         FaultStats
	lossEvents     []DataLossEvent
	doubleFailures []DoubleFailure
	scrubOn        bool
	scrubEv        sim.Timer
	scrubCursor    int64
	scrubSpacing   float64
	scrubStats     ScrubStats

	// Free lists for the I/O hot path (see ops.go). Both grow to the
	// array's peak concurrency and are reused for the run's lifetime, so
	// steady-state phases and transfers allocate nothing.
	reqFree   []*ioReq
	phaseFree []*ioPhase
	opFree    []*userOp

	// Instrumentation. The counters are nil (no-op) without a registry;
	// tracer calls are guarded by nil checks.
	tracer  metrics.Tracer
	diskObs func(slot int, e disk.Event)

	// Span tracing (nil-safe no-ops when Config.Spans is nil). opSpan is
	// the parent span handed over by the caller for the next synchronous
	// Read/Write/ReadRange/WriteRange; phaseSpan is the phase the next io
	// call's transfers belong to. Both are consumed (cleared) by the
	// callee, so stale spans cannot leak across operations.
	spans     *telemetry.Tracer
	opSpan    *telemetry.Span
	phaseSpan *telemetry.Span

	mUserReads  *metrics.Counter
	mUserWrites *metrics.Counter
	mOTFRecons  *metrics.Counter
	mReconCyc   *metrics.Counter
	mRetries    *metrics.Counter
	mRepairs    *metrics.Counter
	mLostUnits  *metrics.Counter
}

// New builds a fault-free array and initializes contents and parity.
func New(eng *sim.Engine, cfg Config) (*Array, error) {
	if cfg.Layout == nil {
		return nil, fmt.Errorf("array: nil layout")
	}
	if err := cfg.Geom.Validate(); err != nil {
		return nil, err
	}
	if cfg.UnitSectors <= 0 {
		return nil, fmt.Errorf("array: unit size %d sectors", cfg.UnitSectors)
	}
	if cfg.ReconProcs <= 0 {
		cfg.ReconProcs = 1
	}
	rawUnits := cfg.Geom.TotalSectors() / int64(cfg.UnitSectors)
	usable := layout.UsableUnitsPerDisk(cfg.Layout, rawUnits)
	if usable == 0 {
		return nil, fmt.Errorf("array: disk of %d units cannot hold one allocation period (%d units)",
			rawUnits, cfg.Layout.UnitsPerDiskPerPeriod())
	}
	mapper := cfg.DataMapper
	if mapper == nil {
		mapper = layout.StripeIndexMapper{L: cfg.Layout}
	}
	parities := layout.NumParities(cfg.Layout)
	if parities < 1 || parities > 2 {
		return nil, fmt.Errorf("array: layout has %d parity units per stripe; 1 (P) or 2 (P+Q) supported", parities)
	}
	var spareLay layout.SpareLayout
	if cfg.DistributedSparing {
		sl, ok := cfg.Layout.(layout.SpareLayout)
		if !ok {
			return nil, fmt.Errorf("array: distributed sparing needs a spare-bearing layout (layout.NewSpared)")
		}
		if parities != 1 {
			return nil, fmt.Errorf("array: distributed sparing supports single parity only")
		}
		spareLay = sl
	}
	a := &Array{
		eng:          eng,
		cfg:          cfg,
		lay:          cfg.Layout,
		mapper:       mapper,
		parities:     parities,
		unitsPerDisk: usable,
		numStripes:   layout.UsableStripes(cfg.Layout, rawUnits),
		dataUnits:    layout.DataUnits(cfg.Layout, rawUnits),
		failed:       -1,
		spareLay:     spareLay,
		tracer:       cfg.Tracer,
		spans:        cfg.Spans,
	}
	if reg := cfg.Metrics; reg != nil {
		a.mUserReads = reg.Counter("array_user_reads")
		a.mUserWrites = reg.Counter("array_user_writes")
		a.mOTFRecons = reg.Counter("array_onthefly_reconstructions")
		a.mReconCyc = reg.Counter("array_recon_cycles")
		if cfg.Faults != nil {
			// Registered only with an injector so fault-free exports stay
			// byte-identical to builds without fault support.
			a.mRetries = reg.Counter("array_transient_retries")
			a.mRepairs = reg.Counter("array_latent_repairs")
			a.mLostUnits = reg.Counter("array_lost_units")
		}
	}
	c := a.lay.Disks()
	a.reconReads = make([]int64, c)
	a.disks = make([]*disk.Disk, c)
	a.contents = make([][]uint64, c)
	for i := range a.disks {
		a.disks[i] = disk.NewWithConfig(eng, cfg.Geom, a.diskConfig())
		a.disks[i].SetSlot(i)
		if cfg.Faults != nil {
			a.disks[i].SetFaultHook(cfg.Faults.Hook(i), cfg.Faults.TimeoutMS())
		}
		a.contents[i] = make([]uint64, usable)
	}
	a.expected = make([]uint64, a.dataUnits)
	a.initContents()
	return a, nil
}

// diskConfig builds the per-drive configuration shared by the initial
// drives and any replacement installed later, so a replacement schedules
// and caches exactly like the drive it replaces.
func (a *Array) diskConfig() disk.Config {
	return disk.Config{
		Policy:          a.cfg.SchedPolicy,
		CvscanBias:      a.cfg.CvscanBias,
		ReadAheadTracks: a.cfg.ReadAheadTracks,
		AgePromoteMS:    a.cfg.PrioAgeMS,
	}
}

// splitmix64 is a tiny strong mixer for generating distinct unit values.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// initContents gives every data unit a distinct value and every parity
// unit its equation's sum over its stripe's data.
func (a *Array) initContents() {
	// Under the paper's stripe-index mapping, data unit numbers increase
	// with position within a stripe (skipping parity), so the stripe-major
	// pass below visits n = 0..dataUnits-1 in order and fills data and
	// parity together without any mapping calls. Other mappings place
	// their data first.
	_, stripeMajor := a.mapper.(layout.StripeIndexMapper)
	if !stripeMajor {
		for n := int64(0); n < a.dataUnits; n++ {
			a.expected[n] = splitmix64(uint64(n) + 1)
			a.setUnitVal(a.mapper.Loc(n), a.expected[n])
		}
	}
	g := a.lay.G()
	sums := make([]uint64, a.parities)
	pp := make([]int, a.parities)
	n := int64(0)
	for s := int64(0); s < a.numStripes; s++ {
		clear(sums)
		a.parityPositions(s, pp)
		d := 0
		for j := 0; j < g; j++ {
			if slices.Contains(pp, j) {
				continue
			}
			u := a.lay.Unit(s, j)
			if stripeMajor {
				a.expected[n] = splitmix64(uint64(n) + 1)
				a.contents[u.Disk][u.Offset] = a.expected[n]
				n++
			}
			for k := range sums {
				sums[k] ^= weigh(k, d, a.contents[u.Disk][u.Offset])
			}
			d++
		}
		for k, v := range sums {
			pl := a.lay.Unit(s, pp[k])
			a.contents[pl.Disk][pl.Offset] = v
		}
	}
}

// parityPositions fills pp, one slot per parity unit, with the positions
// of the stripe's parity units, P first.
func (a *Array) parityPositions(stripe int64, pp []int) {
	for k := range pp {
		pp[k] = layout.ParityPosOf(a.lay, stripe, k)
	}
}

// DataUnits returns the size of the user data space in stripe units.
func (a *Array) DataUnits() int64 { return a.dataUnits }

// UnitsPerDisk returns the usable units per disk.
func (a *Array) UnitsPerDisk() int64 { return a.unitsPerDisk }

// Stripes returns the number of mapped parity stripes.
func (a *Array) Stripes() int64 { return a.numStripes }

// Layout returns the array's layout.
func (a *Array) Layout() layout.Layout { return a.lay }

// Parities returns the parity units per stripe: 1 (P) or 2 (P+Q).
func (a *Array) Parities() int { return a.parities }

// Disk returns the drive currently in slot i (the replacement, if slot i
// was failed and replaced).
func (a *Array) Disk(i int) *disk.Disk { return a.disks[i] }

// ObserveDisks makes fn the observer of every drive's completions, tagged
// with the slot index; it survives disk replacement (a drive installed by
// Replace inherits it). Pass nil to stop observing.
func (a *Array) ObserveDisks(fn func(slot int, e disk.Event)) {
	a.diskObs = fn
	for i := range a.disks {
		a.observeDisk(i)
	}
}

// observeDisk points the drive in slot at the array's observer.
func (a *Array) observeDisk(slot int) {
	if a.diskObs == nil {
		a.disks[slot].SetObserver(nil)
		return
	}
	a.disks[slot].SetObserver(func(e disk.Event) { a.diskObs(slot, e) })
}

// FailedDisk returns the failed slot index, or -1 when fault-free.
func (a *Array) FailedDisk() int { return a.failed }

// Degraded reports whether a disk is failed (with or without replacement).
func (a *Array) Degraded() bool { return a.failed >= 0 }

// Reconstructing reports whether reconstruction processes are running.
func (a *Array) Reconstructing() bool { return a.reconActive }

// Fail marks disk d failed. Its contents become unreadable; subsequent user
// accesses run in degraded mode. Only a single failure is supported (after
// distributed sparing completes, the slot stays failed until a copyback,
// which this driver does not implement).
func (a *Array) Fail(d int) error {
	if a.failed >= 0 {
		return fmt.Errorf("array: disk %d already failed; single-failure model", a.failed)
	}
	if d < 0 || d >= len(a.disks) {
		return fmt.Errorf("array: no disk %d", d)
	}
	a.failed = d
	a.replacement = false
	a.spared = false
	a.reconDone = make([]bool, a.unitsPerDisk)
	if a.spareLay != nil {
		// Spare slots on the failed disk hold nothing; they need no
		// reconstruction (their stripes lost no unit).
		for off := int64(0); off < a.unitsPerDisk; off++ {
			if _, ok := a.spareLay.IsSpare(layout.Loc{Disk: d, Offset: off}); ok {
				a.reconDone[off] = true
			}
		}
	}
	return nil
}

// Replace installs a fresh drive in the failed slot. Contents remain
// invalid until reconstructed; accesses keep running in degraded mode,
// consulting the reconstructed map. Distributed-sparing arrays do not
// replace: they reconstruct into spare units instead.
func (a *Array) Replace() error {
	if a.failed < 0 {
		return fmt.Errorf("array: no failed disk to replace")
	}
	if a.replacement {
		return fmt.Errorf("array: replacement already installed")
	}
	if a.spareLay != nil {
		return fmt.Errorf("array: distributed-sparing array reconstructs into spares; no replacement")
	}
	a.installDisk(a.failed)
	a.replacement = true
	return nil
}

// installDisk puts a factory-fresh drive in a slot, re-applying the
// observer and fault hook and clearing the modeled contents and any latent
// sector errors the old platters carried.
func (a *Array) installDisk(slot int) {
	a.disks[slot] = disk.NewWithConfig(a.eng, a.cfg.Geom, a.diskConfig())
	a.disks[slot].SetSlot(slot)
	a.observeDisk(slot)
	if a.cfg.Faults != nil {
		a.disks[slot].SetFaultHook(a.cfg.Faults.Hook(slot), a.cfg.Faults.TimeoutMS())
		a.cfg.Faults.ResetDisk(slot)
	}
	a.contents[slot] = make([]uint64, a.unitsPerDisk)
}

// Spared reports whether a distributed-sparing reconstruction has
// completed: every lost unit is live in its stripe's spare slot.
func (a *Array) Spared() bool { return a.spared }

// unitSector converts a unit offset to its first sector LBA.
func (a *Array) unitSector(off int64) int64 { return off * int64(a.cfg.UnitSectors) }

// available reports whether the unit at loc can be directly read/written:
// its disk is healthy, or it lives on the failed slot but has been
// reconstructed onto an installed replacement or into its spare unit.
func (a *Array) available(loc layout.Loc) bool {
	if loc.Disk != a.failed {
		return true
	}
	return (a.replacement || a.spareLay != nil) && a.reconDone[loc.Offset]
}

// phys resolves a logical unit location to its current physical placement:
// identity, except that under distributed sparing a unit of the failed
// disk lives in its stripe's spare slot.
func (a *Array) phys(loc layout.Loc) layout.Loc {
	if a.spareLay == nil || loc.Disk != a.failed {
		return loc
	}
	if _, ok := a.spareLay.IsSpare(loc); ok {
		return loc // a spare slot itself never relocates
	}
	stripe, _ := a.spareLay.Locate(loc)
	return a.spareLay.SpareUnit(stripe)
}

// unitVal reads the current content of a logical unit.
func (a *Array) unitVal(loc layout.Loc) uint64 {
	p := a.phys(loc)
	return a.contents[p.Disk][p.Offset]
}

// setUnitVal writes the modeled content of a logical unit.
func (a *Array) setUnitVal(loc layout.Loc, v uint64) {
	p := a.phys(loc)
	a.contents[p.Disk][p.Offset] = v
}
