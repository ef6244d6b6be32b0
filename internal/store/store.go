package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"declust/internal/layout"
)

// Config describes a Store. Layout is required (the facade builds one
// from C and G via the block-design selector); UnitsPerDisk is rounded
// down to whole allocation periods.
type Config struct {
	// Layout is the parity layout mapping stripes to disks; its Disks()
	// fixes the array width C.
	Layout layout.Layout
	// UnitsPerDisk is the raw per-disk capacity in units (default 1024).
	UnitsPerDisk int64
	// UnitSize is the data unit size in bytes (default 4096). Backends
	// store PhysUnitSize(UnitSize) bytes per unit — the data plus its
	// checksum trailer.
	UnitSize int
	// Disks optionally supplies the C backends (index = disk number);
	// nil builds in-memory disks. Each must hold at least the usable
	// unit count at the physical unit size; backends reporting a
	// Geometry are validated against the store's.
	Disks []Disk
	// IOWorkers is the upper bound on overlap: how many independent disk
	// accesses of one batch (a degraded read's survivor gather, the
	// pre-reads and then the writes of a parity update, the units of a
	// stripe span, the stripes of a range operation, CheckParity) the store
	// may keep in flight at once, on up to IOWorkers−1 helper goroutines
	// plus the submitting one. The bound is per batch; nothing is shared
	// between operations. The store decides per batch whether to use
	// helpers at all: it times a sample of its backend accesses and
	// overlaps a batch only when the device waits saved outweigh the
	// hand-off, so a memory- or page-cache-fast backend is served inline
	// whatever this is set to (see Stats.DeviceLatency). 1 is the serial
	// engine (no helpers, no timing, bit-identical results); 0 defaults to
	// GOMAXPROCS.
	IOWorkers int
	// RebuildWorkers is how many units Rebuild, and stripes Scrub, keep in
	// flight: the sweep runs as that many concurrent shards, each with one
	// survivor gather (at most G−1 reads) and — on devices worth
	// overlapping — one replacement write outstanding. The declustered
	// layout spreads each shard's reconstruction reads over all surviving
	// disks, so the sweep scales until the survivors saturate.
	// RebuildThrottle/ScrubThrottle pacing is aggregate: each worker sleeps
	// workers× the configured throttle, so the knob means the same
	// wall-clock sweep rate at any worker count. 0 defaults to IOWorkers.
	RebuildWorkers int
	// RebuildThrottle pauses the rebuild sweep between units, trading
	// rebuild time for user response — the paper's §9 throttling knob,
	// and the way tests hold the rebuild window open.
	RebuildThrottle time.Duration
	// ScrubThrottle pauses the Scrub sweep between stripes, bounding the
	// bandwidth the background verifier steals from clients (the same
	// knob as RebuildThrottle, applied to scrubbing).
	ScrubThrottle time.Duration
	// Retries is how many times a transiently failing backend operation
	// is retried before the error is treated as persistent (default 3).
	Retries int
	// RetryBackoff is the sleep before the first retry, doubling each
	// attempt (default 500µs).
	RetryBackoff time.Duration
	// FailThreshold, when positive, auto-fails a disk once its
	// persistent-error score (exhausted retries, unknown errors,
	// confirmed media/checksum damage) reaches it, instead of letting a
	// dying device keep degrading every stripe it touches. Zero disables
	// auto-failing; Fail remains available to operators.
	FailThreshold int
	// Intent, when non-nil, persists the dirty-region write-intent log
	// that makes parity crash-consistent (OpenFileIntent for file-backed
	// arrays). Nil uses an in-memory log: the same bookkeeping, no
	// durability — appropriate for mem backends, which lose everything
	// in a crash anyway. New replays a non-empty log before serving.
	Intent IntentLog
}

// Mode is the store's failure state.
type Mode int

const (
	// Healthy: all C disks in service.
	Healthy Mode = iota
	// Degraded: a disk has failed (two may, under P+Q), no replacement
	// installed; lost reads reconstruct on the fly, lost writes fold into
	// parity.
	Degraded
	// Rebuilding: a replacement is installed and the sweep is copying
	// reconstructed units onto it under live load.
	Rebuilding
)

func (m Mode) String() string {
	switch m {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Rebuilding:
		return "rebuilding"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Stats counts engine activity since creation. Counters are cumulative
// and monotone; read them with Store.Stats.
type Stats struct {
	// Reads and Writes count completed user unit operations.
	Reads, Writes int64
	// DegradedReads counts reads served by on-the-fly reconstruction from
	// the stripe's survivors.
	DegradedReads int64
	// FoldedWrites counts writes to lost units absorbed by the parity
	// unit (no replacement installed, or stripe not yet rebuilt).
	FoldedWrites int64
	// RedirectedWrites counts lost-unit writes also committed directly
	// to the replacement (which counts as reconstruction).
	RedirectedWrites int64
	// ReconstructWrites counts stripe updates whose parities were built from
	// the stripe's new contents after reading the units the span left
	// alone — not large writes (nothing read), not folds.
	ReconstructWrites int64
	// RebuiltUnits counts units regenerated onto a replacement, by the
	// sweep or by write redirection.
	RebuiltUnits int64
	// Rebuilds counts completed rebuild sweeps (heals).
	Rebuilds int64
	// Retries counts backend operations retried after a transient error.
	Retries int64
	// ChecksumErrors counts units whose trailer failed verification
	// persistently (torn writes, bit rot) and entered the heal path.
	ChecksumErrors int64
	// MediaErrors counts unrecoverable media errors (latent sector
	// errors) reported by backends.
	MediaErrors int64
	// HealedUnits counts damaged units rewritten in place with contents
	// reconstructed from their stripe's survivors (self-healing reads,
	// RMW pre-reads, and scrub repairs).
	HealedUnits int64
	// AutoFails counts disks taken out of service by the
	// persistent-error threshold.
	AutoFails int64
	// Scrubs counts completed Scrub sweeps; ScrubbedStripes the stripes
	// they verified; ScrubUnitRepairs the damaged units they healed;
	// ScrubParityFixes the self-consistent-but-unbalanced stripes whose
	// parity they recomputed (the lost-write signature).
	Scrubs           int64
	ScrubbedStripes  int64
	ScrubUnitRepairs int64
	ScrubParityFixes int64
	// ResyncedStripes counts stripes re-verified by the write-intent
	// recovery pass at open; ResyncRepairs those it had to repair.
	ResyncedStripes int64
	ResyncRepairs   int64
	// FanOuts counts batches of independent accesses issued overlapped,
	// across I/O helpers; FanOutsInline the batches the latency gate turned
	// down — issued inline because the backends answer too fast for a
	// hand-off to pay — and nothing else; DeviceLatency is the moving
	// average of sampled backend access times that decides between the
	// two. All three stay zero on a serial store (IOWorkers=1), which
	// measures nothing.
	FanOuts       int64
	FanOutsInline int64
	DeviceLatency time.Duration
}

// failSlot tracks one failed disk: its number, the replacement being
// rebuilt onto it (nil before install), and which of its offsets already
// live on the replacement.
type failSlot struct {
	disk    int
	repl    Disk   // replacement being rebuilt onto; nil before install
	rebuilt []bool // failed disk offsets already on the replacement
}

// diskState is an immutable failure-state snapshot, published through an
// atomic pointer. disks and fails are never mutated after publication
// (Fail/Rebuild publish fresh snapshots); each slot's rebuilt is
// element-mutable under the owning stripe's lock. fails is ordered oldest
// failure first and holds at most the layout's parity count: a P+Q store
// tolerates two concurrent failures, a single-parity store one.
type diskState struct {
	disks []Disk
	fails []failSlot
}

// slot returns the failure slot covering disk d, or nil.
func (st *diskState) slot(d int) *failSlot {
	for i := range st.fails {
		if st.fails[i].disk == d {
			return &st.fails[i]
		}
	}
	return nil
}

// slotIndex returns the index in fails of disk d's slot, or -1.
func (st *diskState) slotIndex(d int) int {
	for i := range st.fails {
		if st.fails[i].disk == d {
			return i
		}
	}
	return -1
}

// lost reports whether loc's contents are unreadable at its home slot and
// not yet available on a replacement.
func (st *diskState) lost(loc layout.Loc) bool {
	f := st.slot(loc.Disk)
	return f != nil && !(f.repl != nil && f.rebuilt[loc.Offset])
}

// disk resolves loc to the backend serving it; loc must not be lost.
func (st *diskState) disk(loc layout.Loc) Disk {
	if f := st.slot(loc.Disk); f != nil {
		return f.repl
	}
	return st.disks[loc.Disk]
}

// Store is a goroutine-safe declustered block store. See the package
// comment for the concurrency model and the failure/durability contract.
type Store struct {
	lay           layout.Layout
	mapper        layout.StripeIndexMapper
	parities      int   // parity units per stripe: 1 (P) or 2 (P+Q)
	dataPerStripe int64 // data units per stripe: G − parities
	unitSize      int
	physSize      int
	unitsPerDisk  int64 // usable units per disk (whole periods)
	numStripes    int64
	dataUnits     int64
	throttle      time.Duration

	retries       int
	retryBackoff  time.Duration
	failThreshold int
	scrubThrottle time.Duration

	ioWorkers      int
	rebuildWorkers int
	gate           *overlapGate // nil on a serial store (IOWorkers=1)

	locks lockTable
	st    atomic.Pointer[diskState]

	admin      sync.Mutex // serializes Fail / Rebuild install / heal
	rebuilding atomic.Bool
	scrubbing  atomic.Bool
	detached   []Disk // failed backends, closed with the store
	closed     bool

	intent         IntentLog
	intentMu       sync.Mutex // serializes Mark/Clear persistence, guards the group-commit state below
	intentCond     sync.Cond  // signals group-commit followers that a flush finished
	intentPend     []int64    // regions queued for the next group-commit flush
	intentFlushing bool       // a leader is flushing; arrivals queue for the next batch
	intentFailed   map[int64]error
	regionDirty    []atomic.Bool
	regionActive   []atomic.Int32
	parityDoubt    atomic.Bool // a write failed mid-stripe; hold intent until a clean scrub

	scratch sync.Pool // stripeScratch for per-stripe jobs

	diskErrs []atomic.Int64 // persistent-error score per slot

	bufs sync.Pool // physical-unit-sized buffers

	reads, writes, degradedReads   atomic.Int64
	foldedWrites, redirectedWrites atomic.Int64
	rebuiltUnits, rebuilds         atomic.Int64
	reconstructWrites              atomic.Int64
	rebuiltNow                     atomic.Int64 // progress within the current failure

	retriesDone              atomic.Int64
	checksumErrs, mediaErrs  atomic.Int64
	healedUnits, autoFails   atomic.Int64
	scrubs, scrubbedStripes  atomic.Int64
	scrubRepairs, scrubFixes atomic.Int64
	resyncStripes            atomic.Int64
	resyncRepairs            atomic.Int64
}

// New builds a Store over cfg.Layout. With cfg.Disks nil it creates
// in-memory backends; otherwise it adopts (and will Close) the supplied
// ones. If cfg.Intent carries dirty regions from a previous incarnation,
// New resynchronizes their stripes (parity recomputation, damaged-unit
// reconstruction) before returning — the crash-recovery pass.
func New(cfg Config) (*Store, error) {
	if cfg.Layout == nil {
		return nil, fmt.Errorf("store: Config.Layout is required (use declust.OpenStore to build one from C and G)")
	}
	if cfg.UnitSize == 0 {
		cfg.UnitSize = 4096
	}
	if cfg.UnitSize < 8 || cfg.UnitSize%8 != 0 {
		return nil, fmt.Errorf("store: unit size %d must be a positive multiple of 8", cfg.UnitSize)
	}
	if cfg.UnitsPerDisk == 0 {
		cfg.UnitsPerDisk = 1024
	}
	if cfg.Retries == 0 {
		cfg.Retries = 3
	}
	if cfg.Retries < 0 || cfg.Retries > 16 {
		return nil, fmt.Errorf("store: %d retries outside [0,16]", cfg.Retries)
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 500 * time.Microsecond
	}
	if cfg.RetryBackoff < 0 {
		return nil, fmt.Errorf("store: negative retry backoff %v", cfg.RetryBackoff)
	}
	if cfg.FailThreshold < 0 {
		return nil, fmt.Errorf("store: negative fail threshold %d", cfg.FailThreshold)
	}
	if cfg.IOWorkers == 0 {
		cfg.IOWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.IOWorkers < 1 || cfg.IOWorkers > 1024 {
		return nil, fmt.Errorf("store: %d I/O workers outside [1,1024]", cfg.IOWorkers)
	}
	if cfg.RebuildWorkers == 0 {
		cfg.RebuildWorkers = cfg.IOWorkers
	}
	if cfg.RebuildWorkers < 1 || cfg.RebuildWorkers > 1024 {
		return nil, fmt.Errorf("store: %d rebuild workers outside [1,1024]", cfg.RebuildWorkers)
	}
	l := cfg.Layout
	parities := layout.NumParities(l)
	if parities < 1 || parities > 2 {
		return nil, fmt.Errorf("store: layout has %d parity units per stripe; 1 (P) or 2 (P+Q) supported", parities)
	}
	usable := layout.UsableUnitsPerDisk(l, cfg.UnitsPerDisk)
	if usable == 0 {
		return nil, fmt.Errorf("store: %d units per disk is less than one allocation period (%d)",
			cfg.UnitsPerDisk, l.UnitsPerDiskPerPeriod())
	}
	c := l.Disks()
	disks := cfg.Disks
	if disks == nil {
		disks = make([]Disk, c)
		for i := range disks {
			disks[i] = NewMemDisk(usable, cfg.UnitSize)
		}
	} else if len(disks) != c {
		return nil, fmt.Errorf("store: %d disks supplied, layout needs %d", len(disks), c)
	} else {
		for i, d := range disks {
			if err := checkGeometry(d, usable, cfg.UnitSize); err != nil {
				return nil, fmt.Errorf("store: disk %d: %w", i, err)
			}
		}
	}
	s := &Store{
		lay:            l,
		mapper:         layout.StripeIndexMapper{L: l},
		parities:       parities,
		dataPerStripe:  int64(layout.DataPerStripe(l)),
		unitSize:       cfg.UnitSize,
		physSize:       PhysUnitSize(cfg.UnitSize),
		unitsPerDisk:   usable,
		numStripes:     layout.UsableStripes(l, cfg.UnitsPerDisk),
		dataUnits:      layout.DataUnits(l, cfg.UnitsPerDisk),
		throttle:       cfg.RebuildThrottle,
		retries:        cfg.Retries,
		retryBackoff:   cfg.RetryBackoff,
		failThreshold:  cfg.FailThreshold,
		scrubThrottle:  cfg.ScrubThrottle,
		ioWorkers:      cfg.IOWorkers,
		rebuildWorkers: cfg.RebuildWorkers,
		diskErrs:       make([]atomic.Int64, c),
	}
	if s.ioWorkers > 1 {
		s.gate = &overlapGate{threshold: int64(overlapThreshold)}
	}
	s.intentCond.L = &s.intentMu
	s.bufs.New = func() any {
		b := make([]byte, s.physSize)
		return &b
	}
	s.scratch.New = func() any { return newStripeScratch(l.G(), parities) }
	s.st.Store(&diskState{disks: disks})

	s.intent = cfg.Intent
	if s.intent == nil {
		s.intent = &memIntent{}
	}
	regions := intentRegions(s.numStripes)
	dirty, err := s.intent.Init(regions)
	if err != nil {
		return nil, fmt.Errorf("store: intent log: %w", err)
	}
	s.regionDirty = make([]atomic.Bool, regions)
	s.regionActive = make([]atomic.Int32, regions)
	if len(dirty) > 0 {
		if err := s.recoverIntent(dirty); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// checkGeometry validates a supplied backend against the store's needs
// when the backend reports its geometry.
func checkGeometry(d Disk, usable int64, unitSize int) error {
	sd, ok := d.(sizedDisk)
	if !ok {
		return nil
	}
	units, us := sd.Geometry()
	if us == 0 {
		return nil // a wrapper over a backend that reports none: unknown, not zero
	}
	if us != unitSize {
		return fmt.Errorf("backend has %d-byte units, store uses %d-byte units", us, unitSize)
	}
	if units < usable {
		return fmt.Errorf("backend holds %d units, store needs %d", units, usable)
	}
	return nil
}

// recoverIntent is the crash-recovery pass: every stripe of every dirty
// region is resynchronized (parity recomputed, damaged units
// reconstructed), then the regions are cleared. Runs before the store
// serves traffic, so no locks are contended.
func (s *Store) recoverIntent(dirty []int64) error {
	st := s.st.Load()
	for _, r := range dirty {
		lo := r * intentRegionStripes
		hi := lo + intentRegionStripes
		if hi > s.numStripes {
			hi = s.numStripes
		}
		for stripe := lo; stripe < hi; stripe++ {
			fix, err := s.resyncStripe(st, stripe)
			if err != nil {
				return fmt.Errorf("store: intent recovery of stripe %d: %w", stripe, err)
			}
			s.resyncStripes.Add(1)
			if fix != fixNone {
				s.resyncRepairs.Add(1)
			}
		}
	}
	// All dirty regions are consistent again: clear them with one
	// durability barrier. A crash before the clear lands just resyncs
	// them again on the next open.
	if err := s.intent.ClearBatch(dirty); err != nil {
		return fmt.Errorf("store: intent log: %w", err)
	}
	return nil
}

// markIntent durably marks stripe region r dirty before its first write.
// The fast path is one atomic load. The slow path (first write into a
// clean region) is a group commit: the writer queues its region and
// either leads — draining every queued region into one MarkBatch, which
// costs a single durability barrier however many writers piled on — or
// follows, waiting for the flush that covers its region. The natural
// flush window is the leader's own barrier: every first-writer that
// arrives while it is in flight lands in the next batch. Either way the
// mark is durable before markIntent returns, preserving the crash
// contract: no disk write ever precedes its region's durable mark.
func (s *Store) markIntent(r int64) error {
	if s.regionDirty[r].Load() {
		return nil
	}
	s.intentMu.Lock()
	defer s.intentMu.Unlock()
	for {
		if s.regionDirty[r].Load() {
			return nil
		}
		if err, ok := s.intentFailed[r]; ok {
			delete(s.intentFailed, r)
			return fmt.Errorf("store: intent log: %w", err)
		}
		queued := false
		for _, q := range s.intentPend {
			if q == r {
				queued = true
				break
			}
		}
		if !queued {
			s.intentPend = append(s.intentPend, r)
		}
		if s.intentFlushing {
			s.intentCond.Wait()
			continue
		}
		s.intentFlushing = true
		for len(s.intentPend) > 0 {
			batch := s.intentPend
			s.intentPend = nil
			s.intentMu.Unlock()
			err := s.intent.MarkBatch(batch)
			s.intentMu.Lock()
			for _, b := range batch {
				if err == nil {
					s.regionDirty[b].Store(true)
				} else {
					if s.intentFailed == nil {
						s.intentFailed = make(map[int64]error)
					}
					s.intentFailed[b] = err
				}
			}
		}
		s.intentFlushing = false
		s.intentCond.Broadcast()
	}
}

func (s *Store) getBuf() *[]byte  { return s.bufs.Get().(*[]byte) }
func (s *Store) putBuf(b *[]byte) { s.bufs.Put(b) }

// DataUnits returns the store's logical capacity in data units.
func (s *Store) DataUnits() int64 { return s.dataUnits }

// UnitSize returns the data unit size in bytes.
func (s *Store) UnitSize() int { return s.unitSize }

// Disks returns C, the array width.
func (s *Store) Disks() int { return s.lay.Disks() }

// Stripes returns the number of mapped parity stripes.
func (s *Store) Stripes() int64 { return s.numStripes }

// Mode reports the current failure state: Rebuilding if any failed slot
// has a replacement installed, Degraded if any disk is failed, else
// Healthy.
func (s *Store) Mode() Mode {
	st := s.st.Load()
	if len(st.fails) == 0 {
		return Healthy
	}
	for i := range st.fails {
		if st.fails[i].repl != nil {
			return Rebuilding
		}
	}
	return Degraded
}

// FailedDisk returns the oldest failed disk number, or -1 when healthy.
func (s *Store) FailedDisk() int {
	st := s.st.Load()
	if len(st.fails) == 0 {
		return -1
	}
	return st.fails[0].disk
}

// FailedDisks returns every failed disk number, oldest failure first.
func (s *Store) FailedDisks() []int {
	st := s.st.Load()
	out := make([]int, len(st.fails))
	for i := range st.fails {
		out[i] = st.fails[i].disk
	}
	return out
}

// Parities returns the store's parity units per stripe: 1 (P) or 2 (P+Q).
func (s *Store) Parities() int { return s.parities }

// Stats returns a snapshot of the engine counters.
func (s *Store) Stats() Stats {
	st := Stats{
		Reads:             s.reads.Load(),
		Writes:            s.writes.Load(),
		DegradedReads:     s.degradedReads.Load(),
		FoldedWrites:      s.foldedWrites.Load(),
		RedirectedWrites:  s.redirectedWrites.Load(),
		ReconstructWrites: s.reconstructWrites.Load(),
		RebuiltUnits:      s.rebuiltUnits.Load(),
		Rebuilds:          s.rebuilds.Load(),
		Retries:           s.retriesDone.Load(),
		ChecksumErrors:    s.checksumErrs.Load(),
		MediaErrors:       s.mediaErrs.Load(),
		HealedUnits:       s.healedUnits.Load(),
		AutoFails:         s.autoFails.Load(),
		Scrubs:            s.scrubs.Load(),
		ScrubbedStripes:   s.scrubbedStripes.Load(),
		ScrubUnitRepairs:  s.scrubRepairs.Load(),
		ScrubParityFixes:  s.scrubFixes.Load(),
		ResyncedStripes:   s.resyncStripes.Load(),
		ResyncRepairs:     s.resyncRepairs.Load(),
	}
	if g := s.gate; g != nil {
		st.FanOuts = g.fanOuts.Load()
		st.FanOutsInline = g.inline.Load()
		st.DeviceLatency = time.Duration(g.ewma.Load())
	}
	return st
}

// RebuildProgress reports units restored within the current failure (by
// sweep or write redirection) out of the failed disk's usable units. With
// no failure in progress it reports the last failure's final state.
func (s *Store) RebuildProgress() (done, total int64) {
	return s.rebuiltNow.Load(), s.unitsPerDisk
}

func (s *Store) checkUnit(n int64, buf []byte) error {
	if n < 0 || n >= s.dataUnits {
		return fmt.Errorf("store: data unit %d out of range [0,%d)", n, s.dataUnits)
	}
	if len(buf) != s.unitSize {
		return fmt.Errorf("store: buffer is %d bytes, unit size is %d", len(buf), s.unitSize)
	}
	return nil
}

// ReadUnit reads logical data unit n into dst (exactly one unit). Lost
// units are reconstructed on the fly from the stripe's survivors; damaged
// units (media errors, checksum mismatches) are reconstructed the same way
// and rewritten in place — the self-healing read.
func (s *Store) ReadUnit(n int64, dst []byte) error {
	if err := s.checkUnit(n, dst); err != nil {
		return err
	}
	loc := s.mapper.Loc(n)
	stripe, _ := s.lay.Locate(loc)
	s.locks.rlock(stripe)
	rebuilt, err := s.readLocked(stripe, loc, dst)
	s.locks.runlock(stripe)
	if rebuilt {
		s.degradedReads.Add(1)
	}
	if needsHeal(err) {
		// The unit is damaged. Reads share the stripe lock, so healing
		// (which rewrites the unit) upgrades to the write lock.
		err = s.healRead(stripe, loc, dst)
	}
	if err == nil {
		s.reads.Add(1)
	}
	return err
}

// readLocked reads one unit with (at least) the stripe's read lock held.
// Damage is reported (needsHeal), not repaired — repairing requires the
// write lock. rebuilt reports that the unit was lost and dst holds its
// reconstruction: the caller counts it in Stats.DegradedReads once it
// knows it is keeping what it read, so a batch abandoned for a re-read
// does not count the unit twice.
func (s *Store) readLocked(stripe int64, loc layout.Loc, dst []byte) (rebuilt bool, err error) {
	st := s.st.Load()
	if st.lost(loc) {
		if err := s.reconstructLocked(st, loc, dst); err != nil {
			return false, err
		}
		return true, nil
	}
	phys := s.getBuf()
	defer s.putBuf(phys)
	if err := s.readPhys(st.disk(loc), loc.Disk, loc.Offset, *phys); err != nil {
		return false, err
	}
	copy(dst, (*phys)[:s.unitSize])
	return false, nil
}

// healRead re-serves a read that found damage, under the stripe's write
// lock so it may repair: re-read (transient corruption clears), else
// reconstruct from survivors and rewrite the damaged unit.
func (s *Store) healRead(stripe int64, loc layout.Loc, dst []byte) error {
	s.locks.lock(stripe)
	defer s.locks.unlock(stripe)
	st := s.st.Load()
	if st.lost(loc) {
		// Lost, and a survivor was damaged: one exclusive retry under the
		// write lock, where damage the code can still absorb (a transient
		// that clears, or — under P+Q — a second erasure) is repaired.
		if err := s.recoverInto(st, loc, dst); err != nil {
			return err
		}
		s.degradedReads.Add(1)
		return nil
	}
	return s.readUnitHealing(st, loc, dst)
}

// WriteUnit writes src (exactly one unit) to logical data unit n,
// maintaining parity: the read-modify-write of the unit and each parity
// when the stripe is whole — two device waits, the pre-reads overlapped
// and then the writes — parity folding or replacement redirection when it
// is not. It is the one-unit span of WriteRange.
func (s *Store) WriteUnit(n int64, src []byte) error {
	if err := s.checkUnit(n, src); err != nil {
		return err
	}
	if err := s.writeStripeSpan(n/s.dataPerStripe, n, n, n+1, src); err != nil {
		return err
	}
	s.writes.Add(1)
	return nil
}

// writeStripeLocked commits new contents for one or more data units of a
// single stripe, updating parity once, under the write-intent discipline:
// the stripe's region is durably marked dirty before any disk is touched,
// so a crash mid-update is always covered by the recovery pass. Caller
// holds the stripe's write lock; sc.locs are distinct data-unit locations
// of this stripe and sc.datas their new contents.
func (s *Store) writeStripeLocked(stripe int64, sc *stripeScratch) error {
	r := stripe / intentRegionStripes
	s.regionActive[r].Add(1)
	defer s.regionActive[r].Add(-1)
	if err := s.markIntent(r); err != nil {
		return err
	}
	if err := s.commitStripeLocked(stripe, sc); err != nil {
		// The stripe may now be parity-inconsistent (some units committed,
		// others not). Its region stays intent-marked, and Sync refuses to
		// clear any region until a clean scrub re-establishes consistency.
		s.parityDoubt.Store(true)
		return err
	}
	return nil
}

// parityWrite is one parity unit's new contents in a pooled physical
// buffer, waiting for the commit's second round.
type parityWrite struct {
	loc layout.Loc
	buf *[]byte
}

// commitWrites is the second round of a parity update: every written data
// unit and every parity unit in sc.par, as one batch — they sit on
// distinct disks. Ordering among them carries no crash-consistency weight:
// the region's durable intent mark covers any interleaving, and recovery
// resyncs the stripe. Inline, data goes first and parity last.
func (s *Store) commitWrites(st *diskState, sc *stripeScratch) error {
	n := len(sc.locs) + len(sc.par)
	if !s.overlap(n) {
		for i := 0; i < n; i++ {
			if err := s.commitWrite(st, sc, i); err != nil {
				return err
			}
		}
		return nil
	}
	return s.fanOut(n, func(i int) error { return s.commitWrite(st, sc, i) })
}

// commitWrite issues item i of a commit's write batch.
func (s *Store) commitWrite(st *diskState, sc *stripeScratch, i int) error {
	if i < len(sc.locs) {
		return s.commitOneLocked(st, sc.locs[i], sc.datas[i])
	}
	p := sc.par[i-len(sc.locs)]
	return s.writeStamped(st.disk(p.loc), p.loc.Disk, p.loc.Offset, *p.buf)
}

// commitOneLocked commits one data unit's new contents: to its home slot
// normally, to the replacement when the unit is lost and one is installed
// (write redirection, which counts as reconstruction), or to parity alone
// when it is lost with no replacement (the fold — no write at all: parity
// now encodes it).
func (s *Store) commitOneLocked(st *diskState, loc layout.Loc, data []byte) error {
	if !st.lost(loc) {
		return s.writeDataUnit(st.disk(loc), loc.Disk, loc.Offset, data)
	}
	f := st.slot(loc.Disk)
	if f.repl == nil {
		s.foldedWrites.Add(1)
		return nil
	}
	if err := s.writeDataUnit(f.repl, loc.Disk, loc.Offset, data); err != nil {
		return err
	}
	s.markRebuilt(f, loc.Offset)
	s.redirectedWrites.Add(1)
	return nil
}

// markRebuilt records (under the stripe lock) that the failed disk's unit
// at off now lives on slot f's replacement.
func (s *Store) markRebuilt(f *failSlot, off int64) {
	if !f.rebuilt[off] {
		f.rebuilt[off] = true
		s.rebuiltUnits.Add(1)
		s.rebuiltNow.Add(1)
	}
}

// writeRebuilt lands a recovered unit — the data of phys, a physical buffer
// the caller owns until this returns — on the replacement, records it
// rebuilt, and releases its stripe's lock, which the caller took.
func (s *Store) writeRebuilt(repl Disk, f *failSlot, stripe int64, loc layout.Loc, phys []byte) error {
	defer s.locks.unlock(stripe)
	if err := s.writeStamped(repl, loc.Disk, loc.Offset, phys); err != nil {
		return err
	}
	s.markRebuilt(f, loc.Offset)
	return nil
}

// Fail takes disk d out of service: its backend is detached (to be closed
// with the store) and the slot reads as lost until rebuilt. The store
// tolerates as many concurrent failures as the layout has parity units —
// one under single parity, two under P+Q — so failing beyond that is an
// error.
func (s *Store) Fail(d int) error {
	s.admin.Lock()
	defer s.admin.Unlock()
	st := s.st.Load()
	if len(st.fails) >= s.parities {
		return fmt.Errorf("store: disks %v already failed; %d parity units per stripe correct no more",
			s.FailedDisks(), s.parities)
	}
	if d < 0 || d >= len(st.disks) {
		return fmt.Errorf("store: disk %d out of range [0,%d)", d, len(st.disks))
	}
	if st.slot(d) != nil {
		return fmt.Errorf("store: disk %d already failed", d)
	}
	disks := make([]Disk, len(st.disks))
	copy(disks, st.disks)
	s.detached = append(s.detached, disks[d])
	disks[d] = deadDisk{}
	s.rebuiltNow.Store(0)
	fails := make([]failSlot, len(st.fails), len(st.fails)+1)
	copy(fails, st.fails)
	fails = append(fails, failSlot{disk: d, rebuilt: make([]bool, s.unitsPerDisk)})
	s.st.Store(&diskState{disks: disks, fails: fails})
	return nil
}

// Rebuild installs repl as the replacement for the oldest failed disk
// without one and sweeps that disk's units onto it, stripe by stripe under
// the stripe locks, while user operations continue. Units already
// redirected by concurrent writes are skipped. On completion the
// replacement is swapped into the array and the failure slot retires —
// under P+Q a doubly-failed store goes Rebuilding → Degraded after the
// first Rebuild and back to Healthy after the second. repl must hold at
// least the usable unit count and should be blank; its prior contents are
// overwritten. A Rebuild that returns an error leaves the store as it found
// it — Degraded, no replacement installed; a repl whose sweep failed is
// kept only to be closed with the store.
func (s *Store) Rebuild(repl Disk) error {
	if repl == nil {
		return fmt.Errorf("store: nil replacement disk")
	}
	if err := checkGeometry(repl, s.unitsPerDisk, s.unitSize); err != nil {
		return fmt.Errorf("store: replacement: %w", err)
	}
	if !s.rebuilding.CompareAndSwap(false, true) {
		return fmt.Errorf("store: rebuild already in progress")
	}
	defer s.rebuilding.Store(false)

	s.admin.Lock()
	st := s.st.Load()
	target := -1
	for i := range st.fails {
		if st.fails[i].repl == nil {
			target = st.fails[i].disk
			break
		}
	}
	if target == -1 {
		s.admin.Unlock()
		return fmt.Errorf("store: no failed disk to rebuild")
	}
	fails := make([]failSlot, len(st.fails))
	copy(fails, st.fails)
	fails[st.slotIndex(target)].repl = repl
	// Progress is per failure: with two failures pending (P+Q) the second
	// Rebuild starts its own count instead of continuing the first's.
	s.rebuiltNow.Store(0)
	s.st.Store(&diskState{disks: st.disks, fails: fails})
	s.admin.Unlock()

	// Sweep the failed disk's offsets in RebuildWorkers contiguous shards.
	// Two offsets of one disk always belong to different stripes (the
	// layout places at most one unit of a stripe per disk), so shards
	// never contend on a stripe's own lock, and the declustered layout
	// spreads each shard's survivor reads over the whole array. Throttle
	// pacing is aggregate: each worker sleeps workers× the configured
	// pause, so the knob means the same sweep rate — and holds the rebuild
	// window open just as long — at any worker count. Each unit reloads
	// the failure snapshot under its stripe lock, so a second disk failing
	// mid-sweep is picked up as another erasure (P+Q decodes through it)
	// instead of being read as a live survivor.
	//
	// When device waits are worth overlapping a shard is double-buffered:
	// the replacement write of one unit is left behind to land while the
	// worker gathers the next unit's survivors, so a unit costs one device
	// wait instead of two. The write owns its stripe's lock until it has
	// landed — the unit is not rebuilt, and its stripe not consistent with
	// the rebuilt map, before that — and at most one is in flight per
	// worker: the worker joins it once the next gather is done, before
	// that gather's own write may start. RebuildWorkers is therefore exactly
	// the units in flight: at most RebuildWorkers × (G−1) survivor reads and
	// RebuildWorkers replacement writes at once.
	workers := s.rebuildWorkers
	if int64(workers) > s.unitsPerDisk {
		workers = int(s.unitsPerDisk)
	}
	var (
		wg      sync.WaitGroup
		stop    atomic.Bool
		errMu   sync.Mutex
		swErr   error
		swErrAt int64
	)
	fail := func(off int64, err error) {
		errMu.Lock()
		if swErr == nil || off < swErrAt {
			swErr = fmt.Errorf("store: rebuild of %v: %w", layout.Loc{Disk: target, Offset: off}, err)
			swErrAt = off
		}
		errMu.Unlock()
		stop.Store(true)
	}
	for w := 0; w < workers; w++ {
		lo := s.unitsPerDisk * int64(w) / int64(workers)
		hi := s.unitsPerDisk * int64(w+1) / int64(workers)
		wg.Add(1)
		go func(lo, hi int64) {
			defer wg.Done()
			var bufs [2]*[]byte
			for i := range bufs {
				bufs[i] = s.getBuf()
				defer s.putBuf(bufs[i])
			}
			cur := 0                      // the buffer no write in flight is using
			behind := make(chan error, 1) // outcome of the write in flight
			behindAt := int64(-1)         // its offset; −1: none in flight
			join := func() bool {
				if behindAt < 0 {
					return true
				}
				err, at := <-behind, behindAt
				behindAt = -1
				if err != nil {
					fail(at, err)
				}
				return err == nil
			}
			defer join()
			for off := lo; off < hi && !stop.Load(); off++ {
				loc := layout.Loc{Disk: target, Offset: off}
				stripe, _ := s.lay.Locate(loc)
				phys := *bufs[cur]
				s.locks.lock(stripe)
				stc := s.st.Load()
				switch f := stc.slot(target); {
				case f == nil || f.rebuilt[off]:
					s.locks.unlock(stripe)
				default:
					err := s.recoverInto(stc, loc, phys[:s.unitSize])
					if err != nil {
						fail(off, err)
					}
					if !join() || err != nil {
						s.locks.unlock(stripe)
						return
					}
					if s.gate.pays(2) {
						behindAt, cur = off, cur^1
						go func() { behind <- s.writeRebuilt(repl, f, stripe, loc, phys) }()
					} else if err := s.writeRebuilt(repl, f, stripe, loc, phys); err != nil {
						fail(off, err)
						return
					}
				}
				if s.throttle > 0 {
					time.Sleep(s.throttle * time.Duration(workers))
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	if swErr != nil {
		s.dropReplacement(target, repl)
		return swErr
	}

	// Heal: swap the replacement into the slot and retire the failure.
	// The slot's persistent-error score resets — it is a new device.
	s.admin.Lock()
	st2 := s.st.Load()
	disks := make([]Disk, len(st2.disks))
	copy(disks, st2.disks)
	disks[target] = repl
	s.diskErrs[target].Store(0)
	fails2 := make([]failSlot, 0, len(st2.fails)-1)
	for i := range st2.fails {
		if st2.fails[i].disk != target {
			fails2 = append(fails2, st2.fails[i])
		}
	}
	s.st.Store(&diskState{disks: disks, fails: fails2})
	s.admin.Unlock()
	s.rebuilds.Add(1)
	return nil
}

// dropReplacement undoes Rebuild's install after a failed sweep: the store
// is as Rebuild found it — Degraded, no replacement — so a later Rebuild
// onto a good disk can start over. The slot gets a fresh rebuilt map: an
// operation still on the old snapshot may yet mark a redirected unit
// there, and must not mark it here. Nothing is lost with the replacement,
// since every write to a lost unit folded into parity whether or not it
// was also redirected; repl joins the detached disks, to be closed with
// the store.
func (s *Store) dropReplacement(target int, repl Disk) {
	s.admin.Lock()
	defer s.admin.Unlock()
	st := s.st.Load()
	fails := make([]failSlot, len(st.fails))
	copy(fails, st.fails)
	fails[st.slotIndex(target)] = failSlot{disk: target, rebuilt: make([]bool, s.unitsPerDisk)}
	s.rebuiltNow.Store(0)
	s.detached = append(s.detached, repl)
	s.st.Store(&diskState{disks: st.disks, fails: fails})
}

// CheckParity verifies, at quiesce (no operations in flight), that every
// stripe's checksums hold and its parity equations balance: the XOR over
// the data units equals the stored P and — under P+Q — their Reed–Solomon
// sum equals the stored Q. Stripes with a lost unit are skipped — their
// consistency is exactly what degraded reads exercise. CheckParity reports
// damage; Scrub repairs it.
func (s *Store) CheckParity() error {
	return s.fanOut(int(s.numStripes), func(i int) error {
		stripe := int64(i)
		sc := s.scratch.Get().(*stripeScratch)
		defer s.scratch.Put(sc)
		s.locks.rlock(stripe)
		defer s.locks.runlock(stripe)
		st := s.st.Load()
		if s.stripeHasLost(st, stripe) {
			return nil
		}
		px, qx, damaged, err := s.syndromes(st, sc, stripe)
		defer s.putParity(sc)
		if err == nil && len(damaged) > 0 {
			err = damaged[0].err
		}
		switch {
		case err != nil:
			return fmt.Errorf("store: stripe %d: %w", stripe, err)
		case !allZero(px):
			return fmt.Errorf("store: stripe %d P parity inconsistent", stripe)
		case !allZero(qx):
			return fmt.Errorf("store: stripe %d Q parity inconsistent", stripe)
		}
		return nil
	})
}

// Sync is the store's durability point: it flushes every in-service
// backend that supports Sync, then — with all data durable — clears the
// intent-log regions that have no writer in flight. It may run beside
// client traffic: a region with an active writer is left marked, a writer
// that arrives while a region is being cleared waits for the clear and
// marks it again before touching a disk, and no region is cleared while a
// failed write has the stripe set in doubt (a clean Scrub that skipped no
// stripe restores confidence).
func (s *Store) Sync() error {
	st := s.st.Load()
	var errs []error
	for i, d := range st.disks {
		if sd, ok := d.(syncDisk); ok {
			if err := sd.Sync(); err != nil {
				errs = append(errs, fmt.Errorf("store: sync disk %d: %w", i, err))
			}
		}
	}
	for i := range st.fails {
		if st.fails[i].repl == nil {
			continue
		}
		if sd, ok := st.fails[i].repl.(syncDisk); ok {
			if err := sd.Sync(); err != nil {
				errs = append(errs, fmt.Errorf("store: sync replacement: %w", err))
			}
		}
	}
	if len(errs) == 0 && !s.parityDoubt.Load() {
		// Collect every clearable region and pay one durability barrier
		// for the whole set, the flip side of MarkBatch's group commit.
		// A writer counts itself into regionActive and then reads
		// regionDirty; here the flag goes down first and the count is read
		// again after, so either that writer finds the flag down — and
		// waits on intentMu to mark the region again — or it is seen here
		// and the region keeps its mark. The flag stays down if the clear
		// fails: the log may still say dirty, which costs one spurious
		// mark, never a write the log calls clean.
		s.intentMu.Lock()
		var clear []int64
		for r := range s.regionDirty {
			if !s.regionDirty[r].Load() || s.regionActive[r].Load() != 0 {
				continue
			}
			s.regionDirty[r].Store(false)
			if s.regionActive[r].Load() != 0 {
				s.regionDirty[r].Store(true)
				continue
			}
			clear = append(clear, int64(r))
		}
		if len(clear) > 0 {
			if err := s.intent.ClearBatch(clear); err != nil {
				errs = append(errs, fmt.Errorf("store: intent log: %w", err))
			}
		}
		s.intentMu.Unlock()
	}
	return errors.Join(errs...)
}

// Close releases every backend, including detached failed disks, and the
// intent log. The store must be quiesced; a clean Close syncs backends
// and clears the intent log first (so the next open skips recovery), and
// operations after Close have undefined results. Every failure along the
// way is reported, joined — a disk that will not close does not hide the
// next one's error.
func (s *Store) Close() error {
	s.admin.Lock()
	defer s.admin.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	errs := []error{s.Sync()}
	st := s.st.Load()
	for i, d := range st.disks {
		if err := d.Close(); err != nil {
			errs = append(errs, fmt.Errorf("store: close disk %d: %w", i, err))
		}
	}
	for i := range st.fails {
		if st.fails[i].repl == nil {
			continue
		}
		if err := st.fails[i].repl.Close(); err != nil {
			errs = append(errs, fmt.Errorf("store: close replacement: %w", err))
		}
	}
	for _, d := range s.detached {
		if err := d.Close(); err != nil {
			errs = append(errs, fmt.Errorf("store: close detached disk: %w", err))
		}
	}
	if err := s.intent.Close(); err != nil {
		errs = append(errs, fmt.Errorf("store: close intent log: %w", err))
	}
	return errors.Join(errs...)
}

// zeroBytes clears b (the compiler lowers this loop to memclr).
func zeroBytes(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// xorInto XORs src into dst in place; lengths are equal unit sizes,
// which New constrains to multiples of 8.
func xorInto(dst, src []byte) {
	for i := 0; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
	}
}
