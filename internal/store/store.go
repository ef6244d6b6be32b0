package store

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
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
	// nil builds in-memory disks. Each must report, by its Geometry, the
	// store's unit size and at least the usable unit count.
	Disks []Disk
	// IOWorkers is the upper bound on overlap: how many independent disk
	// accesses of one batch (a degraded read's survivor gather, the
	// pre-reads and then the writes of a parity update, the units of a
	// stripe span, the stripes of a range operation) the store may keep in
	// flight at once, on up to IOWorkers−1 helper goroutines plus the
	// submitting one. The bound is per batch; nothing is shared
	// between operations. The store decides per batch whether to use
	// helpers at all: it times a sample of its backend accesses and
	// overlaps a batch only when the device waits saved outweigh the
	// hand-off, so a memory- or page-cache-fast backend is served inline
	// whatever this is set to (see Stats.DeviceLatency). 1 is the serial
	// engine (no helpers, no timing, bit-identical results); 0 defaults to
	// GOMAXPROCS.
	IOWorkers int
	// RebuildWorkers is how many units Rebuild, and stripes Scrub and
	// CheckParity, keep in flight: each of the three sweeps runs as that many
	// concurrent shards. A rebuild shard has one survivor gather (at most G−1
	// reads) and — on devices worth overlapping — one replacement write
	// outstanding. The declustered layout spreads each shard's reconstruction
	// reads over all surviving disks, so the sweep scales until the
	// survivors saturate. RebuildThrottle/ScrubThrottle pacing is aggregate:
	// each worker sleeps workers× the configured throttle after every unit or
	// stripe, skipped ones included, so the knob fixes the same wall-clock
	// sweep rate at any worker count. 0 defaults to IOWorkers.
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
	// is retried before the error is treated as persistent (default 3),
	// after a 500µs sleep that doubles each attempt.
	Retries int
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
	// persistently (torn writes, bit rot), each as it becomes an erasure
	// to heal; damage past the code's budget is not counted.
	ChecksumErrors int64
	// MediaErrors counts unrecoverable media errors (latent sector
	// errors) as backends report them, one per failed read — not per
	// damaged unit: a read that finds one under the shared stripe lock
	// and re-reads it under the exclusive lock to heal it reports one
	// latent unit twice.
	MediaErrors int64
	// HealedUnits counts damaged units rewritten in place with contents
	// reconstructed from their stripe's survivors (self-healing reads,
	// RMW pre-reads, and scrub repairs).
	HealedUnits int64
	// LostUnits counts what stripes found past the code's erasure budget
	// lost, as the simulator's FaultStats.LostUnits does: every erasure of
	// such a stripe — lost or damaged, data or parity — bar the units the
	// operation that met it overwrote. Each such stripe is rewritten whole,
	// its erased data units as their poison blocks, which read
	// ErrUnrecoverable until next written.
	LostUnits int64
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
// (transition publishes fresh snapshots); each slot's rebuilt is
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

// installed returns the slot with a replacement installed, or nil.
func (st *diskState) installed() *failSlot {
	for i := range st.fails {
		if st.fails[i].repl != nil {
			return &st.fails[i]
		}
	}
	return nil
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
	parities      int   // parity units per stripe: 1 (P) or 2 (P+Q)
	dataPerStripe int64 // data units per stripe: G − parities
	unitSize      int
	physSize      int
	zeroSum       uint32 // crc32c of a zero unit (xorSum)
	unitsPerDisk  int64  // usable units per disk (whole periods)
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

	admin      sync.Mutex // serializes transition and Close
	rebuilding atomic.Bool
	scrubbing  atomic.Bool
	adopted    []Disk // closed with the store: New's members in disk order, then each replacement Rebuild installed
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
	lostUnits                atomic.Int64
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
	if cfg.UnitsPerDisk < 0 {
		return nil, fmt.Errorf("store: negative units per disk %d", cfg.UnitsPerDisk)
	}
	if cfg.Retries == 0 {
		cfg.Retries = 3
	}
	if cfg.Retries < 0 || cfg.Retries > 16 {
		return nil, fmt.Errorf("store: %d retries outside [0,16]", cfg.Retries)
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
	parities := l.Parities()
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
		parities:       parities,
		dataPerStripe:  int64(layout.DataPerStripe(l)),
		unitSize:       cfg.UnitSize,
		physSize:       PhysUnitSize(cfg.UnitSize),
		zeroSum:        dataSum(make([]byte, cfg.UnitSize)),
		unitsPerDisk:   usable,
		numStripes:     layout.UsableStripes(l, cfg.UnitsPerDisk),
		dataUnits:      layout.DataUnits(l, cfg.UnitsPerDisk),
		throttle:       cfg.RebuildThrottle,
		retries:        cfg.Retries,
		retryBackoff:   retryBackoff,
		failThreshold:  cfg.FailThreshold,
		scrubThrottle:  cfg.ScrubThrottle,
		ioWorkers:      cfg.IOWorkers,
		rebuildWorkers: cfg.RebuildWorkers,
		diskErrs:       make([]atomic.Int64, c),
		adopted:        slices.Clone(disks),
	}
	if s.ioWorkers > 1 {
		s.gate = &overlapGate{threshold: int64(overlapThreshold)}
	}
	s.intentCond.L = &s.intentMu
	s.bufs.New = func() any {
		b := make([]byte, s.physSize)
		return &b
	}
	s.scratch.New = func() any { return newStripeScratch(l.G(), parities, s.physSize) }
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

// checkGeometry validates a supplied backend against the store's needs.
func checkGeometry(d Disk, usable int64, unitSize int) error {
	units, us := d.Geometry()
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
	// them again on the next open. A lost stripe's rewrite marked its
	// region; the clear covers it.
	if err := s.intent.ClearBatch(dirty); err != nil {
		return fmt.Errorf("store: intent log: %w", err)
	}
	for _, r := range dirty {
		s.regionDirty[r].Store(false)
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
	if st.installed() != nil {
		return Rebuilding
	}
	return Degraded
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
		LostUnits:         s.lostUnits.Load(),
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

// RebuildProgress reports units restored by the running rebuild (by sweep
// or write redirection) out of the failed disk's usable units. With no
// rebuild running it reports the last one's final state, or zero once a
// disk fails or a rebuild fails.
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
// and rewritten in place — the self-healing read. It is the one-unit span
// of ReadRange.
func (s *Store) ReadUnit(n int64, dst []byte) error {
	if err := s.checkUnit(n, dst); err != nil {
		return err
	}
	if err := s.readStripeSpan(n/s.dataPerStripe, n, n, n+1, dst); err != nil {
		return err
	}
	if err := s.checkLost(n, dst); err != nil {
		return err
	}
	s.reads.Add(1)
	return nil
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
// of this stripe and sc.datas their new contents. An update that finds the
// stripe past its erasure budget, rewritten (loseStripe), runs again
// (carryOn).
func (s *Store) writeStripeLocked(stripe int64, sc *stripeScratch) error {
	r := stripe / intentRegionStripes
	s.regionActive[r].Add(1)
	defer s.regionActive[r].Add(-1)
	if err := s.markIntent(r); err != nil {
		return err
	}
	if err := carryOn(stripe, sc, func() error { return s.commitStripeLocked(stripe, sc) }); err != nil {
		// The stripe may now be parity-inconsistent (some units committed,
		// others not). Its region stays intent-marked, and Sync refuses to
		// clear any region until a clean scrub re-establishes consistency.
		s.parityDoubt.Store(true)
		return err
	}
	return nil
}

// parityWrite is one parity unit's new contents in a pooled physical
// buffer, waiting for the commit's second round — with their crc32c when
// it was derived (a P sum's; sums.pSum), or to be stamped by computing.
type parityWrite struct {
	loc     layout.Loc
	pos     int // loc's position in the stripe
	buf     *[]byte
	sum     uint32
	derived bool
}

// commitJob is what the items of a commit's write batch share.
type commitJob struct {
	s  *Store
	st *diskState
	sc *stripeScratch
}

// commitWrites is the second round of a parity update: every written data
// unit and every parity unit in sc.par, as one batch — they sit on
// distinct disks. Ordering among them carries no crash-consistency weight:
// the region's durable intent mark covers any interleaving, and recovery
// resyncs the stripe. Inline, data goes first and parity last.
func (s *Store) commitWrites(st *diskState, sc *stripeScratch) error {
	return fanOut(s, len(sc.locs)+len(sc.par), commitJob{s, st, sc}, func(j commitJob, i int) error {
		if i < len(j.sc.locs) {
			return j.s.commitOneLocked(j.st, j.sc.locs[i], j.sc.datas[i], j.sc.newSums[i])
		}
		p := j.sc.par[i-len(j.sc.locs)]
		if !p.derived {
			return j.s.writeStamped(j.st.disk(p.loc), p.loc.Disk, p.loc.Offset, *p.buf)
		}
		putTrailer(*p.buf, j.s.unitSize, p.loc.Offset, p.sum)
		return j.s.writePhysRaw(j.st.disk(p.loc), p.loc.Disk, p.loc.Offset, *p.buf)
	})
}

// commitOneLocked commits one data unit's new contents, whose crc32c is
// sum: to its home slot normally, to the replacement when the unit is lost
// and one is installed (write redirection, which counts as
// reconstruction), or to parity alone when it is lost with no replacement
// (the fold — no write at all: parity now encodes it).
func (s *Store) commitOneLocked(st *diskState, loc layout.Loc, data []byte, sum uint32) error {
	if !st.lost(loc) {
		return s.writeDataUnit(st.disk(loc), loc.Disk, loc.Offset, data, sum)
	}
	f := st.slot(loc.Disk)
	if f.repl == nil {
		s.foldedWrites.Add(1)
		return nil
	}
	if err := s.writeDataUnit(f.repl, loc.Disk, loc.Offset, data, sum); err != nil {
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

// transition makes every change of the failure state — Fail, Rebuild's
// install and heal, and a failed rebuild's undo. Under s.admin it copies
// the published snapshot, applies edit to the copy and publishes the
// result; an edit that returns an error publishes nothing. It owns the
// progress rule too: the count belongs to the running rebuild, and starts
// over unless the edit leaves that rebuild's replacement installed (a
// second failure beside it) or heals it. So a failure with no rebuild
// running, an install and a failed rebuild's undo all start from zero.
func (s *Store) transition(edit func(st *diskState) error) error {
	s.admin.Lock()
	defer s.admin.Unlock()
	old := s.st.Load()
	st := &diskState{disks: slices.Clone(old.disks), fails: slices.Clone(old.fails)}
	if err := edit(st); err != nil {
		return err
	}
	if r := old.installed(); r == nil || st.slot(r.disk) != nil && st.slot(r.disk).repl == nil {
		s.rebuiltNow.Store(0)
	}
	s.st.Store(st)
	return nil
}

// Fail takes disk d out of service: its backend stays adopted (to be
// closed with the store) and the slot reads as lost until rebuilt. The
// store tolerates as many concurrent failures as the layout has parity
// units — one under single parity, two under P+Q — so failing beyond that
// is an error.
func (s *Store) Fail(d int) error {
	return s.transition(func(st *diskState) error {
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
		st.disks[d] = deadDisk{}
		st.fails = append(st.fails, failSlot{disk: d, rebuilt: make([]bool, s.unitsPerDisk)})
		return nil
	})
}

// Rebuild installs repl as the replacement for the oldest failed disk
// without one and sweeps that disk's units onto it, stripe by stripe under
// the stripe locks, while user operations continue. Units already
// redirected by concurrent writes are skipped. On completion the
// replacement is swapped into the array and the failure slot retires —
// under P+Q a doubly-failed store goes Rebuilding → Degraded after the
// first Rebuild and back to Healthy after the second. repl must hold at
// least the usable unit count and should be blank; its prior contents are
// overwritten. A unit whose stripe is past its erasure budget is lost, not
// the rebuild: the stripe is rewritten with its lost units marked
// (loseStripe) and the sweep carries on. A Rebuild that returns an error —
// a hard I/O error, such as a replacement that fails its writes — leaves
// the store as it found it: Degraded, no replacement installed; a repl
// whose sweep failed is kept only to be closed with the store, and one
// refused before its install is not the store's to close.
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

	target := -1
	if err := s.transition(func(st *diskState) error {
		for i := range st.fails {
			if st.fails[i].repl == nil {
				st.fails[i].repl, target = repl, st.fails[i].disk
				s.adopted = append(s.adopted, repl)
				return nil
			}
		}
		return fmt.Errorf("store: no failed disk to rebuild")
	}); err != nil {
		return err
	}

	// Sweep the failed disk's offsets. Two offsets of one disk always belong
	// to different stripes (the layout places at most one unit of a stripe
	// per disk), so shards never contend on a stripe's own lock, and the
	// declustered layout spreads each shard's survivor reads over the whole
	// array. Each unit reloads the failure snapshot under its stripe lock,
	// so a second disk failing mid-sweep is picked up as another erasure
	// (P+Q decodes through it) instead of being read as a live survivor.
	//
	// When device waits are worth overlapping a shard is double-buffered:
	// the replacement write of one unit is left behind to land while the
	// shard gathers the next unit's survivors, so a unit costs one device
	// wait instead of two. The write owns its stripe's lock until it has
	// landed — the unit is not rebuilt, and its stripe not consistent with
	// the rebuilt map, before that — and at most one is in flight per
	// shard: the shard joins it once the next gather is done, before that
	// gather's own write may start. RebuildWorkers is therefore exactly the
	// units in flight: at most RebuildWorkers × (G−1) survivor reads and
	// RebuildWorkers replacement writes at once.
	failed := func(off int64, err error) error {
		if err == nil {
			return nil
		}
		return fmt.Errorf("store: rebuild of %v: %w", layout.Loc{Disk: target, Offset: off}, err)
	}
	err := s.sweep(s.unitsPerDisk, s.throttle, func() (func(int64) error, func() error) {
		bufs := [2]*[]byte{s.getBuf(), s.getBuf()}
		cur := 0                      // the buffer no write in flight is using
		behind := make(chan error, 1) // outcome of the write in flight
		pending := false              // a write is in flight
		join := func() error {
			if !pending {
				return nil
			}
			pending = false
			return <-behind
		}
		step := func(off int64) error {
			loc := layout.Loc{Disk: target, Offset: off}
			stripe, _ := s.lay.Locate(loc)
			phys := *bufs[cur]
			sc := s.getScratch()
			s.locks.lock(stripe)
			var f *failSlot
			err := carryOn(stripe, sc, func() error {
				// Run again after a loss, a lost data unit has landed here
				// as its poison block; a parity unit is still to recompute.
				stc := s.st.Load()
				if f = stc.slot(target); f == nil || f.rebuilt[off] {
					f = nil
					return nil
				}
				return s.recoverInto(stc, sc, loc, phys[:s.unitSize], nil)
			})
			s.scratch.Put(sc)
			if err == nil && f == nil {
				s.locks.unlock(stripe)
				return nil
			}
			err = failed(off, err)
			if jerr := join(); jerr != nil {
				err = jerr // the write behind is at a lower offset
			}
			if err != nil {
				s.locks.unlock(stripe)
				return err
			}
			if s.gate.pays(2) {
				pending, cur = true, cur^1
				go func(f *failSlot) { behind <- failed(off, s.writeRebuilt(repl, f, stripe, loc, phys)) }(f)
				return nil
			}
			return failed(off, s.writeRebuilt(repl, f, stripe, loc, phys))
		}
		done := func() error {
			err := join()
			s.putBuf(bufs[0])
			s.putBuf(bufs[1])
			return err
		}
		return step, done
	})
	if err != nil {
		// Undo the install: the store is as Rebuild found it — Degraded, no
		// replacement — so a later Rebuild onto a good disk can start over.
		// The slot gets a fresh rebuilt map: an operation still on the old
		// snapshot may yet mark a redirected unit there, and must not mark
		// it here. Nothing is lost with the replacement, since every write
		// to a lost unit folded into parity whether or not it was also
		// redirected; repl stays adopted, to be closed with the store.
		s.transition(func(st *diskState) error {
			*st.slot(target) = failSlot{disk: target, rebuilt: make([]bool, s.unitsPerDisk)}
			return nil
		})
		return err
	}

	// Heal: swap the replacement into the slot and retire the failure.
	// The slot's persistent-error score resets — it is a new device.
	s.transition(func(st *diskState) error {
		st.disks[target] = repl
		s.diskErrs[target].Store(0)
		st.fails = slices.DeleteFunc(st.fails, func(f failSlot) bool { return f.disk == target })
		return nil
	})
	s.rebuilds.Add(1)
	return nil
}

// sweep is the one walk over the array that Rebuild, Scrub and CheckParity
// share: it visits the indices [0, n) — failed-disk offsets or stripes — as
// Config.RebuildWorkers contiguous shards, one goroutine each. shard runs
// once on each shard's goroutine (its setup) and returns the step, run on
// the shard's indices in ascending order, and done (nil: none), run once
// the shard stops, whatever stopped it (its teardown). After every index
// the shard sleeps pause × workers, so a throttle paces the sweep in
// aggregate: the same wall-clock sweep rate at any worker count, whether
// the step did work at that index or passed it over. The first error stops
// every shard before its next index, and sweep returns the error at the
// lowest index observed (a done's error counts at its shard's first index:
// shards are contiguous, so that orders it correctly against the others).
func (s *Store) sweep(n int64, pause time.Duration, shard func() (step func(int64) error, done func() error)) error {
	workers := min(int64(s.rebuildWorkers), n)
	var (
		wg    sync.WaitGroup
		stop  atomic.Bool
		mu    sync.Mutex
		err   error
		errAt int64
	)
	fail := func(at int64, e error) {
		mu.Lock()
		if err == nil || at < errAt {
			err, errAt = e, at
		}
		mu.Unlock()
		stop.Store(true)
	}
	wg.Add(int(workers))
	for w := int64(0); w < workers; w++ {
		go func(lo, hi int64) {
			defer wg.Done()
			step, done := shard()
			for i := lo; i < hi && !stop.Load(); i++ {
				if e := step(i); e != nil {
					fail(i, e)
					break
				}
				if pause > 0 {
					time.Sleep(pause * time.Duration(workers))
				}
			}
			if done != nil {
				if e := done(); e != nil {
					fail(lo, e)
				}
			}
		}(n*w/workers, n*(w+1)/workers)
	}
	wg.Wait()
	return err
}

// CheckParity verifies, at quiesce (no operations in flight), that every
// stripe's checksums hold and its parity equations balance: the XOR over
// the data units equals the stored P and — under P+Q — their Reed–Solomon
// sum equals the stored Q. Stripes with a lost unit are skipped — their
// consistency is exactly what degraded reads exercise. CheckParity reports
// damage; Scrub repairs it.
func (s *Store) CheckParity() error {
	check := func(stripe int64) error {
		sc := s.getScratch()
		defer s.scratch.Put(sc)
		s.locks.rlock(stripe)
		defer s.locks.runlock(stripe)
		st := s.st.Load()
		if len(s.lostPositions(st, stripe, nil, sc.erased)) > 0 {
			return nil
		}
		px, qx, i, err := s.syndromes(st, sc, stripe)
		defer s.putParity(sc)
		if err == nil && i >= 0 {
			err = sc.errs[sc.terms[i].pos]
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
	}
	return s.sweep(s.numStripes, 0, func() (func(int64) error, func() error) { return check, nil })
}

// Sync is the store's durability point: it flushes every in-service
// backend and every installed replacement, then — with all data durable —
// clears the intent-log regions that have no writer in flight. It may run
// beside client traffic: a region with an active writer is left marked, a
// writer that arrives while a region is being cleared waits for the clear
// and marks it again before touching a disk, and no region is cleared
// while a failed write has the stripe set in doubt (a clean Scrub that
// skipped no stripe restores confidence).
func (s *Store) Sync() error {
	st := s.st.Load()
	var errs []error
	for i, d := range st.disks {
		if err := d.Sync(); err != nil {
			errs = append(errs, fmt.Errorf("store: sync disk %d: %w", i, err))
		}
	}
	for _, f := range st.fails {
		if f.repl == nil {
			continue
		}
		if err := f.repl.Sync(); err != nil {
			errs = append(errs, fmt.Errorf("store: sync replacement: %w", err))
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

// Close releases every adopted backend — the members New took over, failed
// ones included, and every replacement Rebuild installed — and the intent
// log. The store must be quiesced; a clean Close syncs backends
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
	for i, d := range s.adopted {
		if err := d.Close(); err != nil {
			errs = append(errs, fmt.Errorf("store: close backend %d: %w", i, err))
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
