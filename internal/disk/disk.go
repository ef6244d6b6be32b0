package disk

import (
	"fmt"
	"math"

	"declust/internal/sim"
	"declust/internal/telemetry"
)

// Status is the outcome of a disk transfer.
type Status int

const (
	// OK: the transfer completed and (for reads) returned valid data.
	OK Status = iota
	// MediaError: the platter could not return the sectors (a latent
	// sector error). The request paid its full service time discovering
	// it; retries do not help — the data must be recovered from
	// redundancy, and a subsequent write to the region remaps it.
	MediaError
	// Timeout: a transient fault (bus reset, recovered internal retry
	// storm) swallowed the request. No data moved; the arm did not move.
	// A retry draws a fresh outcome.
	Timeout
)

func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case MediaError:
		return "media-error"
	case Timeout:
		return "timeout"
	default:
		return "Status(?)"
	}
}

// FaultHook decides the fate of a transfer at service time. It may keep
// per-disk state (bad sector sets, RNG streams); returning OK always is
// equivalent to no hook.
type FaultHook func(start int64, count int, write bool) Status

// Request is one contiguous disk transfer.
type Request struct {
	Start int64 // first logical block address
	Count int   // number of sectors, > 0
	Write bool  // direction; timing is symmetric, kept for accounting

	// Priority tags the request's service class (user I/O vs demoted
	// reconstruction/scrub I/O): the scheduler only considers requests of
	// the highest priority present in the queue, except that a request
	// older than the configured age bound is promoted into the top class.
	// Within a class, the configured Policy chooses. Zero is the default
	// (user) class.
	Priority int

	// OnDone fires when the transfer completes, with the simulated times
	// at which service started and finished and the transfer's outcome.
	OnDone func(start, finish float64, st Status)

	// Span, when non-nil, is the lifecycle span this transfer belongs to;
	// the drive records queue/seek/rotate/transfer (or cache-hit, or
	// timeout) child segments under it at completion time. Nil — the
	// default — records nothing and costs one nil check.
	Span *telemetry.Span

	queuedAt float64
	seq      uint64
	cyl      int // target cylinder, computed once at Submit
}

// Stats accumulates per-disk counters.
type Stats struct {
	Completed    int64   // requests finished (including read-ahead hits)
	SectorsMoved int64   // total sectors mechanically transferred
	BusyMS       float64 // total time the arm was servicing requests
	SeekMS       float64 // portion of BusyMS spent seeking
	RotateMS     float64 // portion spent waiting for rotation
	TransferMS   float64 // portion spent transferring
	QueueMS      float64 // total time requests waited in queue
	MaxQueueLen  int
	SeekCyls     int64 // total cylinders traveled to reach request starts
	MediaErrors  int64 // transfers that hit a latent sector error
	Timeouts     int64 // transfers lost to transient faults

	// Read-ahead activity (always zero with ReadAheadTracks = 0).
	CacheHits       int64 // reads served from the track read-ahead buffer
	CacheHitSectors int64 // sectors those hits returned without platter work
}

// Disk is a single simulated drive attached to an event engine. It services
// one request at a time; pending requests wait in a scheduler queue, except
// reads served from the track read-ahead buffer, which complete immediately.
type Disk struct {
	eng   *sim.Engine
	geom  Geometry
	seek  SeekCurve
	sched *schedQueue

	busy     bool
	headCyl  int
	seq      uint64
	slot     int // array slot for telemetry segments; -1 when standalone
	stats    Stats
	observer func(Event)

	// Track read-ahead buffer: [raLo, raHi) is the LBA window currently
	// held in drive RAM; empty when raLo >= raHi. hitFree pools hit
	// completion records (see readahead.go).
	raTracks int
	raLo     int64
	raHi     int64
	hitFree  []*raHit

	// Completion state for the one request in service. startNext fills
	// these and schedules completeFn — a method value bound once at
	// construction — so steady-state completions allocate nothing.
	doneReq    *Request
	doneStart  float64
	doneFinish float64
	doneStatus Status
	doneCyl    int
	doneDist   int
	doneBr     serviceBreakdown
	completeFn func()

	// Fault injection (nil hook = the drive never errs).
	hook      FaultHook
	timeoutMS float64
}

// Config selects a drive's scheduling and caching behaviour. The zero
// value is the paper's configuration: CVSCAN with bias 0 (callers that
// want the experiments' default bias pass 0.2 explicitly), no read-ahead,
// and strict priority-class domination.
type Config struct {
	// Policy is the queue scheduling discipline; zero = CVSCAN.
	Policy Policy
	// CvscanBias is V(R)'s reversal penalty in [0,1], used only by CVSCAN.
	CvscanBias float64
	// ReadAheadTracks enables the track read-ahead buffer: after each
	// successful read the drive holds the rest of the current track plus
	// ReadAheadTracks-1 following tracks, serving contained reads at zero
	// mechanical cost. 0 disables the buffer entirely.
	ReadAheadTracks int
	// AgePromoteMS bounds priority starvation: a queued request older than
	// this is promoted into the top priority class present. 0 = never
	// promote (lower classes wait for the queue above them to drain).
	AgePromoteMS float64
}

// New creates a disk with CVSCAN (V(R)) scheduling, bias ratio r in [0,1]:
// r = 0 degenerates to SSTF, r = 1 to SCAN. The paper uses CVSCAN [Geist87];
// we default experiments to r = 0.2.
func New(eng *sim.Engine, geom Geometry, r float64) *Disk {
	return NewWithConfig(eng, geom, Config{Policy: CVSCAN, CvscanBias: r})
}

// NewWithConfig creates a disk with the full scheduling configuration.
func NewWithConfig(eng *sim.Engine, geom Geometry, cfg Config) *Disk {
	if err := geom.Validate(); err != nil {
		panic(err)
	}
	if cfg.CvscanBias < 0 || cfg.CvscanBias > 1 {
		panic(fmt.Sprintf("disk: CVSCAN bias %v out of [0,1]", cfg.CvscanBias))
	}
	if cfg.ReadAheadTracks < 0 {
		panic(fmt.Sprintf("disk: read-ahead of %d tracks", cfg.ReadAheadTracks))
	}
	if cfg.AgePromoteMS < 0 {
		panic(fmt.Sprintf("disk: age promotion bound %v ms", cfg.AgePromoteMS))
	}
	d := &Disk{
		eng:      eng,
		geom:     geom,
		seek:     NewSeekCurve(geom),
		sched:    newSchedQueue(cfg.Policy, cfg.CvscanBias, geom.Cylinders, cfg.AgePromoteMS),
		raTracks: cfg.ReadAheadTracks,
		slot:     -1,
	}
	d.completeFn = d.complete
	return d
}

// Geometry returns the drive geometry.
func (d *Disk) Geometry() Geometry { return d.geom }

// SetSlot tags the drive with its array slot index, used to label
// telemetry segments with the disk track they occurred on. -1 (the
// default) marks a standalone drive.
func (d *Disk) SetSlot(slot int) { d.slot = slot }

// Stats returns a copy of the accumulated counters.
func (d *Disk) Stats() Stats { return d.stats }

// QueueLen returns the number of requests waiting (not counting one in
// service).
func (d *Disk) QueueLen() int { return d.sched.len() }

// Busy reports whether a request is currently in service.
func (d *Disk) Busy() bool { return d.busy }

// HeadCylinder returns the arm's current seek position.
func (d *Disk) HeadCylinder() int { return d.headCyl }

// SetFaultHook installs (or, with nil, removes) a fault hook consulted at
// each transfer's service time. timeoutMS is the stall a Timeout outcome
// costs before the request completes unserved; it must be positive when a
// hook is set.
func (d *Disk) SetFaultHook(hook FaultHook, timeoutMS float64) {
	if hook != nil && timeoutMS <= 0 {
		panic(fmt.Sprintf("disk: fault hook with timeout %v ms", timeoutMS))
	}
	d.hook = hook
	d.timeoutMS = timeoutMS
}

// Submit queues a transfer. The request fires OnDone when it completes.
// Reads wholly inside the read-ahead buffer complete immediately at zero
// mechanical cost; writes overlapping the buffer invalidate it.
func (d *Disk) Submit(r *Request) {
	if r.Count <= 0 {
		panic(fmt.Sprintf("disk: request with count %d", r.Count))
	}
	if r.Start < 0 || r.Start+int64(r.Count) > d.geom.TotalSectors() {
		panic(fmt.Sprintf("disk: request [%d,%d) outside disk of %d sectors",
			r.Start, r.Start+int64(r.Count), d.geom.TotalSectors()))
	}
	if d.raTracks > 0 {
		if r.Write {
			d.raInvalidate(r.Start, r.Count)
		} else if d.raCovers(r.Start, r.Count) {
			d.serveFromBuffer(r)
			return
		}
	}
	r.queuedAt = d.eng.Now()
	r.seq = d.seq
	d.seq++
	r.cyl = int(r.Start / d.geom.SectorsPerCylinder())
	d.sched.push(r)
	if n := d.sched.len(); n > d.stats.MaxQueueLen {
		d.stats.MaxQueueLen = n
	}
	if !d.busy {
		d.startNext()
	}
}

func (d *Disk) startNext() {
	r := d.sched.pop(d.eng.Now(), d.headCyl)
	if r == nil {
		return
	}
	d.busy = true
	start := d.eng.Now()
	d.stats.QueueMS += start - r.queuedAt

	st := OK
	if d.hook != nil {
		st = d.hook(r.Start, r.Count, r.Write)
	}
	if st == Timeout {
		// The transfer was swallowed by a transient fault: the drive is
		// occupied for the timeout window, no sectors move, the arm
		// stays where it was.
		finish := start + d.timeoutMS
		d.stats.BusyMS += d.timeoutMS
		d.stats.Timeouts++
		d.doneReq, d.doneStart, d.doneFinish = r, start, finish
		d.doneStatus, d.doneCyl, d.doneDist = Timeout, d.headCyl, 0
		d.doneBr = serviceBreakdown{}
		d.eng.At(finish, d.completeFn)
		return
	}

	startCyl := d.headCyl
	finish, endCyl, br := d.serviceTime(start, r.Start, r.Count)
	d.stats.SeekMS += br.seek
	d.stats.RotateMS += br.rotate
	d.stats.TransferMS += br.transfer
	d.stats.BusyMS += finish - start
	d.headCyl = endCyl
	tgt := d.geom.Locate(r.Start)
	dist := tgt.Cyl - startCyl
	if dist < 0 {
		dist = -dist
	}
	d.stats.SeekCyls += int64(dist)

	d.doneReq, d.doneStart, d.doneFinish = r, start, finish
	d.doneStatus, d.doneCyl, d.doneDist = st, tgt.Cyl, dist
	d.doneBr = br
	d.eng.At(finish, d.completeFn)
}

// complete delivers the completion of the request in service. It copies the
// pending state to locals first: startNext reuses the done* fields for the
// next transfer before OnDone runs.
func (d *Disk) complete() {
	r := d.doneReq
	start, finish, st := d.doneStart, d.doneFinish, d.doneStatus
	cyl, dist := d.doneCyl, d.doneDist
	br := d.doneBr
	d.doneReq = nil
	d.busy = false
	d.stats.Completed++
	if st != Timeout {
		d.stats.SectorsMoved += int64(r.Count)
		if st == MediaError {
			d.stats.MediaErrors++
		} else if !r.Write && d.raTracks > 0 {
			// A clean read leaves the track buffer primed behind it.
			d.raFill(r.Start, r.Count)
		}
	}
	if sp := r.Span; sp != nil {
		// Segment boundaries come from the aggregated breakdown: the
		// per-track interleaving of seek/rotate/transfer collapses into
		// one contiguous window per kind.
		if start > r.queuedAt {
			sp.Segment(telemetry.SegQueue, d.slot, r.queuedAt, start)
		}
		if st == Timeout {
			sp.Segment(telemetry.SegTimeout, d.slot, start, finish)
		} else {
			t := start
			if br.seek > 0 {
				sp.Segment(telemetry.SegSeek, d.slot, t, t+br.seek)
				t += br.seek
			}
			if br.rotate > 0 {
				sp.Segment(telemetry.SegRotate, d.slot, t, t+br.rotate)
				t += br.rotate
			}
			if finish > t {
				sp.Segment(telemetry.SegTransfer, d.slot, t, finish)
			}
		}
	}
	if d.observer != nil {
		d.observer(Event{
			QueuedAt: r.queuedAt, Start: start, Finish: finish,
			Cyl: cyl, SeekDist: dist,
			Sectors: r.Count, Write: r.Write, Priority: r.Priority,
			Status: st,
		})
	}
	// Start the next transfer before delivering the completion, so the
	// arm never idles waiting on upper-layer work.
	d.startNext()
	if r.OnDone != nil {
		r.OnDone(start, finish, st)
	}
}

type serviceBreakdown struct {
	seek, rotate, transfer float64
}

// serviceTime computes the completion time of a transfer beginning service
// at time now, along with the final head cylinder. The transfer is split
// into per-track runs; each run pays any needed head/cylinder switch, then
// a rotational delay to the run's first sector, then reads contiguously.
func (d *Disk) serviceTime(now float64, start int64, count int) (finish float64, endCyl int, br serviceBreakdown) {
	g := d.geom
	t := now
	curCyl := d.headCyl
	first := true

	lba := start
	remaining := count
	for remaining > 0 {
		chs := g.Locate(lba)
		// Length of the run on this track.
		run := g.SectorsPerTrack - chs.Sector
		if run > remaining {
			run = remaining
		}
		// Arm movement to the run's cylinder.
		if chs.Cyl != curCyl || first {
			st := d.seek.Time(chs.Cyl - curCyl)
			t += st
			br.seek += st
			curCyl = chs.Cyl
		}
		first = false
		// Rotational delay to the run's first physical sector.
		globalTrack := int64(chs.Cyl)*int64(g.TracksPerCyl) + int64(chs.Track)
		phys := g.PhysicalSector(globalTrack, chs.Sector)
		rot := d.rotationalDelay(t, phys)
		t += rot
		br.rotate += rot
		// Contiguous transfer of the run.
		xfer := float64(run) / float64(g.SectorsPerTrack) * g.RevolutionMS
		t += xfer
		br.transfer += xfer

		lba += int64(run)
		remaining -= run
	}
	return t, curCyl, br
}

// rotationalDelay returns the time until physical sector slot `phys` next
// arrives under the head, given the platter's continuous rotation.
func (d *Disk) rotationalDelay(t float64, phys int) float64 {
	g := d.geom
	spt := float64(g.SectorsPerTrack)
	// Angular position in sector slots at time t. Floor-based fractional
	// part instead of math.Mod: Mod's exact-remainder loop dominates this
	// function's cost, and sub-ulp angular error is far below the guard
	// threshold applied beneath.
	f := t / g.RevolutionMS
	pos := (f - math.Floor(f)) * spt
	target := float64(phys)
	delta := target - pos
	if delta < 0 {
		delta += spt
	}
	// Guard against floating-point jitter: when the head lands exactly on
	// the target sector, rounding can make delta a hair below a full
	// revolution, charging a spurious rotation slip.
	if spt-delta < 1e-6 {
		delta = 0
	}
	return delta / spt * g.RevolutionMS
}

// AvgRandomAccessMS returns the model's expected service time for one
// random transfer of `sectors` sectors: average seek + half rotation +
// transfer. For the IBM 0661 and 8-sector (4 KB) transfers this is about
// 21.8 ms, i.e. ~46 accesses/second, matching the paper.
func (d *Disk) AvgRandomAccessMS(sectors int) float64 {
	g := d.geom
	return g.AvgSeekMS + g.RevolutionMS/2 +
		float64(sectors)/float64(g.SectorsPerTrack)*g.RevolutionMS
}
