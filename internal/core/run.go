package core

import (
	"fmt"
	"strconv"

	"declust/internal/array"
	"declust/internal/disk"
	"declust/internal/drive"
	"declust/internal/fault"
	"declust/internal/layout"
	"declust/internal/metrics"
	"declust/internal/sim"
	"declust/internal/stats"
	"declust/internal/telemetry"
	"declust/internal/trace"
	"declust/internal/workload"
)

// SimConfig describes one simulation run on the paper's drive, the IBM
// 0661. The zero values of optional fields select the paper's
// configuration (4 KB units, one reconstruction process).
type SimConfig struct {
	C, G int

	// Scale, when above zero, divides the drive's cylinder count (10 runs
	// 1/10-size disks) to shorten reconstruction sweeps; response-time
	// behaviour per access is unchanged and reconstruction time scales
	// linearly.
	Scale       int
	UnitSectors int // stripe unit size in sectors; 0 = 8 (4 KB)

	// SchedPolicy selects the per-disk queue scheduler; the zero value is
	// disk.CVSCAN, the original behaviour.
	SchedPolicy disk.Policy
	// ReadAheadTracks gives every disk a track read-ahead buffer of that
	// many tracks; 0 (the default) disables buffering.
	ReadAheadTracks int
	// PrioAgeMS bounds how long a reconstruction or scrub request can be
	// starved by higher-class user work: once queued that long it competes
	// in the top class. 0 keeps strict class domination.
	PrioAgeMS float64

	RatePerSec   float64 // user accesses per second
	ReadFraction float64 // fraction of user accesses that are reads
	AccessUnits  int     // access size in stripe units; 0 = 1 (4 KB)
	// HotDataFraction/HotAccessFraction skew the address distribution
	// (e.g. 0.2/0.8); zero means uniform as in the paper.
	HotDataFraction   float64
	HotAccessFraction float64
	// SequentialFraction makes that fraction of user accesses continue at
	// the address after the previous access (see workload.Config); 0 keeps
	// the paper's pure random stream.
	SequentialFraction float64
	Seed               int64

	// ParallelDataMap replaces the paper's stripe-index data mapping
	// with the round-robin mapping that satisfies maximal parallelism
	// (§4.2's future-work alternative).
	ParallelDataMap bool

	// DistributedSparing reserves a spare unit per parity stripe
	// (layout over a G+1 design) and reconstructs into spares on the
	// survivors instead of onto a replacement disk.
	DistributedSparing bool

	// Parities selects the redundancy code: 0 or 1 is the paper's single
	// parity (P), 2 adds a GF(2^8) Reed–Solomon unit per stripe (the
	// RAID-6-style P+Q code) so the array tolerates any two disk
	// failures, at the cost of a six-access read-modify-write and one
	// fewer data unit per stripe. Incompatible with DistributedSparing.
	Parities int

	Algorithm  array.ReconAlgorithm
	ReconProcs int // 0 = 1

	// Extensions (paper §9 future work).
	ReconLowPriority          bool
	ReconThrottleCyclesPerSec float64

	// Fault injection. All zero values disable every fault process and
	// leave the run byte-identical — same event order, same exports — to
	// one without fault support at all.
	//
	// FaultSeed drives the injector's random draws, independently of the
	// workload Seed so enabling faults never perturbs arrivals.
	FaultSeed int64
	// LSERatePerGBHour injects latent sector errors per GB of disk
	// capacity per simulated hour (accelerated values make minutes-long
	// runs see errors; real drives sit around 1e-5 to 1e-4).
	LSERatePerGBHour float64
	// TransientRate is the per-request timeout probability in [0, 0.9];
	// timed-out requests are retried with capped exponential backoff.
	TransientRate float64
	// FaultTimeoutMS is the stall one transient timeout costs; 0 = 50 ms.
	FaultTimeoutMS float64
	// ScrubIntervalMS, when positive, runs the background scrubber at one
	// parity stripe per interval (lowest disk priority).
	ScrubIntervalMS float64

	// WarmupMS settles queues before measurement begins; MeasureMS is
	// the measurement window for fault-free and degraded runs.
	WarmupMS  float64
	MeasureMS float64

	// Source overrides the synthetic workload with a custom access
	// stream (e.g. a trace.Replayer). RatePerSec etc. are ignored when
	// set.
	Source workload.Source
	// CaptureTrace, when non-nil, records every measured user access
	// (arrival, completion, op) into the log for later replay.
	CaptureTrace *trace.Log

	// Observability. All fields are optional; with the zero values the
	// simulation pays nothing for instrumentation.
	//
	// Metrics, when non-nil, collects counters, latency histograms and
	// final per-disk/engine gauges; export with WritePrometheus and
	// WriteCSV. Everything is keyed on simulated time, so exports are
	// byte-identical across runs of the same seed and configuration.
	Metrics *metrics.Registry
	// SampleEveryMS, with Metrics set, samples per-disk time series
	// (utilization, queue depth, mean seek distance) on this sim-time
	// cadence; 0 disables sampling.
	SampleEveryMS float64
	// Spans, when non-nil, records request-lifecycle spans: a root span
	// per user access with phase children from the array and per-disk
	// service segments from the drives. Export with WriteJSONL or
	// WriteChromeTrace, or feed Attribute for a latency breakdown.
	Spans *telemetry.Tracer
	// OnLive, when non-nil, is called every liveEveryMS of simulated time
	// with the run's status — response so far, per-disk activity, sweep
	// progress with an ETA, the engine's event count — for as long as
	// arrivals run or a sweep does, and once more when both are over. It is the one periodic report: progress lines and the live
	// telemetry server both consume it. Slices are freshly allocated per
	// call, so a receiver may hand them to another goroutine. The callback
	// reads state only; enabling it changes nothing but the event count.
	OnLive func(telemetry.Progress)
}

// liveEveryMS is the simulated time between two OnLive reports.
const liveEveryMS = 1000

func (c SimConfig) withDefaults() SimConfig {
	if c.UnitSectors == 0 {
		c.UnitSectors = 8
	}
	if c.ReconProcs == 0 {
		c.ReconProcs = 1
	}
	if c.WarmupMS == 0 {
		c.WarmupMS = 10_000
	}
	if c.MeasureMS == 0 {
		c.MeasureMS = 60_000
	}
	return c
}

// faultsEnabled reports whether the configuration needs a fault injector.
func (c SimConfig) faultsEnabled() bool {
	return c.LSERatePerGBHour > 0 || c.TransientRate > 0
}

// Metrics reports one run's results. Response-time fields are in
// milliseconds over user accesses arriving inside the measurement window.
type Metrics struct {
	MeanResponseMS float64
	StdResponseMS  float64
	P90ResponseMS  float64
	Requests       int

	// Disk-level scheduling and caching aggregates, summed over the
	// drives at end of run (both zero with read-ahead off).
	CacheHits       int64
	CacheHitSectors int64

	// Reconstruction-specific (zero for fault-free/degraded runs): the
	// cycle's read and write phases over the whole sweep, and over its
	// last 300 cycles as the paper's Table 8-1 reports them.
	ReconTimeMS      float64
	ReconCycles      int64
	ReadPhaseMeanMS  float64
	ReadPhaseStdMS   float64
	WritePhaseMeanMS float64
	WritePhaseStdMS  float64
	ReadTailMeanMS   float64
	ReadTailStdMS    float64
	WriteTailMeanMS  float64
	WriteTailStdMS   float64

	// Alpha is the achieved declustering ratio of the layout used.
	Alpha float64

	// Fault and scrub activity (all zero when fault injection is off).
	LSEArrivals      int64 // latent sector errors injected
	TransientRetries int64 // timeouts absorbed by backoff-and-retry
	MediaErrors      int64 // transfers that surfaced a latent error
	LatentRepairs    int64 // units rebuilt from parity after a media error
	LostUnits        int64 // units beyond redundancy's reach (real loss)
	DataLossEvents   int   // per-stripe loss events recorded
	ScrubPasses      int64 // full scrub sweeps completed
	ScrubErrorsFound int64 // media errors the scrubber surfaced

	// SimEndMS is the simulated clock when the run finished draining;
	// EngineEvents is the total number of engine events fired. Both are
	// deterministic for a given seed and configuration.
	SimEndMS     float64
	EngineEvents uint64
}

// runner wires an array to a workload generator and collects response
// times for requests arriving within [from, to) (to <= 0 means no upper
// bound yet).
type runner struct {
	eng     *sim.Engine
	arr     *array.Array
	gen     workload.Source
	resp    stats.Sample
	capture *trace.Log
	// classify, when set, receives every measured (start, end) pair;
	// the lifecycle runner uses it to split responses by array state.
	classify func(start, end float64)
	from     float64
	to       float64
	stopped  bool

	// Fault processes (nil/zero when disabled).
	faults  *fault.Injector
	scrubMS float64

	// raOn gates the cache-hit series and gauges so runs without
	// read-ahead export byte-identical metrics to builds predating it.
	raOn bool

	// Instrumentation (nil-safe no-ops when disabled).
	reg       *metrics.Registry
	respHist  *metrics.Histogram
	readHist  *metrics.Histogram
	writeHist *metrics.Histogram
	mRequests *metrics.Counter
	sampleMS  float64
	spans     *telemetry.Tracer
	onLive    func(telemetry.Progress)

	// Arrival fast path: arriveFn is bound once; nextOp carries the one
	// arrival scheduled but not yet fired (pump schedules the next arrival
	// only from inside the previous one, so a single slot suffices).
	// pendFree pools per-request completion records.
	arriveFn func()
	nextOp   workload.Op
	pendFree []*pendingReq
}

// pendingReq tracks one user request from arrival to completion. Nodes are
// pooled on the runner with their callbacks pre-bound, so steady-state
// requests allocate nothing.
type pendingReq struct {
	r        *runner
	start    float64
	op       workload.Op
	span     *telemetry.Span // root span; nil when tracing is off
	dst      []uint64        // where a read's values land; the run does not look at them
	recordFn func()
}

func (r *runner) getPend() *pendingReq {
	if n := len(r.pendFree); n > 0 {
		p := r.pendFree[n-1]
		r.pendFree = r.pendFree[:n-1]
		return p
	}
	p := &pendingReq{r: r}
	p.recordFn = p.record
	return p
}

// record runs at request completion: copy the node's state to locals and
// recycle it, then score the response if the arrival fell inside the
// measurement window.
func (p *pendingReq) record() {
	r := p.r
	start, op, span := p.start, p.op, p.span
	p.span = nil
	r.pendFree = append(r.pendFree, p)
	if start >= r.from && (r.to < 0 || start < r.to) {
		span.SetMeasured()
		lat := r.eng.Now() - start
		r.resp.Add(lat)
		r.mRequests.Inc()
		r.respHist.Observe(lat)
		if op.Read {
			r.readHist.Observe(lat)
		} else {
			r.writeHist.Observe(lat)
		}
		if r.capture != nil {
			r.capture.Add(trace.Record{ArriveMS: start, DoneMS: r.eng.Now(), Op: op})
		}
		if r.classify != nil {
			r.classify(start, r.eng.Now())
		}
	}
	span.End(r.eng.Now())
}

func newRunner(cfg SimConfig) (*runner, error) {
	var m *Mapping
	var err error
	switch {
	case cfg.Parities < 0 || cfg.Parities > 2:
		return nil, fmt.Errorf("core: %d parities per stripe; 1 (P) or 2 (P+Q) supported", cfg.Parities)
	case cfg.Parities == 2 && cfg.DistributedSparing:
		return nil, fmt.Errorf("core: distributed sparing is single-parity only")
	case cfg.DistributedSparing:
		m, err = NewSparedMapping(cfg.C, cfg.G, 0)
	case cfg.Parities == 2:
		m, err = NewPQMapping(cfg.C, cfg.G, 0)
	default:
		m, err = NewMapping(cfg.C, cfg.G, 0)
	}
	if err != nil {
		return nil, err
	}
	geom := drive.IBM0661()
	if cfg.Scale > 0 {
		geom = geom.Scaled(cfg.Scale)
	}
	eng := sim.New()
	var mapper layout.DataMapper
	if cfg.ParallelDataMap {
		mapper = layout.NewParallelMapper(m.Layout)
	}
	var inj *fault.Injector
	if cfg.faultsEnabled() {
		inj, err = fault.New(eng, geom, m.Layout.Disks(), fault.Config{
			Seed:             cfg.FaultSeed,
			LSERatePerGBHour: cfg.LSERatePerGBHour,
			TransientRate:    cfg.TransientRate,
			TimeoutMS:        cfg.FaultTimeoutMS,
		})
		if err != nil {
			return nil, err
		}
	}
	arr, err := array.New(eng, array.Config{
		Layout:                    m.Layout,
		Geom:                      geom,
		UnitSectors:               cfg.UnitSectors,
		SchedPolicy:               cfg.SchedPolicy,
		ReadAheadTracks:           cfg.ReadAheadTracks,
		PrioAgeMS:                 cfg.PrioAgeMS,
		Algorithm:                 cfg.Algorithm,
		ReconProcs:                cfg.ReconProcs,
		ReconLowPriority:          cfg.ReconLowPriority,
		ReconThrottleCyclesPerSec: cfg.ReconThrottleCyclesPerSec,
		DataMapper:                mapper,
		DistributedSparing:        cfg.DistributedSparing,
		Faults:                    inj,
		Metrics:                   cfg.Metrics,
		Spans:                     cfg.Spans,
	})
	if err != nil {
		return nil, err
	}
	// A replayed trace is checked against the array before the run: an
	// access past its data space is an error naming the record, not a
	// panic in the middle of the simulation.
	if rep, ok := cfg.Source.(*trace.Replayer); ok {
		if err := rep.Fits(arr.DataUnits()); err != nil {
			return nil, err
		}
	}
	var src workload.Source = cfg.Source
	if src == nil {
		src, err = workload.New(workload.Config{
			RatePerSec:         cfg.RatePerSec,
			ReadFraction:       cfg.ReadFraction,
			DataUnits:          arr.DataUnits(),
			AccessUnits:        cfg.AccessUnits,
			HotDataFraction:    cfg.HotDataFraction,
			HotAccessFraction:  cfg.HotAccessFraction,
			SequentialFraction: cfg.SequentialFraction,
			Seed:               cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
	}
	r := &runner{
		eng: eng, arr: arr, gen: src, capture: cfg.CaptureTrace, to: -1,
		faults: inj, scrubMS: cfg.ScrubIntervalMS, raOn: cfg.ReadAheadTracks > 0,
		reg: cfg.Metrics, sampleMS: cfg.SampleEveryMS,
		spans: cfg.Spans, onLive: cfg.OnLive,
	}
	if r.reg != nil {
		r.respHist = r.reg.Histogram("user_response_ms")
		r.readHist = r.reg.Histogram(`user_response_ms_by_op{op="read"}`)
		r.writeHist = r.reg.Histogram(`user_response_ms_by_op{op="write"}`)
		r.mRequests = r.reg.Counter("user_requests")
	}
	return r, nil
}

// startFaults activates the configured fault processes: the injector's
// LSE arrivals and the background scrubber. No-op when faults are off.
func (r *runner) startFaults() {
	if r.faults != nil {
		r.faults.Start()
	}
	if r.scrubMS > 0 {
		if err := r.arr.StartScrub(r.scrubMS); err != nil {
			panic(err) // unreachable: spacing checked positive
		}
	}
}

// stopFaults cancels the self-rescheduling fault processes so the engine
// can drain. Work already in flight (a scrub scan, a repair) finishes
// during the drain.
func (r *runner) stopFaults() {
	if r.faults != nil {
		r.faults.Stop()
	}
	r.arr.StopScrub()
}

// every calls fn each ms of simulated time for as long as it returns true.
// Both periodic reporters are built on it; they read state only, so neither
// changes a result (only the engine's event count and, by at most one
// period, the clock the drain stops at).
func (r *runner) every(ms float64, fn func() bool) {
	var tick func()
	tick = func() {
		if fn() {
			r.eng.Schedule(ms, tick)
		}
	}
	r.eng.Schedule(ms, tick)
}

// diskActivity returns what slot i's drive did since the reading kept in
// prev, and advances prev. A drive replaced in between restarted its
// counters from zero: all it has done is the interval's work.
func (r *runner) diskActivity(i int, prev []disk.Stats) disk.Stats {
	st := r.arr.Disk(i).Stats()
	d := st
	if st.BusyMS >= prev[i].BusyMS && st.Completed >= prev[i].Completed {
		d.BusyMS -= prev[i].BusyMS
		d.SeekCyls -= prev[i].SeekCyls
		d.Completed -= prev[i].Completed
		d.CacheHits -= prev[i].CacheHits
	}
	prev[i] = st
	return d
}

// startSampling begins the per-disk time-series sampler: every sampleMS
// of simulated time, until arrivals stop, it appends utilization (busy
// fraction of the interval), instantaneous queue depth, and mean seek
// distance per completed request to the registry's series.
func (r *runner) startSampling() {
	if r.reg == nil || r.sampleMS <= 0 {
		return
	}
	n := r.arr.Layout().Disks()
	series := func(name string) []*metrics.Series {
		out := make([]*metrics.Series, n)
		for i := range out {
			out[i] = r.reg.Series(name + `{disk="` + strconv.Itoa(i) + `"}`)
		}
		return out
	}
	util, depth, seek := series("disk_util"), series("disk_queue_depth"), series("disk_seek_cyls_avg")
	var hits []*metrics.Series
	if r.raOn {
		// Registered only with read-ahead enabled so default exports stay
		// byte-identical to builds without the cache.
		hits = series("disk_cache_hit_rate")
	}
	prev := make([]disk.Stats, n)
	r.every(r.sampleMS, func() bool {
		if r.stopped {
			return false
		}
		now := r.eng.Now()
		for i := range prev {
			d := r.diskActivity(i, prev)
			perReq := func(x int64) float64 {
				if d.Completed == 0 {
					return 0
				}
				return float64(x) / float64(d.Completed)
			}
			util[i].Observe(now, d.BusyMS/r.sampleMS)
			depth[i].Observe(now, float64(r.arr.Disk(i).QueueLen()))
			seek[i].Observe(now, perReq(d.SeekCyls))
			if hits != nil {
				hits[i].Observe(now, perReq(d.CacheHits))
			}
		}
		return true
	})
}

// startLive begins the status clock behind SimConfig.OnLive: a report every
// liveEveryMS of simulated time while arrivals run or a sweep does, and a last
// one from the drain when both are over.
func (r *runner) startLive() {
	if r.onLive == nil {
		return
	}
	n := r.arr.Layout().Disks()
	prev := make([]disk.Stats, n)
	r.every(liveEveryMS, func() bool {
		p := telemetry.Progress{
			SimMS:          r.eng.Now(),
			Requests:       r.resp.N(),
			MeanResponseMS: r.resp.Mean(),
			DiskUtil:       make([]float64, n),
			DiskQueue:      make([]int, n),
			EngineEvents:   r.eng.Fired(),
		}
		for i := range prev {
			p.DiskUtil[i] = r.diskActivity(i, prev).BusyMS / liveEveryMS
			p.DiskQueue[i] = r.arr.Disk(i).QueueLen()
		}
		p.ReconDone, p.ReconTotal = r.arr.ReconProgress()
		if elapsed := r.eng.Now() - r.arr.ReconStartMS(); p.ReconDone > 0 && elapsed > 0 {
			p.ReconETAMS = elapsed / float64(p.ReconDone) * float64(p.ReconTotal-p.ReconDone)
		}
		r.onLive(p)
		return !r.stopped || r.arr.Reconstructing()
	})
}

// exportFinal freezes end-of-run aggregates into the registry: per-disk
// lifetime gauges, engine totals, and — after a reconstruction — sweep
// totals and the per-survivor read load.
func (r *runner) exportFinal() {
	if r.reg == nil {
		return
	}
	now := r.eng.Now()
	r.reg.Gauge("sim_end_ms").Set(now)
	r.reg.Counter("engine_events_fired").Add(int64(r.eng.Fired()))
	r.reg.Counter("engine_events_scheduled").Add(int64(r.eng.Scheduled()))
	for i := 0; i < r.arr.Layout().Disks(); i++ {
		st := r.arr.Disk(i).Stats()
		lbl := fmt.Sprintf(`{disk="%d"}`, i)
		u := 0.0
		if now > 0 {
			u = st.BusyMS / now
		}
		r.reg.Gauge("disk_util" + lbl).Set(u)
		r.reg.Gauge("disk_busy_ms" + lbl).Set(st.BusyMS)
		r.reg.Gauge("disk_seek_ms" + lbl).Set(st.SeekMS)
		r.reg.Gauge("disk_queue_ms" + lbl).Set(st.QueueMS)
		r.reg.Gauge("disk_max_queue" + lbl).Set(float64(st.MaxQueueLen))
		r.reg.Counter("disk_requests" + lbl).Add(st.Completed)
		r.reg.Counter("disk_sectors" + lbl).Add(st.SectorsMoved)
		r.reg.Counter("disk_seek_cyls" + lbl).Add(st.SeekCyls)
		if r.raOn {
			r.reg.Counter("disk_cache_hits" + lbl).Add(st.CacheHits)
			r.reg.Counter("disk_cache_hit_sectors" + lbl).Add(st.CacheHitSectors)
		}
	}
	// Fault gauges only exist when fault processes ran, so fault-free
	// exports stay byte-identical to builds without fault support.
	if r.faults != nil || r.scrubMS > 0 {
		fs := r.arr.FaultStats()
		r.reg.Gauge("fault_media_errors").Set(float64(fs.MediaErrors))
		r.reg.Gauge("fault_lost_units").Set(float64(fs.LostUnits))
		r.reg.Gauge("fault_data_loss_events").Set(float64(len(r.arr.DataLosses())))
		if r.faults != nil {
			st := r.faults.Stats()
			r.reg.Gauge("fault_lse_arrivals").Set(float64(st.LSEArrivals))
			r.reg.Gauge("fault_bad_sectors").Set(float64(st.BadSectors))
			r.reg.Gauge("fault_healed_sectors").Set(float64(st.Healed))
		}
		if r.scrubMS > 0 {
			ss := r.arr.ScrubStats()
			r.reg.Gauge("scrub_passes").Set(float64(ss.Passes))
			r.reg.Gauge("scrub_units_scanned").Set(float64(ss.UnitsScanned))
			r.reg.Gauge("scrub_errors_found").Set(float64(ss.ErrorsFound))
		}
	}
	if _, total := r.arr.ReconProgress(); total > 0 {
		done, _ := r.arr.ReconProgress()
		r.reg.Gauge("recon_time_ms").Set(r.arr.ReconTimeMS())
		r.reg.Gauge("recon_done_units").Set(float64(done))
		r.reg.Gauge("recon_total_units").Set(float64(total))
		for i, nread := range r.arr.ReconReadLoad() {
			r.reg.Counter(fmt.Sprintf(`recon_survivor_reads{disk="%d"}`, i)).Add(nread)
		}
	}
}

// pump issues the next arrival and reschedules itself until stopped.
func (r *runner) pump() {
	if r.stopped {
		return
	}
	delay, op := r.gen.Next()
	if r.arriveFn == nil {
		r.arriveFn = r.arrive
	}
	r.nextOp = op
	r.eng.Schedule(delay, r.arriveFn)
}

// arrive fires one user arrival: issue the access with a pooled completion
// record, then schedule the next arrival.
func (r *runner) arrive() {
	if r.stopped {
		return
	}
	op := r.nextOp
	p := r.getPend()
	p.start = r.eng.Now()
	p.op = op
	if r.spans != nil {
		name, kind := "write", telemetry.KindWrite
		if op.Read {
			name, kind = "read", telemetry.KindRead
		}
		if op.Count > 1 {
			name += "-range"
		}
		p.span = r.spans.Root(name, kind, op.Unit, p.start)
		r.arr.SetOpSpan(p.span)
	}
	if op.Read {
		if cap(p.dst) < op.Count {
			p.dst = make([]uint64, op.Count)
		}
		r.arr.ReadRange(op.Unit, p.dst[:op.Count], p.recordFn)
	} else {
		r.arr.WriteRange(op.Unit, op.Count, p.recordFn)
	}
	r.pump()
}

func (r *runner) metrics() Metrics {
	fs := r.arr.FaultStats()
	ss := r.arr.ScrubStats()
	m := Metrics{
		MeanResponseMS:   r.resp.Mean(),
		StdResponseMS:    r.resp.Std(),
		P90ResponseMS:    r.resp.Percentile(90),
		Requests:         r.resp.N(),
		Alpha:            r.arr.Layout().Alpha(),
		SimEndMS:         r.eng.Now(),
		EngineEvents:     r.eng.Fired(),
		TransientRetries: fs.Retries,
		MediaErrors:      fs.MediaErrors,
		LatentRepairs:    fs.LatentRepairs,
		LostUnits:        fs.LostUnits,
		DataLossEvents:   len(r.arr.DataLosses()),
		ScrubPasses:      ss.Passes,
		ScrubErrorsFound: ss.ErrorsFound,
	}
	if r.faults != nil {
		m.LSEArrivals = r.faults.Stats().LSEArrivals
	}
	for i := 0; i < r.arr.Layout().Disks(); i++ {
		st := r.arr.Disk(i).Stats()
		m.CacheHits += st.CacheHits
		m.CacheHitSectors += st.CacheHitSectors
	}
	return m
}

// RunFaultFree measures steady-state user response time with no failure
// (paper §6).
func RunFaultFree(cfg SimConfig) (Metrics, error) { return run(cfg, false, false) }

// RunDegraded measures steady-state user response time with one disk
// failed and no replacement installed (paper §7). The failed disk is 0;
// layouts balance load so the choice is immaterial.
func RunDegraded(cfg SimConfig) (Metrics, error) { return run(cfg, true, false) }

// RunReconstruction fails disk 0, installs a replacement, reconstructs it
// under user load, and reports both reconstruction time and the response
// time of user accesses arriving during reconstruction (paper §8). The
// warmup runs in degraded mode so queues reflect the failed state when the
// sweep begins.
func RunReconstruction(cfg SimConfig) (Metrics, error) { return run(cfg, true, true) }

// RunMode runs the simulation a mode name selects: "faultfree", "degraded"
// or "recon". A function and not a table of the three: a package-level
// value naming them would link the whole simulator into every program that
// imports this package for NewMapping alone.
func RunMode(mode string, cfg SimConfig) (Metrics, error) {
	switch mode {
	case "faultfree":
		return RunFaultFree(cfg)
	case "degraded":
		return RunDegraded(cfg)
	case "recon":
		return RunReconstruction(cfg)
	}
	return Metrics{}, fmt.Errorf("unknown mode %q", mode)
}

// run is the one simulation script: build the array (fail disk 0, recon
// also installs its replacement), warm up, measure, drain, check, export.
// The measurement window is MeasureMS long, or with recon lasts from the
// end of warm-up until the sweep started there has rebuilt the disk.
func run(cfg SimConfig, fail, recon bool) (Metrics, error) {
	cfg = cfg.withDefaults()
	r, err := newRunner(cfg)
	if err != nil {
		return Metrics{}, err
	}
	if fail {
		if err := r.arr.Fail(0); err != nil {
			return Metrics{}, err
		}
	}
	if recon && !cfg.DistributedSparing {
		if err := r.arr.Replace(); err != nil {
			return Metrics{}, err
		}
	}
	r.from = cfg.WarmupMS
	r.startSampling()
	r.startLive()
	r.startFaults()
	r.pump()
	if recon {
		r.eng.RunUntil(cfg.WarmupMS)
		if err := r.arr.Reconstruct(r.stop); err != nil {
			return Metrics{}, err
		}
	} else {
		r.to = cfg.WarmupMS + cfg.MeasureMS
		r.eng.RunUntil(r.to)
		r.stop()
	}
	r.eng.Run() // drain in-flight operations so their responses count
	if recon && r.arr.Degraded() && !r.arr.Spared() {
		return Metrics{}, fmt.Errorf("core: reconstruction did not complete")
	}
	if err := r.arr.CheckConsistency(); err != nil {
		return Metrics{}, fmt.Errorf("core: post-run consistency check: %w", err)
	}
	r.exportFinal()
	m := r.metrics()
	if recon {
		const tail = 300 // cycles, Table 8-1's
		rp, wp := r.arr.ReadPhase(), r.arr.WritePhase()
		rt, wt := rp.Tail(tail), wp.Tail(tail)
		m.ReconTimeMS = r.arr.ReconTimeMS()
		m.ReconCycles = r.arr.ReconCycles()
		m.ReadPhaseMeanMS, m.ReadPhaseStdMS = rp.Mean(), rp.Std()
		m.WritePhaseMeanMS, m.WritePhaseStdMS = wp.Mean(), wp.Std()
		m.ReadTailMeanMS, m.ReadTailStdMS = rt.Mean(), rt.Std()
		m.WriteTailMeanMS, m.WriteTailStdMS = wt.Mean(), wt.Std()
	}
	return m, nil
}

// stop closes the measurement window at the present: no further arrivals,
// and the self-rescheduling fault processes cancelled so the engine drains.
func (r *runner) stop() {
	r.to = r.eng.Now()
	r.stopped = true
	r.stopFaults()
}
