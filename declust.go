// Package declust is a library-level reproduction of "Parity Declustering
// for Continuous Operation in Redundant Disk Arrays" (Holland & Gibson,
// CMU-CS-92-130 / ASPLOS 1992).
//
// Parity declustering spreads parity stripes of G units over C > G disks
// using balanced incomplete (or complete) block designs, so that
// reconstructing a failed disk reads only a fraction α = (G−1)/(C−1) of
// each survivor. The package exposes:
//
//   - layout construction and inspection (NewMapping): block-design
//     selection, the declustered layout, left-symmetric RAID 5, and the
//     paper's §4.1 layout-goodness criteria;
//   - block design machinery (PaperDesign, SelectDesign): the six appendix
//     designs, plus generators for complete designs, cyclic difference
//     families, derived/residual/complement designs, Steiner triple
//     systems and projective/affine planes;
//   - disk-accurate simulation (RunFaultFree, RunDegraded,
//     RunReconstruction): an event-driven array simulator in the spirit of
//     raidSim, with IBM 0661 drives, CVSCAN scheduling, a Sprite-style
//     striping driver, and the four reconstruction algorithms of §8;
//   - the Muntz & Lui analytic reconstruction model (AnalyticModel) and an
//     MTTDL reliability model (Reliability).
//
// Quickstart:
//
//	m, err := declust.NewMapping(21, 5, 0) // 21 disks, G=5 (α=0.2)
//	fmt.Println(m.Describe())
//	res, err := declust.RunReconstruction(declust.SimConfig{
//		C: 21, G: 5, RatePerSec: 210, ReadFraction: 0.5, ReconProcs: 8,
//	})
//	fmt.Printf("reconstruction took %.1f minutes\n", res.ReconTimeMS/60000)
//
// The runnable programs under cmd/ and examples/ exercise this API, and
// internal/experiments regenerates every table and figure of the paper's
// evaluation (see EXPERIMENTS.md).
package declust

import (
	"declust/internal/analytic"
	"declust/internal/array"
	"declust/internal/blockdesign"
	"declust/internal/core"
	"declust/internal/disk"
	"declust/internal/drive"
	"declust/internal/layout"
	"declust/internal/metrics"
	"declust/internal/store"
	"declust/internal/telemetry"
)

// Mapping bundles a chosen parity layout with its provenance; see
// NewMapping.
type Mapping = core.Mapping

// SimConfig describes one simulation run; zero values select the paper's
// configuration (full-size IBM 0661 disks, 4 KB units, CVSCAN).
type SimConfig = core.SimConfig

// Metrics reports one simulation run's results.
type Metrics = core.Metrics

// ReconAlgorithm selects the §8 reconstruction algorithm.
type ReconAlgorithm = array.ReconAlgorithm

// The four reconstruction algorithms evaluated by the paper.
const (
	Baseline          = array.Baseline
	UserWrites        = array.UserWrites
	Redirect          = array.Redirect
	RedirectPiggyback = array.RedirectPiggyback
)

// Layout is a periodic mapping of parity stripes to disks.
type Layout = layout.Layout

// Loc addresses one stripe unit (disk, unit offset).
type Loc = layout.Loc

// Design is a balanced (complete or incomplete) block design.
type Design = blockdesign.Design

// Geometry describes a disk drive model.
type Geometry = drive.Geometry

// SchedPolicy selects a disk's queue scheduling discipline (see
// SimConfig.SchedPolicy); the zero value is the paper's CVSCAN.
type SchedPolicy = disk.Policy

// SchedCVSCAN is the paper's disk queue scheduling policy and the default;
// ParseSchedPolicy names the others.
const SchedCVSCAN = disk.CVSCAN

// ParseSchedPolicy parses a policy name ("cvscan", "fifo", "sstf",
// "cscan"; empty selects CVSCAN).
func ParseSchedPolicy(s string) (SchedPolicy, error) { return disk.ParsePolicy(s) }

// AnalyticModel is the Muntz & Lui reconstruction-time model (§8.3).
type AnalyticModel = analytic.Model

// Reliability is the MTTDL model derived from reconstruction time.
type Reliability = analytic.Reliability

// NewMapping selects a parity layout for an array of c disks with parity
// stripes of g units: left-symmetric RAID 5 when g = c, otherwise a
// declustered layout over the best available block design. maxTuples
// bounds the block design table (0 = default); when no feasible design
// exists at g, the closest feasible declustering ratio is substituted and
// Mapping.Exact reports false.
func NewMapping(c, g, maxTuples int) (*Mapping, error) {
	return core.NewMapping(c, g, maxTuples)
}

// RunFaultFree measures steady-state user response time with no failure
// (paper §6).
func RunFaultFree(cfg SimConfig) (Metrics, error) { return core.RunFaultFree(cfg) }

// RunDegraded measures user response time with one failed, unreplaced disk
// (paper §7).
func RunDegraded(cfg SimConfig) (Metrics, error) { return core.RunDegraded(cfg) }

// RunReconstruction fails a disk, reconstructs it onto a replacement under
// user load, and reports reconstruction time and user response time during
// recovery (paper §8).
func RunReconstruction(cfg SimConfig) (Metrics, error) { return core.RunReconstruction(cfg) }

// RunMode runs the simulation a mode name selects — "faultfree",
// "degraded" or "recon" — and rejects any other.
func RunMode(mode string, cfg SimConfig) (Metrics, error) { return core.RunMode(mode, cfg) }

// LifecycleConfig drives a long-horizon continuous-operation simulation:
// random disk failures, replacement, online reconstruction, repeat.
type LifecycleConfig = core.LifecycleConfig

// LifecycleReport summarizes availability and per-state response times.
type LifecycleReport = core.LifecycleReport

// RunLifecycle simulates continuous operation through repeated disk
// failures and repairs (the paper's title scenario).
func RunLifecycle(cfg LifecycleConfig) (LifecycleReport, error) { return core.RunLifecycle(cfg) }

// NewPQMapping selects a layout as NewMapping does, then adds a second,
// Reed–Solomon (Q) parity unit to every stripe: the RAID-6-style P+Q code
// that survives any two concurrent disk failures. Use with
// SimConfig.Parities = 2, or pass the Mapping's Layout to a Store for a
// double-fault-tolerant engine.
func NewPQMapping(c, g, maxTuples int) (*Mapping, error) {
	return core.NewPQMapping(c, g, maxTuples)
}

// MetricsRegistry collects named counters, gauges, log-bucketed latency
// histograms and per-disk time series from a simulation run; assign one
// to SimConfig.Metrics and export with WritePrometheus / WriteCSV. Same
// seed and config produce byte-identical exports.
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry returns an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// SpanTracer records request-lifecycle spans: one root span per user
// access with phase children (lock wait, pre-reads, commits, on-the-fly
// reconstruction) and per-disk service segments. Assign one to
// SimConfig.Spans; export with WriteJSONL (compact; cmd/tracestat turns it
// into a latency decomposition) or WriteChromeTrace (load in Perfetto /
// chrome://tracing).
type SpanTracer = telemetry.Tracer

// NewSpanTracer returns an enabled span tracer.
func NewSpanTracer() *SpanTracer { return telemetry.New() }

// SpanMeta labels a span export with its run's configuration.
type SpanMeta = telemetry.Meta

// LiveServer is the opt-in HTTP telemetry endpoint (/metrics, /progress,
// /debug/pprof) fed by snapshots from the simulation thread.
type LiveServer = telemetry.LiveServer

// NewLiveServer returns a live telemetry server; Start brings it up.
func NewLiveServer() *LiveServer { return telemetry.NewLiveServer() }

// LiveProgress is a run's periodic status: what SimConfig.OnLive delivers
// and the JSON document a LiveServer serves at /progress.
type LiveProgress = telemetry.Progress

// DataLoc resolves a logical data unit to its disk and unit offset under
// the paper's "by parity stripe index" data mapping.
func DataLoc(l Layout, n int64) Loc { return layout.DataLoc(l, n) }

// IBM0661 returns the paper's disk model (Table 5-1).
func IBM0661() Geometry { return drive.IBM0661() }

// PaperDesign returns one of the six block designs of the paper's appendix
// (21 disks; g ∈ {3, 4, 5, 6, 10, 18}).
func PaperDesign(g int) (*Design, error) { return blockdesign.PaperDesign(g) }

// SelectDesign finds the best available block design for C disks and
// parity stripe size G, per the paper's §4.3 procedure.
func SelectDesign(c, g, maxTuples int) (*Design, bool, error) {
	sel, err := blockdesign.Select(c, g, maxTuples)
	if err != nil {
		return nil, false, err
	}
	return sel.Design, sel.Exact, nil
}

// LifecycleReport fault fields and SimConfig fault fields (FaultSeed,
// LSERatePerGBHour, TransientRate, ScrubIntervalMS) drive the injector in
// internal/fault; see also cmd/raidsim's -lse-rate family of flags.

// Store is a real (non-simulated-time) declustered storage engine: the
// same parity layouts serving actual bytes to concurrent goroutines, with
// XOR parity maintained on the read-modify-write path, on-the-fly
// reconstruction for degraded reads, and a live Rebuild that restores a
// replacement disk stripe by stripe under client load. See OpenStore.
type Store = store.Store

// StoreConfig configures a Store's capacity, unit size, backends, and
// rebuild throttle; OpenStore fills its Layout from (c, g).
type StoreConfig = store.Config

// StoreDisk is one pluggable disk backend of a Store (in-memory via
// NewMemDisk, one file per disk via OpenFileDisk, or any user
// implementation).
type StoreDisk = store.Disk

// OpenStore builds a storage engine over an array of c disks with parity
// stripes of g units, selecting the layout exactly as NewMapping does.
// With cfg.Disks nil the store is in-memory; supply OpenFileDisks
// backends for a file-backed array.
func OpenStore(c, g int, cfg StoreConfig) (*Store, error) {
	if cfg.Layout == nil {
		m, err := core.NewMapping(c, g, 0)
		if err != nil {
			return nil, err
		}
		cfg.Layout = m.Layout
	}
	return store.New(cfg)
}

// OpenPQStore builds a storage engine like OpenStore but over the P+Q
// dual-parity code (see NewPQMapping): every stripe carries an XOR parity
// and a GF(2^8) Reed–Solomon parity, the engine's RMW path maintains
// both, and any two concurrent disk failures — Fail called twice — stay
// fully readable and rebuildable.
func OpenPQStore(c, g int, cfg StoreConfig) (*Store, error) {
	if cfg.Layout == nil {
		m, err := core.NewPQMapping(c, g, 0)
		if err != nil {
			return nil, err
		}
		cfg.Layout = m.Layout
	}
	return store.New(cfg)
}

// NewMemDisk returns an in-memory store backend of the given size.
func NewMemDisk(units int64, unitSize int) StoreDisk { return store.NewMemDisk(units, unitSize) }

// OpenFileDisk opens (creating if necessary) a file-backed store backend.
func OpenFileDisk(path string, units int64, unitSize int) (StoreDisk, error) {
	return store.OpenFileDisk(path, units, unitSize)
}

// OpenFileDisks opens c file-backed store backends under dir.
func OpenFileDisks(dir string, c int, units int64, unitSize int) ([]StoreDisk, error) {
	return store.OpenFileDisks(dir, c, units, unitSize)
}

// StoreFaultConfig parameterizes a fault-injecting store backend: seeded
// per-operation probabilities for transient errors, torn writes, latent
// sector errors and read corruption.
type StoreFaultConfig = store.FaultConfig

// StoreFaultDisk wraps any store backend with seed-driven fault
// injection; the engine's checksums, retries, self-healing reads, and
// scrubber are expected to absorb everything it throws.
type StoreFaultDisk = store.FaultDisk

// NewFaultDisk wraps backend d with fault injection per cfg.
func NewFaultDisk(d StoreDisk, cfg StoreFaultConfig) *StoreFaultDisk {
	return store.NewFaultDisk(d, cfg)
}

// StoreIntentLog persists the store's dirty-region write-intent bitmap,
// making parity crash-consistent; see OpenFileIntent.
type StoreIntentLog = store.IntentLog

// OpenFileIntent returns a crash-safe file-backed intent log for
// StoreConfig.Intent. A store reopened over a log with dirty regions
// resynchronizes their stripes before serving.
func OpenFileIntent(path string) StoreIntentLog { return store.OpenFileIntent(path) }
