// Command store smoke-drives the real-data declustered storage engine
// through its whole lifecycle: fill, concurrent fault-free load, a live
// disk failure, degraded load, a rebuild racing that load, and a full
// verification that every byte read back equals the last byte written.
//
//	go run ./cmd/store -c 21 -g 5 -clients 16 -secs 2
//	go run ./cmd/store -backend file -dir /tmp/declust -units 512
//	go run ./cmd/store -faults -scrub -chaos-seed 7
//	go run ./cmd/store -parities 2 -fail 2 -fail2 5
//
// With -parities 2 the engine runs the P+Q dual-parity code and the
// lifecycle loses a SECOND disk (-fail2) after the degraded phase: a
// doubly-degraded load window with the code saturated, then both
// rebuilds in failure order, each racing its own load phase and timed
// separately in the lifecycle summary.
//
// With -faults the backends inject transient errors, torn writes, read
// corruption, and latent sector errors (on the doomed disk), and the run
// additionally scrubs the array before failing the disk and before the
// final check — the engine's retries, checksums, and self-healing reads
// must absorb everything. File-backed runs keep a crash-consistency
// intent log next to the disks and Sync at durability points.
//
// Each phase prints its throughput; the final line is the verification
// verdict. Exit status is nonzero on any corruption or engine error.
package main

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"declust"
)

type config struct {
	c, g          int
	units         int64
	unitSize      int
	backend       string
	dir           string
	clients       int
	phaseSecs     float64
	readFrac      float64
	throttle      time.Duration
	parities      int
	failDisk      int
	fail2         int
	faults        bool
	transient     float64
	torn          float64
	lse           float64
	corrupt       float64
	chaosSeed     int64
	scrub         bool
	scrubThrottle time.Duration
	retries       int
	failThreshold int
	ioWorkers     int
	rebuildWork   int
}

func main() {
	var cfg config
	flag.IntVar(&cfg.c, "c", 21, "disks in the array")
	flag.IntVar(&cfg.g, "g", 5, "units per parity stripe")
	flag.Int64Var(&cfg.units, "units", 210, "raw units per disk")
	flag.IntVar(&cfg.unitSize, "unitsize", 4096, "unit size in bytes (multiple of 8)")
	flag.StringVar(&cfg.backend, "backend", "mem", "disk backend: mem or file")
	flag.StringVar(&cfg.dir, "dir", "", "directory for file-backed disks (default: a temp dir)")
	flag.IntVar(&cfg.clients, "clients", 8, "concurrent client goroutines")
	flag.Float64Var(&cfg.phaseSecs, "secs", 1, "seconds of load per phase")
	flag.Float64Var(&cfg.readFrac, "read", 0.5, "read fraction of the client mix")
	flag.DurationVar(&cfg.throttle, "throttle", 0, "rebuild throttle per unit (e.g. 200us)")
	flag.IntVar(&cfg.parities, "parities", 1, "parity units per stripe: 1 (code P) or 2 (code P+Q)")
	flag.IntVar(&cfg.failDisk, "fail", 2, "disk to fail")
	flag.IntVar(&cfg.fail2, "fail2", 0, "second disk to fail (-parities 2 only; must differ from -fail)")
	flag.BoolVar(&cfg.faults, "faults", false, "inject faults with default rates (override via -transient etc.)")
	flag.Float64Var(&cfg.transient, "transient", 0, "per-op transient error rate on every disk")
	flag.Float64Var(&cfg.torn, "torn", 0, "per-write torn-write rate on every disk")
	flag.Float64Var(&cfg.lse, "lse", 0, "per-read latent-sector-error rate on the -fail disk")
	flag.Float64Var(&cfg.corrupt, "corrupt", 0, "per-read transient corruption rate on every disk")
	flag.Int64Var(&cfg.chaosSeed, "chaos-seed", 0, "fault injection seed (0 = from the clock); under one seed the n-th access to a unit meets the same fault in every run")
	flag.BoolVar(&cfg.scrub, "scrub", false, "run a verifying scrub sweep before the final check")
	flag.DurationVar(&cfg.scrubThrottle, "scrub-throttle", 0, "scrub throttle per stripe (e.g. 100us)")
	flag.IntVar(&cfg.retries, "retries", 0, "transient-error retries per op (0 = engine default)")
	flag.IntVar(&cfg.failThreshold, "fail-threshold", 0, "auto-fail a disk after this many persistent errors (0 = off)")
	flag.IntVar(&cfg.ioWorkers, "io-workers", 0, "upper bound on intra-request I/O overlap; the store decides per batch from its backends' speed (1 = serial engine, 0 = GOMAXPROCS)")
	flag.IntVar(&cfg.rebuildWork, "rebuild-workers", 0, "concurrent rebuild/scrub shards (0 = io-workers)")
	flag.Parse()
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "store:", err)
		os.Exit(1)
	}
}

// fill writes the deterministic pattern for (unit, version) into buf; the
// verifier recomputes it to check read-backs byte for byte.
func fill(buf []byte, unit int64, version uint64) {
	x := uint64(unit)*0x9e3779b97f4a7c15 + version*0xbf58476d1ce4e5b9 + 1
	for i := 0; i+8 <= len(buf); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(buf[i:], x)
	}
}

func run(cfg config, out io.Writer) error {
	scfg := declust.StoreConfig{
		UnitsPerDisk:    cfg.units,
		UnitSize:        cfg.unitSize,
		RebuildThrottle: cfg.throttle,
		ScrubThrottle:   cfg.scrubThrottle,
		Retries:         cfg.retries,
		FailThreshold:   cfg.failThreshold,
		IOWorkers:       cfg.ioWorkers,
		RebuildWorkers:  cfg.rebuildWork,
	}
	if cfg.units < 1 {
		return fmt.Errorf("-units %d: need at least one unit per disk", cfg.units)
	}
	if cfg.failDisk < 0 || cfg.failDisk >= cfg.c {
		return fmt.Errorf("-fail %d out of range [0,%d)", cfg.failDisk, cfg.c)
	}
	if cfg.clients < 1 {
		return fmt.Errorf("-clients %d: need at least one client", cfg.clients)
	}
	if cfg.readFrac < 0 || cfg.readFrac > 1 {
		return fmt.Errorf("-read %g outside [0,1]", cfg.readFrac)
	}
	if cfg.phaseSecs < 0 {
		return fmt.Errorf("-secs %g is negative", cfg.phaseSecs)
	}
	for _, r := range []struct {
		flag string
		v    float64
	}{{"-transient", cfg.transient}, {"-torn", cfg.torn}, {"-lse", cfg.lse}, {"-corrupt", cfg.corrupt}} {
		if r.v < 0 || r.v >= 1 {
			return fmt.Errorf("%s %g outside [0,1)", r.flag, r.v)
		}
	}
	if cfg.parities == 0 {
		cfg.parities = 1
	}
	if cfg.parities != 1 && cfg.parities != 2 {
		return fmt.Errorf("-parities %d: must be 1 (P) or 2 (P+Q)", cfg.parities)
	}
	codeName := "P"
	victims := []int{cfg.failDisk}
	if cfg.parities == 2 {
		codeName = "P+Q"
		if cfg.fail2 < 0 || cfg.fail2 >= cfg.c {
			return fmt.Errorf("-fail2 %d out of range [0,%d)", cfg.fail2, cfg.c)
		}
		if cfg.fail2 == cfg.failDisk {
			return fmt.Errorf("-fail2 %d: the second victim must differ from -fail", cfg.fail2)
		}
		victims = append(victims, cfg.fail2)
	}
	faultsOn := cfg.faults || cfg.transient > 0 || cfg.torn > 0 || cfg.lse > 0 || cfg.corrupt > 0
	if cfg.faults && cfg.transient == 0 && cfg.torn == 0 && cfg.lse == 0 && cfg.corrupt == 0 {
		cfg.transient, cfg.torn, cfg.lse, cfg.corrupt = 0.02, 0.01, 0.002, 0.005
	}
	seed := cfg.chaosSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}

	var replPath string
	if cfg.backend == "file" {
		dir := cfg.dir
		if dir == "" {
			var err error
			if dir, err = os.MkdirTemp("", "declust-store-"); err != nil {
				return err
			}
			defer os.RemoveAll(dir)
		}
		disks, err := declust.OpenFileDisks(dir, cfg.c, cfg.units, cfg.unitSize)
		if err != nil {
			return err
		}
		scfg.Disks = disks
		scfg.Intent = declust.OpenFileIntent(filepath.Join(dir, "intent.log"))
		replPath = filepath.Join(dir, "replacement.dat")
		fmt.Fprintf(out, "file-backed array under %s\n", dir)
	}

	// Fault injection wraps every backend; latent sector errors arrive
	// only on the disk that will be failed, so no latent damage can sit
	// on a survivor when the rebuild reads them (scrub-before-rebuild).
	var fds []*declust.StoreFaultDisk
	if faultsOn {
		fmt.Fprintf(out, "fault injection on: transient=%g torn=%g lse=%g corrupt=%g seed=%d\n",
			cfg.transient, cfg.torn, cfg.lse, cfg.corrupt, seed)
		base := scfg.Disks
		if base == nil {
			base = make([]declust.StoreDisk, cfg.c)
			for i := range base {
				base[i] = declust.NewMemDisk(cfg.units, cfg.unitSize)
			}
		}
		fds = make([]*declust.StoreFaultDisk, cfg.c)
		wrapped := make([]declust.StoreDisk, cfg.c)
		for i, d := range base {
			fc := declust.StoreFaultConfig{
				Seed:          seed + int64(i),
				TransientRate: cfg.transient,
				TornWriteRate: cfg.torn,
				CorruptRate:   cfg.corrupt,
			}
			if i == cfg.failDisk {
				fc.LSERate = cfg.lse
			}
			fds[i] = declust.NewFaultDisk(d, fc)
			wrapped[i] = fds[i]
		}
		scfg.Disks = wrapped
	}

	open := declust.OpenStore
	if cfg.parities == 2 {
		open = declust.OpenPQStore
	}
	s, err := open(cfg.c, cfg.g, scfg)
	if err != nil {
		return err
	}
	defer s.Close()
	if st := s.Stats(); st.ResyncedStripes > 0 {
		fmt.Fprintf(out, "crash recovery: resynced %d stripes (%d repaired)\n", st.ResyncedStripes, st.ResyncRepairs)
	}

	ioWorkers := cfg.ioWorkers
	if ioWorkers < 1 {
		ioWorkers = runtime.GOMAXPROCS(0)
	}
	rebuildWorkers := cfg.rebuildWork
	if rebuildWorkers < 1 {
		rebuildWorkers = ioWorkers
	}
	total := s.DataUnits()
	if int64(cfg.clients) > total {
		// Clients own disjoint unit ranges, so each needs a unit.
		return fmt.Errorf("-clients %d: the array has only %d data units", cfg.clients, total)
	}
	fmt.Fprintf(out, "store: C=%d G=%d code %s, %d data units x %d B (%.1f MB usable), %d clients, %d io-workers, %d rebuild-workers\n",
		cfg.c, cfg.g, codeName, total, cfg.unitSize, float64(total*int64(cfg.unitSize))/1e6, cfg.clients, ioWorkers, rebuildWorkers)

	// version[n] is unit n's last written version; clients own disjoint
	// unit ranges so each slot has a single writer.
	version := make([]uint64, total)
	buf := make([]byte, cfg.unitSize)
	for n := int64(0); n < total; n++ {
		version[n] = 1
		fill(buf, n, 1)
		if err := s.WriteUnit(n, buf); err != nil {
			return err
		}
	}
	if err := s.Sync(); err != nil {
		return err
	}
	fmt.Fprintf(out, "filled %d units\n", total)

	// phases accumulates one row per load phase (plus the rebuild) for
	// the lifecycle summary printed before the verdict.
	type phaseStat struct {
		name    string
		ops     int64
		secs    float64
		mbps    float64
		rebuild bool
	}
	var phases []phaseStat

	// loadPhase runs the client mix for the phase duration; clients
	// verify every read against their own last write as they go.
	loadPhase := func(name string) error {
		var stop atomic.Bool
		var ops atomic.Int64
		errc := make(chan error, cfg.clients)
		var wg sync.WaitGroup
		per := total / int64(cfg.clients)
		start := time.Now()
		for w := 0; w < cfg.clients; w++ {
			lo := int64(w) * per
			hi := lo + per
			if w == cfg.clients-1 {
				hi = total
			}
			wg.Add(1)
			go func(w int, lo, hi int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
				rbuf := make([]byte, cfg.unitSize)
				want := make([]byte, cfg.unitSize)
				for !stop.Load() {
					n := lo + rng.Int63n(hi-lo)
					if rng.Float64() < cfg.readFrac {
						if err := s.ReadUnit(n, rbuf); err != nil {
							errc <- err
							return
						}
						fill(want, n, version[n])
						if !bytes.Equal(rbuf, want) {
							errc <- fmt.Errorf("%s: unit %d corrupted (want version %d)", name, n, version[n])
							return
						}
					} else {
						version[n]++
						fill(rbuf, n, version[n])
						if err := s.WriteUnit(n, rbuf); err != nil {
							errc <- err
							return
						}
					}
					ops.Add(1)
				}
			}(w, lo, hi)
		}
		time.Sleep(time.Duration(cfg.phaseSecs * float64(time.Second)))
		stop.Store(true)
		wg.Wait()
		close(errc)
		for err := range errc {
			return err
		}
		el := time.Since(start).Seconds()
		n := ops.Load()
		mbps := float64(n) * float64(cfg.unitSize) / 1e6 / el
		phases = append(phases, phaseStat{name: name, ops: n, secs: el, mbps: mbps})
		fmt.Fprintf(out, "%-12s %9d ops in %.2fs  (%.0f ops/s, %.1f MB/s), mode %s\n",
			name, n, el, float64(n)/el, mbps, s.Mode())
		return nil
	}

	if err := loadPhase("fault-free"); err != nil {
		return err
	}

	if faultsOn && cfg.lse > 0 {
		// Stop new latent errors on the doomed disk and scrub the array
		// clean before failing it: a latent error discovered on a survivor
		// during rebuild would be unrecoverable.
		fds[cfg.failDisk].SetConfig(declust.StoreFaultConfig{
			TransientRate: cfg.transient,
			TornWriteRate: cfg.torn,
			CorruptRate:   cfg.corrupt,
		})
		res, err := s.Scrub()
		if err != nil {
			return fmt.Errorf("pre-failure scrub: %w", err)
		}
		fmt.Fprintf(out, "pre-failure scrub: %d stripes verified, %d units repaired, %d parity rewrites\n",
			res.Stripes, res.UnitRepairs, res.ParityRewrites)
	}
	fmt.Fprintf(out, "failing disk %d\n", cfg.failDisk)
	if err := s.Fail(cfg.failDisk); err != nil {
		return err
	}
	if err := loadPhase("degraded"); err != nil {
		return err
	}
	if cfg.parities == 2 {
		// The second whole-disk failure saturates the P+Q code: every
		// doubly-dead stripe must now decode through the Reed–Solomon
		// equations. The second victim never carried latent sector errors
		// (injection puts them only on -fail), so no stripe can reach
		// three erasures.
		fmt.Fprintf(out, "failing disk %d (second failure, code %s)\n", cfg.fail2, codeName)
		if err := s.Fail(cfg.fail2); err != nil {
			return err
		}
		if err := loadPhase("degraded-2"); err != nil {
			return err
		}
	}

	// Rebuild the victims in failure order (Rebuild always targets the
	// oldest outstanding failure); each rebuild races its own load phase
	// and lands as its own row so the summary reports per-failure
	// rebuild wall-clock.
	for i, victim := range victims {
		var repl declust.StoreDisk = declust.NewMemDisk(cfg.units, cfg.unitSize)
		if replPath != "" {
			path := replPath
			if i > 0 {
				path = filepath.Join(filepath.Dir(replPath), fmt.Sprintf("replacement%d.dat", i+1))
			}
			if repl, err = declust.OpenFileDisk(path, cfg.units, cfg.unitSize); err != nil {
				return err
			}
		}
		if faultsOn {
			// The replacement is no more reliable than the rest of the array.
			rfd := declust.NewFaultDisk(repl, declust.StoreFaultConfig{
				Seed:          seed + int64(cfg.c+i),
				TransientRate: cfg.transient,
				TornWriteRate: cfg.torn,
			})
			fds[victim] = rfd
			repl = rfd
		}
		phaseName, rowName := "rebuilding", "rebuild"
		if len(victims) > 1 {
			phaseName = fmt.Sprintf("rebuilding-%d", i+1)
			rowName = fmt.Sprintf("rebuild d%d", victim)
		}
		rebuildDone := make(chan error, 1)
		rebuildStart := time.Now()
		go func() { rebuildDone <- s.Rebuild(repl) }()
		if err := loadPhase(phaseName); err != nil {
			return err
		}
		if err := <-rebuildDone; err != nil {
			return err
		}
		done, rTotal := s.RebuildProgress()
		rebuildSecs := time.Since(rebuildStart).Seconds()
		phases = append(phases, phaseStat{
			name: rowName, ops: done, secs: rebuildSecs,
			mbps:    float64(done) * float64(cfg.unitSize) / 1e6 / rebuildSecs,
			rebuild: true,
		})
		if len(victims) > 1 {
			fmt.Fprintf(out, "rebuild of disk %d complete: %d/%d units in %.2fs\n", victim, done, rTotal, rebuildSecs)
		} else {
			fmt.Fprintf(out, "rebuild complete: %d/%d units in %.2fs\n", done, rTotal, rebuildSecs)
		}
	}

	if err := loadPhase("healed"); err != nil {
		return err
	}

	if cfg.scrub || faultsOn {
		// Quiesce injection, then let the scrubber verify and repair the
		// whole array before the byte-for-byte check.
		for _, fd := range fds {
			fd.Quiesce()
		}
		res, err := s.Scrub()
		if err != nil {
			return fmt.Errorf("final scrub: %w", err)
		}
		fmt.Fprintf(out, "final scrub: %d stripes verified, %d units repaired, %d parity rewrites\n",
			res.Stripes, res.UnitRepairs, res.ParityRewrites)
	}

	// Final verification: every unit equals its last write, every
	// stripe's parity equation balances.
	want := make([]byte, cfg.unitSize)
	for n := int64(0); n < total; n++ {
		if err := s.ReadUnit(n, buf); err != nil {
			return err
		}
		fill(want, n, version[n])
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("verify: unit %d corrupted (want version %d)", n, version[n])
		}
	}
	if err := s.CheckParity(); err != nil {
		return err
	}
	if err := s.Sync(); err != nil {
		return err
	}
	// Lifecycle summary: one row per phase so the effect of -io-workers
	// and -rebuild-workers is visible at a glance across the run.
	fmt.Fprintf(out, "lifecycle summary (code %s, %d io-workers, %d rebuild-workers):\n", codeName, ioWorkers, rebuildWorkers)
	for _, p := range phases {
		if p.rebuild {
			fmt.Fprintf(out, "  %-12s %8.1f MB/s  (%d units reconstructed in %.2fs wall-clock)\n",
				p.name, p.mbps, p.ops, p.secs)
			continue
		}
		fmt.Fprintf(out, "  %-12s %8.1f MB/s  (%d ops in %.2fs)\n", p.name, p.mbps, p.ops, p.secs)
	}
	st := s.Stats()
	fmt.Fprintf(out, "stats: %d reads (%d reconstructed on the fly), %d writes (%d folded, %d redirected, %d reconstruct-writes), %d units rebuilt\n",
		st.Reads, st.DegradedReads, st.Writes, st.FoldedWrites, st.RedirectedWrites, st.ReconstructWrites, st.RebuiltUnits)
	if faultsOn || st.Retries > 0 || st.HealedUnits > 0 || st.LostUnits > 0 {
		fmt.Fprintf(out, "robustness: %d retries, %d units healed (%d media, %d checksum), %d units lost, %d scrub repairs, %d stale parity rewrites\n",
			st.Retries, st.HealedUnits, st.MediaErrors, st.ChecksumErrors, st.LostUnits, st.ScrubUnitRepairs, st.ScrubParityFixes)
	}
	if ioWorkers > 1 {
		fmt.Fprintf(out, "overlap: %d batches fanned out, %d turned down by the latency gate and issued inline, device latency %v (moving average)\n",
			st.FanOuts, st.FanOutsInline, st.DeviceLatency)
	}
	fmt.Fprintf(out, "verify: OK — all %d units match their last write, parity consistent\n", total)
	return nil
}
