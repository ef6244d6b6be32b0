package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The chaos invariant: thousands of concurrent operations against
// fault-injecting backends — transient errors, latent sector errors, torn
// writes, transient read corruption, plus a mid-run disk failure and
// rebuild — and at the end the array must be parity-consistent with every
// acknowledged write readable byte-for-byte. make store-chaos runs this
// under the race detector.
//
// Fault placement is chosen so the run is collision-free by construction
// (single parity repairs at most one damaged unit per stripe): LSEs
// arrive on one designated disk only (a stripe holds at most one unit per
// disk), corruption is transient (a re-read clears it), torn writes
// return errors and are repaired by the engine's own retry, and the LSE
// disk is quiesced and scrubbed before it is failed — the real-world
// "scrub before rebuild" discipline, because a latent error discovered on
// a survivor mid-rebuild is genuine data loss.

const chaosLSEDisk = 3

func chaosSeed(t *testing.T) int64 {
	if env := os.Getenv("CHAOS_SEED"); env != "" {
		seed, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", env, err)
		}
		return seed
	}
	return time.Now().UnixNano()
}

// recordChaosSeed makes the run reproducible: the seed is always logged,
// and a failing run leaves it under STORE_CHAOS_DIR, where CI picks it up
// as a failure artifact.
func recordChaosSeed(t *testing.T, seed int64) {
	t.Logf("chaos seed: %d (rerun with CHAOS_SEED=%d)", seed, seed)
	if dir := os.Getenv("STORE_CHAOS_DIR"); dir != "" {
		t.Cleanup(func() {
			if err := writeFailedSeed(dir, t.Name(), seed, t.Failed()); err != nil {
				t.Logf("chaos seed not written: %v", err)
			}
		})
	}
}

// writeFailedSeed appends a failed repetition's seed to dir/<name>.seed and
// writes nothing for one that passed, so after -count=N the file holds the
// seeds of exactly the repetitions that failed, one line each.
func writeFailedSeed(dir, name string, seed int64, failed bool) error {
	if !failed {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, name+".seed"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "CHAOS_SEED=%d\n", seed)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func TestWriteFailedSeed(t *testing.T) {
	type run struct {
		name   string
		seed   int64
		failed bool
	}
	const single, double = "TestChaosAcknowledgedWritesSurviveFaultsAndRebuild", "TestChaos2FDoubleFailureRebuild"
	for _, tc := range []struct {
		name string
		runs []run
		want map[string]string // file name → contents
	}{
		{"a pass writes nothing", []run{{single, 1, false}, {double, 2, false}}, map[string]string{}},
		{"two failing repetitions leave two lines",
			[]run{{single, 1, true}, {single, 2, false}, {single, 3, true}},
			map[string]string{single + ".seed": "CHAOS_SEED=1\nCHAOS_SEED=3\n"}},
		{"the two tests never share a file",
			[]run{{single, 4, true}, {double, 5, true}, {single, 6, false}},
			map[string]string{single + ".seed": "CHAOS_SEED=4\n", double + ".seed": "CHAOS_SEED=5\n"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "chaos-artifacts")
			for _, r := range tc.runs {
				if err := writeFailedSeed(dir, r.name, r.seed, r.failed); err != nil {
					t.Fatal(err)
				}
			}
			entries, err := os.ReadDir(dir)
			if err != nil && !errors.Is(err, os.ErrNotExist) {
				t.Fatal(err)
			}
			got := map[string]string{}
			for _, e := range entries {
				data, err := os.ReadFile(filepath.Join(dir, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				got[e.Name()] = string(data)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("files under %s = %q, want %q", dir, got, tc.want)
			}
		})
	}
}

func chaosRates(disk int) FaultConfig {
	cfg := FaultConfig{
		TransientRate: 0.02,
		TornWriteRate: 0.015,
		CorruptRate:   0.008,
	}
	if disk == chaosLSEDisk {
		cfg.LSERate = 0.003
	}
	return cfg
}

func TestChaosAcknowledgedWritesSurviveFaultsAndRebuild(t *testing.T) {
	forceOverlap(t)
	seed := chaosSeed(t)
	recordChaosSeed(t, seed)

	const (
		workers = 12
		c       = 7
		g       = 3
	)
	mk := func(disk int) FaultConfig {
		cfg := chaosRates(disk)
		cfg.Seed = seed + int64(disk)
		return cfg
	}
	s, fds := faultStore(t, c, g, 64, 512, mk, Config{
		Retries:      6,
		RetryBackoff: 100 * time.Microsecond,
		// Run the chaos mix through the parallel fast path: fanned
		// survivor gathers and commits racing 12 clients, a sharded
		// rebuild, and group-committed intent marks, all under -race.
		IOWorkers:      8,
		RebuildWorkers: 4,
	})

	// Contiguous ownership: worker w owns units [lo, hi) and is the only
	// writer there, so its private version ledger is the ground truth for
	// "acknowledged write" verification.
	per := s.DataUnits() / workers
	if per < 4 {
		t.Fatalf("only %d units per worker; geometry too small", per)
	}

	var (
		ops  atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	versions := make([][]uint64, workers)
	for w := 0; w < workers; w++ {
		lo := int64(w) * per
		hi := lo + per
		if w == workers-1 {
			hi = s.DataUnits()
		}
		vers := make([]uint64, hi-lo)
		versions[w] = vers
		wg.Add(1)
		go func(w int, lo, hi int64, vers []uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*31 + int64(w)))
			buf := make([]byte, s.UnitSize())
			span := hi - lo
			// Settle every owned unit at version 1 so reads always have a
			// known pattern to check against.
			for u := lo; u < hi; u++ {
				fill(buf, u, 1)
				if err := s.WriteUnit(u, buf); err != nil {
					t.Errorf("worker %d: settle WriteUnit(%d): %v", w, u, err)
					return
				}
				vers[u-lo] = 1
			}
			for !stop.Load() {
				u := lo + rng.Int63n(span)
				switch p := rng.Intn(100); {
				case p < 50: // overwrite one unit
					v := vers[u-lo] + 1
					fill(buf, u, v)
					if err := s.WriteUnit(u, buf); err != nil {
						t.Errorf("worker %d: WriteUnit(%d): %v", w, u, err)
						return
					}
					vers[u-lo] = v
				case p < 85: // read one unit, verify last acknowledged version
					if err := s.ReadUnit(u, buf); err != nil {
						t.Errorf("worker %d: ReadUnit(%d): %v", w, u, err)
						return
					}
					if !patternMatches(buf, u, vers[u-lo]) {
						t.Errorf("worker %d: unit %d does not match acknowledged version %d", w, u, vers[u-lo])
						return
					}
				default: // range ops within the owned block
					n := 2 + rng.Int63n(3)
					if u+n > hi {
						u = hi - n
					}
					rbuf := make([]byte, int(n)*s.UnitSize())
					if rng.Intn(2) == 0 {
						if err := s.ReadRange(u, rbuf); err != nil {
							t.Errorf("worker %d: ReadRange(%d,%d): %v", w, u, n, err)
							return
						}
						for i := int64(0); i < n; i++ {
							if !patternMatches(rbuf[i*int64(s.UnitSize()):(i+1)*int64(s.UnitSize())], u+i, vers[u+i-lo]) {
								t.Errorf("worker %d: range unit %d stale", w, u+i)
								return
							}
						}
					} else {
						for i := int64(0); i < n; i++ {
							fill(rbuf[i*int64(s.UnitSize()):(i+1)*int64(s.UnitSize())], u+i, vers[u+i-lo]+1)
						}
						if err := s.WriteRange(u, rbuf); err != nil {
							t.Errorf("worker %d: WriteRange(%d,%d): %v", w, u, n, err)
							return
						}
						for i := int64(0); i < n; i++ {
							vers[u+i-lo]++
						}
					}
				}
				ops.Add(1)
			}
		}(w, lo, hi, vers)
	}

	waitOps := func(target int64, what string) {
		deadline := time.Now().Add(2 * time.Minute)
		for ops.Load() < target && !t.Failed() {
			if time.Now().After(deadline) {
				stop.Store(true)
				wg.Wait()
				t.Fatalf("timed out waiting for %s (%d/%d ops)", what, ops.Load(), target)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Phase 1: healthy chaos.
	waitOps(4000, "healthy chaos phase")

	// Phase 2: quiesce the LSE source and scrub, so no latent damage can
	// sit on a survivor when the disk fails.
	lseCfg := chaosRates(chaosLSEDisk)
	lseCfg.LSERate = 0
	fds[chaosLSEDisk].SetConfig(lseCfg)
	if _, err := s.Scrub(); err != nil {
		t.Fatalf("pre-failure scrub: %v", err)
	}

	// Phase 3: fail the (former) LSE disk under load, hold a degraded
	// window, then rebuild onto a replacement that injects faults too.
	if !t.Failed() {
		if err := s.Fail(chaosLSEDisk); err != nil {
			t.Fatalf("Fail(%d): %v", chaosLSEDisk, err)
		}
		base := s.Stats().DegradedReads
		deadline := time.Now().Add(2 * time.Minute)
		for s.Stats().DegradedReads < base+20 && !t.Failed() {
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		replCfg := FaultConfig{Seed: seed + 100, TransientRate: 0.02, TornWriteRate: 0.015}
		repl := NewFaultDisk(NewMemDisk(s.unitsPerDisk, s.UnitSize()), replCfg)
		if err := s.Rebuild(repl); err != nil {
			t.Fatalf("Rebuild under chaos: %v", err)
		}
		fds[chaosLSEDisk] = repl
	}

	// Phase 4: healthy again, keep the pressure on a little longer.
	waitOps(ops.Load()+1000, "post-rebuild phase")

	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Quiesce everything and verify the invariant.
	for _, fd := range fds {
		fd.Quiesce()
	}
	if _, err := s.Scrub(); err != nil {
		t.Fatalf("final scrub: %v", err)
	}
	if err := s.CheckParity(); err != nil {
		t.Fatalf("CheckParity after chaos: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync after chaos: %v", err)
	}
	buf := make([]byte, s.UnitSize())
	for w := 0; w < workers; w++ {
		lo := int64(w) * per
		for i, v := range versions[w] {
			u := lo + int64(i)
			if err := s.ReadUnit(u, buf); err != nil {
				t.Fatalf("final ReadUnit(%d): %v", u, err)
			}
			if !patternMatches(buf, u, v) {
				t.Fatalf("unit %d lost acknowledged version %d", u, v)
			}
		}
	}

	st := s.Stats()
	t.Logf("chaos: ops=%d retries=%d healed=%d media=%d checksum=%d degradedReads=%d rebuilt=%d scrubRepairs=%d",
		ops.Load(), st.Retries, st.HealedUnits, st.MediaErrors, st.ChecksumErrors,
		st.DegradedReads, st.RebuiltUnits, st.ScrubUnitRepairs)
	if st.Retries == 0 {
		t.Error("chaos run exercised no retries")
	}
	if st.DegradedReads == 0 {
		t.Error("chaos run exercised no degraded reads")
	}
	if st.Rebuilds != 1 {
		t.Errorf("Rebuilds = %d, want 1", st.Rebuilds)
	}
}

// patternMatches reports whether buf holds fill(unit, version); version 0
// means never written, i.e. all zeroes.
func patternMatches(buf []byte, unit int64, version uint64) bool {
	if version == 0 {
		for _, b := range buf {
			if b != 0 {
				return false
			}
		}
		return true
	}
	want := make([]byte, len(buf))
	fill(want, unit, version)
	for i := range buf {
		if buf[i] != want[i] {
			return false
		}
	}
	return true
}
