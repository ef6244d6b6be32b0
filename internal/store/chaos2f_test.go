package store

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"declust/internal/layout"
)

// The two-failure chaos invariant: the P+Q store runs thousands of
// concurrent operations against fault-injecting backends — transient
// errors, latent sector errors, torn writes, transient read corruption —
// loses TWO disks mid-run, serves a doubly-degraded window, rebuilds both
// slots under load, and at the end must be parity-consistent on both
// equations with every acknowledged write readable byte-for-byte.
// make store-chaos runs this under the race detector.
//
// Fault placement follows the same collision-free discipline as the
// single-parity chaos run, tightened for the smaller margin of the
// two-down window (where the code has no spare correction power left):
// LSEs arrive only on the first victim disk, which is quiesced and
// scrubbed while the store is still healthy — so no persistent damage can
// sit on a survivor once two disks are gone. Transient faults retry
// clean, read corruption clears on the re-read readPhys already performs,
// and torn writes are repaired by the engine's own write retry, all under
// the stripe lock.

// chaos2FSecondDisk is the second victim; it never carries LSEs.
const chaos2FSecondDisk = 0

func TestChaos2FDoubleFailureRebuild(t *testing.T) {
	forceOverlap(t)
	seed := chaosSeed(t)
	recordChaosSeed(t, seed)

	const (
		workers = 12
		c       = 7
		g       = 4 // P+Q: 2 data + P + Q per stripe
	)
	mk := func(disk int) FaultConfig {
		cfg := chaosRates(disk)
		cfg.Seed = seed + int64(disk)
		return cfg
	}
	lay := testPQLayout(t, c, g)
	usable := layout.UsableUnitsPerDisk(lay, 64)
	fds := make([]*FaultDisk, c)
	disks := make([]Disk, c)
	for i := range disks {
		fds[i] = NewFaultDisk(NewMemDisk(usable, 512), mk(i))
		disks[i] = fds[i]
	}
	s, err := New(Config{
		Layout:       lay,
		UnitsPerDisk: 64,
		UnitSize:     512,
		Disks:        disks,
		Retries:      6,
		RetryBackoff: 100 * time.Microsecond,
		// The parallel fast path: fanned two-erasure decodes and commits
		// racing 12 clients plus two sharded rebuilds, all under -race.
		IOWorkers:      8,
		RebuildWorkers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

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
			rng := rand.New(rand.NewSource(seed*37 + int64(w)))
			buf := make([]byte, s.UnitSize())
			span := hi - lo
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
				case p < 50: // overwrite: the six-access dual-parity RMW
					v := vers[u-lo] + 1
					fill(buf, u, v)
					if err := s.WriteUnit(u, buf); err != nil {
						t.Errorf("worker %d: WriteUnit(%d): %v", w, u, err)
						return
					}
					vers[u-lo] = v
				case p < 85: // read, verify last acknowledged version
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
	waitDegradedReads := func(delta int64) {
		base := s.Stats().DegradedReads
		deadline := time.Now().Add(2 * time.Minute)
		for s.Stats().DegradedReads < base+delta && !t.Failed() {
			if time.Now().After(deadline) {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Phase 1: healthy chaos.
	waitOps(4000, "healthy chaos phase")

	// Phase 2: quiesce the LSE source and scrub while still healthy — the
	// scrub covers every stripe only while nothing is lost, and the
	// two-down window has no spare correction power for a latent error.
	lseCfg := chaosRates(chaosLSEDisk)
	lseCfg.LSERate = 0
	fds[chaosLSEDisk].SetConfig(lseCfg)
	if _, err := s.Scrub(); err != nil {
		t.Fatalf("pre-failure scrub: %v", err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Phase 3: first failure under load; hold a singly-degraded window.
	if err := s.Fail(chaosLSEDisk); err != nil {
		t.Fatalf("Fail(%d): %v", chaosLSEDisk, err)
	}
	waitDegradedReads(20)
	waitOps(ops.Load()+1000, "singly-degraded phase")

	// Phase 4: second failure — the P+Q code is now saturated. Every read
	// touching both victims is a two-erasure decode; writes fold forward.
	if !t.Failed() {
		if err := s.Fail(chaos2FSecondDisk); err != nil {
			t.Fatalf("Fail(%d): %v", chaos2FSecondDisk, err)
		}
	}
	waitDegradedReads(20)
	waitOps(ops.Load()+1000, "doubly-degraded phase")

	// Phase 5: rebuild both slots, oldest first, onto replacements that
	// inject faults too. The store stays degraded between the rebuilds.
	if !t.Failed() {
		for i, want := range []Mode{Degraded, Healthy} {
			replCfg := FaultConfig{Seed: seed + 100 + int64(i),
				TransientRate: 0.02, TornWriteRate: 0.015}
			repl := NewFaultDisk(NewMemDisk(s.unitsPerDisk, s.UnitSize()), replCfg)
			if err := s.Rebuild(repl); err != nil {
				t.Fatalf("Rebuild %d under chaos: %v", i+1, err)
			}
			if got := s.Mode(); got != want {
				t.Fatalf("Mode after rebuild %d = %v, want %v", i+1, got, want)
			}
			if i == 0 {
				fds[chaosLSEDisk] = repl
			} else {
				fds[chaos2FSecondDisk] = repl
			}
		}
	}

	// Phase 6: healthy again, keep the pressure on a little longer.
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
	t.Logf("chaos-2f: ops=%d retries=%d healed=%d media=%d checksum=%d degradedReads=%d rebuilt=%d scrubRepairs=%d",
		ops.Load(), st.Retries, st.HealedUnits, st.MediaErrors, st.ChecksumErrors,
		st.DegradedReads, st.RebuiltUnits, st.ScrubUnitRepairs)
	if st.Retries == 0 {
		t.Error("chaos-2f run exercised no retries")
	}
	if st.DegradedReads == 0 {
		t.Error("chaos-2f run exercised no degraded reads")
	}
	if st.Rebuilds != 2 {
		t.Errorf("Rebuilds = %d, want 2", st.Rebuilds)
	}
}
