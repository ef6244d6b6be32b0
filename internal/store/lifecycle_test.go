package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"declust/internal/layout"
)

// The lifecycle suite is the engine's continuous-operation acceptance test,
// one harness for both codes: 8 or 12 client goroutines read and write
// through the store while it serves healthy traffic, loses one disk after
// another (as many as the code corrects), serves each degraded window,
// rebuilds every failure oldest first onto a replacement, and serves healed
// traffic — under the race detector when run by `make race`. Each client
// owns a disjoint range of logical units and keeps a ledger of its
// acknowledged versions, so every read, during the run and in the final
// read-back, is checked byte for byte, including rebuild racing user writes
// on a stripe. Every window ends on a counter the clients or the store
// advanced, never on a sleep, and fails when two minutes pass.
//
// The chaos rows run on fault-injecting backends: transient errors, latent
// sector errors on every disk, torn writes and transient read corruption.
// Faults may collide: a latent error on a survivor of a degraded stripe, or
// two in one stripe, is more than the code repairs, and the store loses
// the stripe's erased units (Stats.LostUnits) and carries on. A client
// whose read returns ErrUnrecoverable restores that unit from its ledger,
// as an operator restores from backup; the run checks that no more units
// were restored than the store booked lost, and no write fails.
// make store-chaos runs the chaos rows under the race detector.

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
// seeds of exactly the repetitions that failed, one line each. A subtest's
// name has its slashes turned into underscores, so its file lies directly
// under dir too.
func writeFailedSeed(dir, name string, seed int64, failed bool) error {
	if !failed {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	file := strings.ReplaceAll(name, "/", "_") + ".seed"
	f, err := os.OpenFile(filepath.Join(dir, file), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
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
	// The seed's two recorders: a test, and a row of one.
	const single, double = "TestGeneratedRangeOps", "TestLifecycle/chaos/P+Q"
	const doubleFile = "TestLifecycle_chaos_P+Q.seed"
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
			map[string]string{single + ".seed": "CHAOS_SEED=4\n", doubleFile: "CHAOS_SEED=5\n"}},
		{"a subtest's seed lands directly under the directory",
			[]run{{"TestLifecycle/chaos/P", 7, true}, {double, 8, true}},
			map[string]string{"TestLifecycle_chaos_P.seed": "CHAOS_SEED=7\n", doubleFile: "CHAOS_SEED=8\n"}},
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

// setRetryBackoff fixes the first retry's sleep for every store built for
// the rest of the test: the chaos runs retry thousands of transients.
func setRetryBackoff(t *testing.T, d time.Duration) {
	old := retryBackoff
	retryBackoff = d
	t.Cleanup(func() { retryBackoff = old })
}

// chaosRates is every chaos disk's fault mix.
var chaosRates = FaultConfig{
	TransientRate: 0.02,
	TornWriteRate: 0.015,
	LSERate:       0.003,
	CorruptRate:   0.008,
}

// codeLayout is the suite's array under parity count m: C = 7 with two
// data units a stripe, so G = 3 under P and G = 4 under P+Q.
func codeLayout(t testing.TB, m int) layout.Layout {
	if m == 2 {
		return testPQLayout(t, 7, 4)
	}
	return testLayout(t, 7, 3)
}

// rebuildEach rebuilds s's n failures oldest first, the i-th onto repl(i),
// and checks after each that the store stays Degraded until the last heals.
func rebuildEach(t *testing.T, s *Store, n int, repl func(i int) Disk) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Rebuild(repl(i)); err != nil {
			t.Fatalf("rebuild %d of %d: %v", i+1, n, err)
		}
		want := Degraded
		if i == n-1 {
			want = Healthy
		}
		if got := s.Mode(); got != want {
			t.Fatalf("Mode after rebuild %d of %d = %v, want %v", i+1, n, got, want)
		}
	}
}

// client is one lifecycle worker: it alone writes units [lo, hi), and
// vers[u-lo] is the version of u's last acknowledged write. restored holds
// the units it wrote back after the store lost them.
type client struct {
	s        *Store
	lo, hi   int64
	vers     []uint64
	rng      *rand.Rand
	buf      []byte // room for the whole range
	restored map[int64]bool
}

// write writes units [u, u+n) at their next versions — one WriteUnit when
// unit is set, else one WriteRange — and records them once acknowledged.
func (c *client) write(u, n int64, unit bool) error {
	us := int64(c.s.UnitSize())
	b := c.buf[:n*us]
	for i := int64(0); i < n; i++ {
		fill(b[i*us:(i+1)*us], u+i, c.vers[u+i-c.lo]+1)
	}
	var err error
	if unit {
		err = c.s.WriteUnit(u, b)
	} else {
		err = c.s.WriteRange(u, b)
	}
	if err != nil {
		return fmt.Errorf("write [%d, %d): %w", u, u+n, err)
	}
	for i := u; i < u+n; i++ {
		c.vers[i-c.lo]++
	}
	return nil
}

// read reads units [u, u+n) — one ReadUnit when unit is set, else one
// ReadRange — and checks each against its acknowledged version. A read
// that meets a lost unit is served again by restore.
func (c *client) read(u, n int64, unit bool) error {
	us := int64(c.s.UnitSize())
	b := c.buf[:n*us]
	var err error
	if unit {
		err = c.s.ReadUnit(u, b)
	} else {
		err = c.s.ReadRange(u, b)
	}
	if errors.Is(err, ErrUnrecoverable) {
		return c.restore(u, n)
	}
	if err != nil {
		return fmt.Errorf("read [%d, %d): %w", u, u+n, err)
	}
	for i := int64(0); i < n; i++ {
		if v := c.vers[u+i-c.lo]; !patternMatches(b[i*us:(i+1)*us], u+i, v) {
			return fmt.Errorf("unit %d does not match acknowledged version %d", u+i, v)
		}
	}
	return nil
}

// restore reads units [u, u+n) one by one and checks each against its
// acknowledged version, as read does; a unit that reads ErrUnrecoverable
// is written back at that version from the ledger, recorded in restored,
// and read again — a few times over, since a latent error beside it may
// lose it again before the read.
func (c *client) restore(u, n int64) error {
	b := c.buf[:c.s.UnitSize()]
	for i := u; i < u+n; i++ {
		v := c.vers[i-c.lo]
		err := c.s.ReadUnit(i, b)
		for try := 0; try < 10 && errors.Is(err, ErrUnrecoverable); try++ {
			fill(b, i, v)
			if err := c.s.WriteUnit(i, b); err != nil {
				return fmt.Errorf("restore of unit %d: %w", i, err)
			}
			c.restored[i] = true
			err = c.s.ReadUnit(i, b)
		}
		if err != nil {
			return fmt.Errorf("read %d: %w", i, err)
		}
		if !patternMatches(b, i, v) {
			return fmt.Errorf("unit %d does not match acknowledged version %d", i, v)
		}
	}
	return nil
}

// The traffic a row's clients issue, one op a call. unitOps: one unit, a
// write or a read, even odds.
func unitOps(c *client) error {
	u := c.lo + c.rng.Int63n(c.hi-c.lo)
	if c.rng.Intn(2) == 0 {
		return c.write(u, 1, true)
	}
	return c.read(u, 1, true)
}

// mixedOps: 50 % unit writes, 35 % unit reads, 15 % range ops of 2 to 4
// units inside the owned range, half of them reads.
func mixedOps(c *client) error {
	u := c.lo + c.rng.Int63n(c.hi-c.lo)
	switch p := c.rng.Intn(100); {
	case p < 50:
		return c.write(u, 1, true)
	case p < 85:
		return c.read(u, 1, true)
	}
	n := 2 + c.rng.Int63n(3)
	u = min(u, c.hi-n)
	if c.rng.Intn(2) == 0 {
		return c.read(u, n, false)
	}
	return c.write(u, n, false)
}

// spanOps rewrites the whole owned range as one range write — whole
// stripes in the middle, partial ones at the ends — and reads it back as
// one range read.
func spanOps(c *client) error {
	if err := c.write(c.lo, c.hi-c.lo, false); err != nil {
		return err
	}
	return c.read(c.lo, c.hi-c.lo, false)
}

// lifecycleRow is one walk of TestLifecycle.
type lifecycleRow struct {
	name    string
	m       int // parity count; the array is codeLayout(m), 64 units of 512 bytes a disk
	workers int
	op      func(*client) error
	victims []int // failed in this order, rebuilt in this order
	// healthyOps and windowOps are the client ops the healthy window, and
	// each degraded window and the healed one, wait for.
	healthyOps, windowOps int64
	cfg                   Config // IOWorkers, RebuildWorkers, RebuildThrottle, Retries
	overlap               bool   // every batch fanned out (forceOverlap)
	faults                bool   // chaos backends
}

// TestLifecycle runs the lifecycle suite (above) for each row:
//   - clean: fault-free backends, unit reads and writes; under P one disk
//     fails and the sweep is throttled so the rebuild overlaps the clients;
//     under P+Q two disks fail, every batch fanned out;
//   - range/P: range writes and read-backs of each client's whole range,
//     fanned-out stripe jobs and a sharded, throttled rebuild;
//   - chaos: the full fault mix, unit and range ops, fanned out, retries
//     on, replacements that inject faults too (seeded seed+100+i), one
//     failure under P and two under P+Q (the saturated code, where every
//     read touching both victims is a two-erasure decode).
//
// Each degraded window waits until reads were reconstructed on the fly and
// writes folded into parity; the run ends with quiesce, Scrub (which on
// fault-free backends must repair nothing), CheckParity, Sync and the
// byte-for-byte read-back of every unit. The clients and the disks' faults
// are seeded from one seed, which is printed; CHAOS_SEED=<n> replays it.
func TestLifecycle(t *testing.T) {
	for _, row := range []lifecycleRow{
		{name: "clean/P", m: 1, workers: 12, op: unitOps, victims: []int{2},
			healthyOps: 400, windowOps: 200,
			cfg: Config{RebuildThrottle: 200 * time.Microsecond}},
		{name: "clean/P+Q", m: 2, workers: 12, op: unitOps, victims: []int{1, 4},
			healthyOps: 2000, windowOps: 1000,
			cfg: Config{IOWorkers: 8, RebuildWorkers: 4}, overlap: true},
		{name: "range/P", m: 1, workers: 8, op: spanOps, victims: []int{5},
			healthyOps: 20, windowOps: 20,
			cfg:     Config{IOWorkers: 8, RebuildWorkers: 4, RebuildThrottle: 100 * time.Microsecond},
			overlap: true},
		{name: "chaos/P", m: 1, workers: 12, op: mixedOps, victims: []int{3},
			healthyOps: 4000, windowOps: 1000,
			cfg: Config{Retries: 6, IOWorkers: 8, RebuildWorkers: 4}, overlap: true, faults: true},
		{name: "chaos/P+Q", m: 2, workers: 12, op: mixedOps, victims: []int{3, 0},
			healthyOps: 4000, windowOps: 1000,
			cfg: Config{Retries: 6, IOWorkers: 8, RebuildWorkers: 4}, overlap: true, faults: true},
	} {
		t.Run(row.name, func(t *testing.T) { runLifecycle(t, row) })
	}
}

func runLifecycle(t *testing.T, row lifecycleRow) {
	if row.overlap {
		forceOverlap(t)
	}
	seed := chaosSeed(t)
	recordChaosSeed(t, seed)
	cfg := row.cfg
	cfg.Layout = codeLayout(t, row.m)
	var (
		s   *Store
		fds []*FaultDisk
	)
	replacement := func(i int) Disk { return NewMemDisk(s.unitsPerDisk, s.UnitSize()) }
	if row.faults {
		setRetryBackoff(t, 100*time.Microsecond)
		s, fds = faultStore(t, 7, cfg.Layout.G(), 64, 512, func(disk int) FaultConfig {
			fc := chaosRates
			fc.Seed = seed + int64(disk)
			return fc
		}, cfg)
		replacement = func(i int) Disk {
			fd := NewFaultDisk(NewMemDisk(s.unitsPerDisk, s.UnitSize()),
				FaultConfig{Seed: seed + 100 + int64(i), TransientRate: 0.02, TornWriteRate: 0.015})
			fds[row.victims[i]] = fd
			return fd
		}
	} else {
		cfg.UnitsPerDisk, cfg.UnitSize = 64, 512
		s = openStore(t, cfg)
	}

	per := s.DataUnits() / int64(row.workers)
	if per < 4 {
		t.Fatalf("only %d units per worker; geometry too small", per)
	}
	var (
		ops  atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	// Cleanups run last first: the clients stop before the store closes.
	t.Cleanup(func() { stop.Store(true); wg.Wait() })
	// The client streams the chaos rows have always drawn, so an old
	// CHAOS_SEED replays them too.
	mul := [...]int64{1: 31, 2: 37}[row.m]
	clients := make([]*client, row.workers)
	for w := range clients {
		lo := int64(w) * per
		hi := lo + per
		if w == row.workers-1 {
			hi = s.DataUnits()
		}
		c := &client{s: s, lo: lo, hi: hi, vers: make([]uint64, hi-lo),
			rng: rand.New(rand.NewSource(seed*mul + int64(w))),
			buf: make([]byte, (hi-lo)*int64(s.UnitSize())), restored: map[int64]bool{}}
		clients[w] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Settle every owned unit at version 1, so every read has a
			// known pattern to check against.
			for u := lo; u < hi; u++ {
				if err := c.write(u, 1, true); err != nil {
					t.Errorf("client %d: settle: %v", w, err)
					return
				}
			}
			for !stop.Load() {
				if err := row.op(c); err != nil {
					t.Errorf("client %d: %v", w, err)
					return
				}
				ops.Add(1)
			}
		}()
	}

	// window waits until the clients have completed n more ops and done
	// holds; it fails the test at once when a client has, or after two
	// minutes.
	window := func(what string, n int64, done func(Stats) bool) {
		t.Helper()
		target := ops.Load() + n
		deadline := time.Now().Add(2 * time.Minute)
		for ops.Load() < target || !done(s.Stats()) {
			if t.Failed() {
				t.FailNow()
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (%d/%d ops, %+v)", what, ops.Load(), target, s.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}

	window("healthy traffic", row.healthyOps, func(st Stats) bool { return st.Reads > 200 && st.Writes > 200 })
	for i, d := range row.victims {
		base := s.Stats()
		if err := s.Fail(d); err != nil {
			t.Fatalf("Fail(%d): %v", d, err)
		}
		window(fmt.Sprintf("degraded traffic after failure %d", i+1), row.windowOps, func(st Stats) bool {
			return st.DegradedReads >= base.DegradedReads+20 && st.FoldedWrites > base.FoldedWrites
		})
	}
	rebuildEach(t, s, len(row.victims), replacement)
	base := s.Stats()
	window("healed traffic", row.windowOps, func(st Stats) bool { return st.Reads > base.Reads+100 })
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for _, fd := range fds {
		fd.Quiesce()
	}
	res, err := s.Scrub()
	if err != nil {
		t.Fatalf("final scrub: %v", err)
	}
	if !row.faults && res.UnitRepairs+res.ParityRewrites+res.Skipped != 0 {
		t.Fatalf("final scrub of fault-free backends: %+v, want nothing repaired or skipped", res)
	}
	if err := s.CheckParity(); err != nil {
		t.Fatalf("CheckParity after the run: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync after the run: %v", err)
	}
	restored := 0
	for _, c := range clients {
		if err := c.restore(c.lo, c.hi-c.lo); err != nil {
			t.Fatalf("final read-back: %v", err)
		}
		restored += len(c.restored)
	}

	st := s.Stats()
	t.Logf("ops=%d retries=%d healed=%d media=%d checksum=%d degradedReads=%d folded=%d rebuilt=%d scrubRepairs=%d lost=%d restored=%d",
		ops.Load(), st.Retries, st.HealedUnits, st.MediaErrors, st.ChecksumErrors,
		st.DegradedReads, st.FoldedWrites, st.RebuiltUnits, st.ScrubUnitRepairs, st.LostUnits, restored)
	if int64(restored) > st.LostUnits {
		t.Errorf("clients restored %d units, more than the %d the store booked lost", restored, st.LostUnits)
	}
	if row.faults && st.Retries == 0 {
		t.Error("run exercised no retries")
	}
	if st.DegradedReads == 0 || st.Rebuilds != int64(len(row.victims)) || st.RebuiltUnits == 0 {
		t.Errorf("stats do not show the scenario ran (want %d rebuilds): %+v", len(row.victims), st)
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
