package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"declust/internal/core"
	"declust/internal/gf256"
	"declust/internal/layout"
)

// testPQLayout selects a P+Q dual-parity layout the way the facade does.
func testPQLayout(t testing.TB, c, g int) layout.Layout {
	t.Helper()
	m, err := core.NewPQMapping(c, g, 0)
	if err != nil {
		t.Fatalf("NewPQMapping(%d, %d): %v", c, g, err)
	}
	return m.Layout
}

func newTestPQStore(t testing.TB, c, g int, unitsPerDisk int64, unitSize int) *Store {
	t.Helper()
	s, err := New(Config{
		Layout:       testPQLayout(t, c, g),
		UnitsPerDisk: unitsPerDisk,
		UnitSize:     unitSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPQRoundTripAndParity(t *testing.T) {
	s := newTestPQStore(t, 7, 4, 64, 512)
	if got := s.Parities(); got != 2 {
		t.Fatalf("Parities() = %d, want 2", got)
	}
	fillAll(t, s, 1)
	for n := int64(0); n < s.DataUnits(); n++ {
		verifyUnit(t, s, n, 1)
	}
	if err := s.CheckParity(); err != nil {
		t.Fatal(err)
	}
	// Overwrites take the six-access delta RMW; both equations must follow.
	buf := make([]byte, s.UnitSize())
	for n := int64(0); n < s.DataUnits(); n += 2 {
		fill(buf, n, 2)
		if err := s.WriteUnit(n, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CheckParity(); err != nil {
		t.Fatal(err)
	}
	// Range writes cover the large-write (fresh P and Q) path.
	span := make([]byte, int(s.DataUnits())*s.UnitSize())
	for n := int64(0); n < s.DataUnits(); n++ {
		fill(span[n*int64(s.UnitSize()):(n+1)*int64(s.UnitSize())], n, 3)
	}
	if err := s.WriteRange(0, span); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckParity(); err != nil {
		t.Fatal(err)
	}
	for n := int64(0); n < s.DataUnits(); n++ {
		verifyUnit(t, s, n, 3)
	}
}

// TestPQTwoErasureDecodeBranches drives each line of the decode matrix by
// choosing which disks to fail relative to stripe 0's layout. Under single
// parity: a lost data unit (through P) and a lost P (recomputed from
// data). Under P+Q, the three 2-erasure cases: erased P + a data unit
// (decode through Q), erased Q + a data unit (decode through P, recompute
// Q), and two data units (the Pxy/Qxy two-unknown solve). Every unit of
// the store must stay byte-exact through the degraded window, the writes,
// and every rebuild.
func TestPQTwoErasureDecodeBranches(t *testing.T) {
	lay1 := testLayout(t, 7, 4)
	lay := testPQLayout(t, 7, 4)
	pDisk := layout.ParityLocOf(lay, 0, 0).Disk
	qDisk := layout.ParityLocOf(lay, 0, 1).Disk
	d0 := lay.Unit(0, layout.DataPos(lay, 0, 0)).Disk
	d1 := lay.Unit(0, layout.DataPos(lay, 0, 1)).Disk
	cases := []struct {
		name  string
		lay   layout.Layout
		fails []int
	}{
		{"P/lost-data", lay1, []int{lay1.Unit(0, layout.DataPos(lay1, 0, 0)).Disk}},
		{"P/lost-P", lay1, []int{layout.ParityLoc(lay1, 0).Disk}},
		{"erased-P", lay, []int{pDisk, d0}},
		{"erased-Q", lay, []int{qDisk, d0}},
		{"two-data", lay, []int{d0, d1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(Config{Layout: tc.lay, UnitsPerDisk: 64, UnitSize: 512})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			fillAll(t, s, 1)
			for _, d := range tc.fails {
				if err := s.Fail(d); err != nil {
					t.Fatal(err)
				}
			}
			if got := s.FailedDisks(); len(got) != len(tc.fails) {
				t.Fatalf("FailedDisks() = %v, want %d entries", got, len(tc.fails))
			}
			// Every unit must decode with the code's budget spent.
			for n := int64(0); n < s.DataUnits(); n++ {
				verifyUnit(t, s, n, 1)
			}
			if s.Stats().DegradedReads == 0 {
				t.Fatal("no reads were served by reconstruction")
			}
			// Writes while degraded: folds, lost parity, delta RMW.
			buf := make([]byte, s.UnitSize())
			for n := int64(0); n < s.DataUnits(); n += 3 {
				fill(buf, n, 2)
				if err := s.WriteUnit(n, buf); err != nil {
					t.Fatal(err)
				}
			}
			for left := len(tc.fails) - 1; left >= 0; left-- {
				if err := s.Rebuild(NewMemDisk(s.unitsPerDisk, s.UnitSize())); err != nil {
					t.Fatal(err)
				}
				want := Healthy
				if left > 0 {
					want = Degraded
				}
				if got := s.Mode(); got != want {
					t.Fatalf("mode %v after rebuild, want %v", got, want)
				}
			}
			for n := int64(0); n < s.DataUnits(); n++ {
				v := uint64(1)
				if n%3 == 0 {
					v = 2
				}
				verifyUnit(t, s, n, v)
			}
			if err := s.CheckParity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPQEveryTwoDisksRecover is the double-failure property over ALL disk
// pairs: fail d1, write through the window, fail d2, write again, verify
// everything byte-for-byte, rebuild both, verify again. Single parity
// proves this for every single disk; P+Q must prove it for every pair.
func TestPQEveryTwoDisksRecover(t *testing.T) {
	lay := testPQLayout(t, 7, 4)
	for d1 := 0; d1 < lay.Disks(); d1++ {
		for d2 := d1 + 1; d2 < lay.Disks(); d2++ {
			s, err := New(Config{Layout: lay, UnitsPerDisk: 32, UnitSize: 512})
			if err != nil {
				t.Fatal(err)
			}
			fillAll(t, s, 1)
			if err := s.Fail(d1); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, s.UnitSize())
			for n := int64(0); n < s.DataUnits(); n += 3 {
				fill(buf, n, 2)
				if err := s.WriteUnit(n, buf); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Fail(d2); err != nil {
				t.Fatal(err)
			}
			for n := int64(1); n < s.DataUnits(); n += 3 {
				fill(buf, n, 3)
				if err := s.WriteUnit(n, buf); err != nil {
					t.Fatal(err)
				}
			}
			version := func(n int64) uint64 {
				switch n % 3 {
				case 0:
					return 2
				case 1:
					return 3
				}
				return 1
			}
			for n := int64(0); n < s.DataUnits(); n++ {
				verifyUnit(t, s, n, version(n))
			}
			if err := s.Rebuild(NewMemDisk(s.unitsPerDisk, s.UnitSize())); err != nil {
				t.Fatalf("pair (%d,%d) first rebuild: %v", d1, d2, err)
			}
			if err := s.Rebuild(NewMemDisk(s.unitsPerDisk, s.UnitSize())); err != nil {
				t.Fatalf("pair (%d,%d) second rebuild: %v", d1, d2, err)
			}
			if got := s.Mode(); got != Healthy {
				t.Fatalf("pair (%d,%d): mode %v after both rebuilds", d1, d2, got)
			}
			for n := int64(0); n < s.DataUnits(); n++ {
				verifyUnit(t, s, n, version(n))
			}
			if err := s.CheckParity(); err != nil {
				t.Fatalf("pair (%d,%d): %v", d1, d2, err)
			}
			s.Close()
		}
	}
}

func TestPQThirdFailureRejected(t *testing.T) {
	s := newTestPQStore(t, 7, 4, 32, 512)
	fillAll(t, s, 1)
	if err := s.Fail(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Fail(0); err == nil {
		t.Fatal("re-failing the same disk succeeded")
	}
	if err := s.Fail(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Fail(2); err == nil {
		t.Fatal("third concurrent failure accepted")
	}
}

// TestPQScrubHealsTwoDamagedUnits rots two units of one stripe — beyond
// single parity, within P+Q — and expects the scrub to reconstruct and
// rewrite both. A third rotted unit must report ErrUnrecoverable.
func TestPQScrubHealsTwoDamagedUnits(t *testing.T) {
	s := newTestPQStore(t, 7, 4, 64, 512)
	fillAll(t, s, 4)
	st := s.st.Load()
	for j := 0; j < 2; j++ {
		u := s.lay.Unit(0, j)
		if err := st.disks[u.Disk].WriteUnit(u.Offset, bytes.Repeat([]byte{0xEE}, s.physSize)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Scrub()
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if res.UnitRepairs != 1 {
		t.Fatalf("UnitRepairs = %d stripes, want 1", res.UnitRepairs)
	}
	if healed := s.Stats().HealedUnits; healed != 2 {
		t.Fatalf("HealedUnits = %d, want 2", healed)
	}
	if err := s.CheckParity(); err != nil {
		t.Fatalf("CheckParity after scrub: %v", err)
	}
	for n := int64(0); n < s.DataUnits(); n++ {
		verifyUnit(t, s, n, 4)
	}

	// Three rotted units in one stripe exceed even P+Q.
	st = s.st.Load()
	for j := 0; j < 3; j++ {
		u := s.lay.Unit(1, j)
		if err := st.disks[u.Disk].WriteUnit(u.Offset, bytes.Repeat([]byte{0xBD}, s.physSize)); err != nil {
			t.Fatal(err)
		}
	}
	res, err = s.Scrub()
	if err == nil || !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("Scrub returned %v, want ErrUnrecoverable", err)
	}
	if res.Unrecoverable != 1 {
		t.Fatalf("Unrecoverable = %d, want 1", res.Unrecoverable)
	}
}

// TestPQSelfHealingDegradedRead damages a survivor while one disk is
// already lost: a degraded read then needs both remaining codes — the
// damaged unit is absorbed as a second erasure, healed in place, and the
// lost unit's contents still come back byte-exact.
func TestPQSelfHealingDegradedRead(t *testing.T) {
	s := newTestPQStore(t, 7, 4, 64, 512)
	fillAll(t, s, 1)
	// Find a data unit, fail its disk, then rot one sibling of its stripe.
	n := int64(5)
	loc := s.mapper.Loc(n)
	stripe, _ := s.lay.Locate(loc)
	if err := s.Fail(loc.Disk); err != nil {
		t.Fatal(err)
	}
	st := s.st.Load()
	var sib layout.Loc
	for j := 0; j < s.lay.G(); j++ {
		u := s.lay.Unit(stripe, j)
		if u.Disk != loc.Disk {
			sib = u
			break
		}
	}
	if err := st.disks[sib.Disk].WriteUnit(sib.Offset, bytes.Repeat([]byte{0xAA}, s.physSize)); err != nil {
		t.Fatal(err)
	}
	verifyUnit(t, s, n, 1)
	if s.Stats().HealedUnits == 0 {
		t.Fatal("damaged survivor was not healed in place")
	}
	// The whole store must still verify.
	for u := int64(0); u < s.DataUnits(); u++ {
		verifyUnit(t, s, u, 1)
	}
}

// TestPQConcurrentDoubleFailureRebuild is the tentpole acceptance run:
// concurrent clients read and write while the main goroutine fails two
// disks mid-traffic, holds a doubly-degraded window, then rebuilds both.
// Under -race this doubles as the engine's publication-safety proof; at
// the end every acknowledged write reads back byte-for-byte and both
// parity equations balance.
func TestPQConcurrentDoubleFailureRebuild(t *testing.T) {
	forceOverlap(t)
	lay := testPQLayout(t, 7, 4)
	s, err := New(Config{
		Layout: lay, UnitsPerDisk: 64, UnitSize: 512,
		IOWorkers: 8, RebuildWorkers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const workers = 12
	per := s.DataUnits() / workers
	if per < 2 {
		t.Fatalf("only %d units per worker", per)
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
			rng := rand.New(rand.NewSource(int64(w) + 1))
			buf := make([]byte, s.UnitSize())
			for u := lo; u < hi; u++ {
				fill(buf, u, 1)
				if err := s.WriteUnit(u, buf); err != nil {
					t.Errorf("worker %d: settle WriteUnit(%d): %v", w, u, err)
					return
				}
				vers[u-lo] = 1
			}
			for !stop.Load() {
				u := lo + rng.Int63n(hi-lo)
				if rng.Intn(2) == 0 {
					v := vers[u-lo] + 1
					fill(buf, u, v)
					if err := s.WriteUnit(u, buf); err != nil {
						t.Errorf("worker %d: WriteUnit(%d): %v", w, u, err)
						return
					}
					vers[u-lo] = v
				} else {
					if err := s.ReadUnit(u, buf); err != nil {
						t.Errorf("worker %d: ReadUnit(%d): %v", w, u, err)
						return
					}
					if !patternMatches(buf, u, vers[u-lo]) {
						t.Errorf("worker %d: unit %d stale (want version %d)", w, u, vers[u-lo])
						return
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
			time.Sleep(2 * time.Millisecond)
		}
	}

	waitOps(2000, "healthy traffic")
	if err := s.Fail(1); err != nil {
		t.Fatalf("first Fail: %v", err)
	}
	waitOps(ops.Load()+1000, "single-degraded traffic")
	if err := s.Fail(4); err != nil {
		t.Fatalf("second Fail: %v", err)
	}
	waitOps(ops.Load()+1000, "double-degraded traffic")
	if !t.Failed() {
		if err := s.Rebuild(NewMemDisk(s.unitsPerDisk, s.UnitSize())); err != nil {
			t.Fatalf("first Rebuild: %v", err)
		}
		if err := s.Rebuild(NewMemDisk(s.unitsPerDisk, s.UnitSize())); err != nil {
			t.Fatalf("second Rebuild: %v", err)
		}
	}
	waitOps(ops.Load()+1000, "post-rebuild traffic")
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if got := s.Mode(); got != Healthy {
		t.Fatalf("mode %v after both rebuilds, want healthy", got)
	}
	if err := s.CheckParity(); err != nil {
		t.Fatalf("CheckParity after double failure: %v", err)
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
	t.Logf("pq double failure: ops=%d degradedReads=%d rebuilt=%d foldedWrites=%d",
		ops.Load(), st.DegradedReads, st.RebuiltUnits, st.FoldedWrites)
	if st.DegradedReads == 0 {
		t.Error("run exercised no degraded reads")
	}
	if st.Rebuilds != 2 {
		t.Errorf("Rebuilds = %d, want 2", st.Rebuilds)
	}
}

// TestOnDiskImageMatchesReference pins the bytes on disk, for both codes,
// against an image the test computes itself: fill every unit, overwrite
// spans of 4, 3, 2 and 1 units from the start of a stripe while healthy
// (under single parity at G = 5 a large write, two reconstruct-writes and a
// delta) and compare, then fail as many disks as the code has parities,
// overwrite a sample while degraded (unit writes and a range spanning whole
// and partial stripes), rebuild each failure, and compare every unit of
// every backend with the reference — data units from the logical contents,
// P as their byte-at-a-time XOR, Q as the byte-at-a-time Σ g^d·D — and
// check every trailer. Whatever path the engine took to each unit (RMW,
// fold, large write, reconstruct-write, decode, rebuild), the array must
// end byte-identical to the definition of the code. It runs at unit sizes
// 64 and 40: 40 bytes is one 32-byte step of a vector kernel and an 8-byte
// tail.
func TestOnDiskImageMatchesReference(t *testing.T) { onDiskImageMatchesReference(t, New) }

// onDiskImageMatchesReference is the test over stores opened by open: New,
// or newPoisoned (poison_test.go).
func onDiskImageMatchesReference(t *testing.T, open func(Config) (*Store, error)) {
	for _, tc := range []struct {
		name        string
		lay         layout.Layout
		fails       []int
		reconstruct int64 // reconstruct-writes among the healthy spans
	}{
		{"P", testLayout(t, 7, 5), []int{2}, 2},
		{"P+Q", testPQLayout(t, 7, 4), []int{2, 5}, 0}, // two data units a stripe
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, us := range []int{64, 40} {
				t.Run(fmt.Sprintf("unit=%d", us), func(t *testing.T) {
					s, err := open(Config{Layout: tc.lay, UnitsPerDisk: 64, UnitSize: us})
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					if len(tc.fails) != s.Parities() {
						t.Fatalf("case fails %d disks, code has %d parities", len(tc.fails), s.Parities())
					}
					version := make([]uint64, s.DataUnits())
					write := func(n int64, v uint64) {
						buf := make([]byte, us)
						fill(buf, n, v)
						if err := s.WriteUnit(n, buf); err != nil {
							t.Fatal(err)
						}
						version[n] = v
					}
					writeRange := func(start, units int64, v uint64) {
						span := make([]byte, units*int64(us))
						for i := int64(0); i < units; i++ {
							fill(span[i*int64(us):(i+1)*int64(us)], start+i, v)
							version[start+i] = v
						}
						if err := s.WriteRange(start, span); err != nil {
							t.Fatal(err)
						}
					}
					for n := range version {
						write(int64(n), 1)
					}
					per := s.dataPerStripe
					for i, units := range []int64{4, 3, 2, 1} {
						writeRange(int64(i)*per, units, 4)
					}
					if got := s.Stats().ReconstructWrites; got != tc.reconstruct {
						t.Fatalf("healthy spans took %d reconstruct-writes, want %d", got, tc.reconstruct)
					}
					compareWithReference(t, s, version, nil)
					for _, d := range tc.fails {
						if err := s.Fail(d); err != nil {
							t.Fatal(err)
						}
					}
					for n := int64(0); n < s.DataUnits(); n += 3 {
						write(n, 2)
					}
					writeRange(5*per-1, 2*per+1, 3) // a stripe's tail, a whole stripe, most of the next
					for range tc.fails {
						if err := s.Rebuild(NewMemDisk(s.unitsPerDisk, us)); err != nil {
							t.Fatal(err)
						}
					}
					compareWithReference(t, s, version, nil)
				})
			}
		})
	}
}

// compareWithReference checks every unit on s's backends against the
// definition of the code, computed here a byte at a time: a data unit holds
// fill(n, version[n]), P their XOR, Q Σ g^d·D, and every trailer verifies.
// Units of a failed disk are skipped, and a unit listed in mayRot may still
// fail its checksum — but if it verifies, its bytes must be right.
func compareWithReference(t *testing.T, s *Store, version []uint64, mayRot []layout.Loc) {
	t.Helper()
	us := s.unitSize
	logical := map[layout.Loc]int64{}
	for n := int64(0); n < s.DataUnits(); n++ {
		logical[s.mapper.Loc(n)] = n
	}
	st := s.st.Load()
	phys := make([]byte, s.physSize)
	for stripe := int64(0); stripe < s.Stripes(); stripe++ {
		want := make([][]byte, s.lay.G())
		p, q := make([]byte, us), make([]byte, us)
		for j := range want {
			if layout.IsParityPos(s.lay, stripe, j) {
				continue
			}
			n := logical[s.lay.Unit(stripe, j)]
			want[j] = make([]byte, us)
			fill(want[j], n, version[n])
			c := gf256.Exp(layout.DataOrdinal(s.lay, stripe, j))
			for i, b := range want[j] {
				p[i] ^= b
				q[i] ^= gf256.Mul(c, b)
			}
		}
		want[layout.ParityPosOf(s.lay, stripe, 0)] = p
		if s.Parities() == 2 {
			want[layout.ParityPosOf(s.lay, stripe, 1)] = q
		}
		for j, w := range want {
			u := s.lay.Unit(stripe, j)
			if st.slot(u.Disk) != nil {
				continue
			}
			if err := st.disks[u.Disk].ReadUnit(u.Offset, phys); err != nil {
				t.Fatal(err)
			}
			if !verifyTrailer(phys, us, u.Offset) {
				if indexLoc(mayRot, u) >= 0 {
					continue
				}
				t.Fatalf("stripe %d position %d (%v): trailer does not verify", stripe, j, u)
			}
			if !bytes.Equal(phys[:us], w) {
				t.Fatalf("stripe %d position %d (%v): bytes on disk differ from the reference", stripe, j, u)
			}
		}
	}
}
