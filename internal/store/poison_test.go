package store

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"declust/internal/core"
	"declust/internal/gf256"
	"declust/internal/layout"
)

// No pooled buffer is assumed clean: a parity sum is started by its first
// term or cleared because it has none (sums, io.go). The tests in this file
// run the comparisons that define correct bytes with the pool made as dirty
// as it can be, so a sum that is neither stored into nor cleared before it
// is used turns into wrong bytes instead of passing on a fresh, zeroed
// allocation.

// poisonPool makes every buffer s's pool allocates arrive full of 0xA5, and
// seeds the pool with a few so the very first Gets see them too. A recycled
// buffer holds its last user's bytes, which is dirt of its own.
func poisonPool(s *Store) {
	poisoned := func() any {
		b := bytes.Repeat([]byte{0xA5}, s.physSize)
		return &b
	}
	s.bufs.New = poisoned
	for i := 0; i < 2*s.lay.G(); i++ {
		s.bufs.Put(poisoned())
	}
}

// newPoisoned is New with the store's pool poisoned before its first
// operation.
func newPoisoned(cfg Config) (*Store, error) {
	s, err := New(cfg)
	if err == nil {
		poisonPool(s)
	}
	return s, err
}

// TestPoisonedPool reruns, over a poisoned pool, the two comparisons that
// pin the engine's bytes — the on-disk image against the byte-at-a-time
// reference, and the serial store against the parallel ones with every
// batch fanned out — and a lifecycle of its own whose every read is checked
// against the contents written: fill, fail as many disks as the code
// corrects, read everything degraded, overwrite a third (unit writes that
// fold, a range with a whole stripe in it), rebuild, then a scrub that must
// find nothing to repair, CheckParity and the reference image.
func TestPoisonedPool(t *testing.T) {
	t.Run("OnDiskImageMatchesReference", func(t *testing.T) { onDiskImageMatchesReference(t, newPoisoned) })
	t.Run("ParallelMatchesSerial", func(t *testing.T) { parallelMatchesSerial(t, newPoisoned) })
	for _, tc := range []struct {
		name  string
		lay   layout.Layout
		fails []int
	}{
		{"Lifecycle/P", testLayout(t, 7, 4), []int{3}},
		{"Lifecycle/P+Q", testPQLayout(t, 7, 4), []int{3, 6}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := newPoisoned(Config{Layout: tc.lay, UnitsPerDisk: 48, UnitSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			us := s.UnitSize()
			version := make([]uint64, s.DataUnits())
			fillAll(t, s, 1)
			for n := range version {
				version[n] = 1
			}
			for _, d := range tc.fails {
				if err := s.Fail(d); err != nil {
					t.Fatal(err)
				}
			}
			verifyAll := func() {
				t.Helper()
				for n := range version {
					verifyUnit(t, s, int64(n), version[n])
				}
			}
			verifyAll()
			buf := make([]byte, us)
			for n := int64(0); n < s.DataUnits(); n += 3 {
				fill(buf, n, 2)
				if err := s.WriteUnit(n, buf); err != nil {
					t.Fatal(err)
				}
				version[n] = 2
			}
			per := s.dataPerStripe
			span := make([]byte, int(2*per+1)*us)
			for i := int64(0); i < 2*per+1; i++ {
				n := 7*per - 1 + i
				fill(span[int(i)*us:int(i+1)*us], n, 3)
				version[n] = 3
			}
			if err := s.WriteRange(7*per-1, span); err != nil {
				t.Fatal(err)
			}
			verifyAll()
			for range tc.fails {
				if err := s.Rebuild(NewMemDisk(s.unitsPerDisk, us)); err != nil {
					t.Fatal(err)
				}
			}
			if res, err := s.Scrub(); err != nil || res.UnitRepairs+res.ParityRewrites+res.Skipped != 0 {
				t.Fatalf("scrub after the rebuilds: %+v, %v", res, err)
			}
			if err := s.CheckParity(); err != nil {
				t.Fatal(err)
			}
			verifyAll()
			compareWithReference(t, s, version, nil)
		})
	}
}

// TestDeltaFoldsInAnyOrder: a delta's first round — the live stored
// parities, then each written unit's old contents, its term carrying the
// new — folds in list order, but its sums are linear and must not depend on
// it: in any order a written unit's difference old ⊕ new may be the term
// that starts a sum (a copy into P, a multiply into Q) and the parities
// accumulate after it. Each case commits one unit over a poisoned pool and
// holds the bytes and trailers on disk to the reference, which fails if the
// new contents are never folded or folded twice; then it takes the first
// round the commit gathered from its scratch, folds it again in every order
// into sums that start at 0xA5 — nothing folds after it — and compares with
// the byte-at-a-time parity of the new stripe, and P's crc32c as the folds
// derive it with the one computed over that parity. Cases: P+Q writing data
// ordinal 0 (coefficient 1) and 1, P+Q with P lost (the Q sum alone), and
// single parity.
func TestDeltaFoldsInAnyOrder(t *testing.T) {
	for _, tc := range []struct {
		name    string
		lay     layout.Layout
		ordinal int  // of the written unit; its Q coefficient is g^ordinal
		loseP   bool // fail the stripe's P disk before the write
	}{
		{"P+Q/ordinal=0", testPQLayout(t, 7, 4), 0, false},
		{"P+Q/ordinal=1", testPQLayout(t, 7, 4), 1, false},
		{"P+Q/P-lost", testPQLayout(t, 7, 4), 1, true},
		{"P", testLayout(t, 7, 4), 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := newPoisoned(Config{Layout: tc.lay, UnitsPerDisk: 24, UnitSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			const stripe = 2
			us := s.UnitSize()
			version := make([]uint64, s.DataUnits())
			fillAll(t, s, 1)
			for n := range version {
				version[n] = 1
			}
			var parities []layout.Loc // the live ones, P first
			for k := 0; k < s.Parities(); k++ {
				loc := layout.ParityLocOf(s.lay, stripe, k)
				if k == 0 && tc.loseP {
					if err := s.Fail(loc.Disk); err != nil {
						t.Fatal(err)
					}
					continue
				}
				parities = append(parities, loc)
			}

			// The stripe as it stands, straight off the disks.
			st := s.st.Load()
			old := map[layout.Loc][]byte{}
			for j := 0; j < s.lay.G(); j++ {
				u := s.lay.Unit(stripe, j)
				if st.lost(u) {
					continue
				}
				phys := make([]byte, s.physSize)
				if err := st.disk(u).ReadUnit(u.Offset, phys); err != nil {
					t.Fatal(err)
				}
				old[u] = phys[:us]
			}

			// The write, as writeStripeSpan issues it but on a scratch kept here.
			n := stripe*s.dataPerStripe + int64(tc.ordinal)
			u := layout.DataLoc(s.lay, n)
			data := make([]byte, us)
			fill(data, n, 2)
			version[n] = 2
			sc := newStripeScratch(s.lay.G(), s.Parities(), s.physSize)
			sc.pos, sc.locs, sc.datas = append(sc.pos, layout.DataPos(s.lay, stripe, tc.ordinal)), append(sc.locs, u), append(sc.datas, data)
			s.locks.lock(stripe)
			err = s.writeStripeLocked(stripe, sc)
			s.locks.unlock(stripe)
			if err != nil {
				t.Fatal(err)
			}
			compareWithReference(t, s, version, nil)

			// What the new stripe's parities must be, a byte at a time.
			wantP, wantQ := make([]byte, us), make([]byte, us)
			for d := 0; d < int(s.dataPerStripe); d++ {
				src := old[s.lay.Unit(stripe, layout.DataPos(s.lay, stripe, d))]
				if d == tc.ordinal {
					src = data
				}
				for i, b := range src {
					wantP[i] ^= b
					wantQ[i] ^= gf256.Mul(gf256.Exp(d), b)
				}
			}

			// The commit's first round and its written unit's term are still
			// in the scratch's backing arrays. Their sums went back to the
			// pool with the commit; point them at this test's.
			round := sc.rest[:len(parities)+1]
			for i, tm := range round {
				want := u
				if i < len(parities) {
					want = parities[i]
				}
				if tm.loc != want {
					t.Fatalf("first round reads %v at %d, want %v: the live parities first, then the old data", tm.loc, i, want)
				}
			}
			if w := round[len(parities)]; !bytes.Equal(w.new, data) || w.newSum != dataSum(data) {
				t.Fatal("the written unit's term does not carry its new contents and their crc32c")
			}
			var p, q []byte
			if !tc.loseP {
				p = make([]byte, us)
			}
			if s.Parities() == 2 {
				q = make([]byte, us)
			}
			ours := func(tm term) term {
				switch {
				case tm.p == nil:
				case s.Parities() == 2 && tm.loc == layout.ParityLocOf(s.lay, stripe, 1):
					tm.p = q
				default:
					tm.p = p
				}
				return tm
			}
			dirt := bytes.Repeat([]byte{0xA5}, us)
			for _, order := range permutations(len(round)) {
				copy(p, dirt)
				copy(q, dirt)
				sm := startSums(p, q)
				for _, i := range order {
					unit := bytes.Clone(old[round[i].loc]) // a written unit's fold turns it into old ⊕ new
					ours(round[i]).foldInto(&sm, unit, dataSum(unit))
				}
				if p != nil && !bytes.Equal(p, wantP) {
					t.Errorf("first round folded in order %v: P differs from the new stripe's", order)
				}
				if sum, ok := sm.pSum(s.zeroSum); p != nil && (!ok || sum != dataSum(wantP)) {
					t.Errorf("first round folded in order %v: P's derived crc32c is %08x (%v), want %08x", order, sum, ok, dataSum(wantP))
				}
				if q != nil && !bytes.Equal(q, wantQ) {
					t.Errorf("first round folded in order %v: Q differs from the new stripe's", order)
				}
			}
		})
	}
}

// TestDeltaWriteHealsFirstRound: a one-unit delta write whose first round
// meets damage — in the stored P or Q, each read in place into the buffer it
// is written back from, or in the written unit's old contents — heals that
// one unit and still leaves the reference image, every trailer included:
// the healed unit's crc32c is not known, so P is stamped by computing.
// Each case writes a nonzero bad image over one unit the write reads, at
// C = 7 with G = 3 (P) and G = 4 (P+Q), over a poisoned pool.
func TestDeltaWriteHealsFirstRound(t *testing.T) {
	for _, tc := range []struct {
		name string
		lay  layout.Layout
	}{{"P", testLayout(t, 7, 3)}, {"P+Q", testPQLayout(t, 7, 4)}} {
		m := tc.lay.Parities()
		for victim := 0; victim <= m; victim++ { // parity k < m, then the old data
			name := tc.name + "/" + [...]string{"P", "Q"}[min(victim, 1)]
			if victim == m {
				name = tc.name + "/old-data"
			}
			t.Run(name, func(t *testing.T) {
				s, err := newPoisoned(Config{Layout: tc.lay, UnitsPerDisk: 24, UnitSize: 64})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				version := make([]uint64, s.DataUnits())
				fillAll(t, s, 1)
				for n := range version {
					version[n] = 1
				}
				const stripe = 2
				n := stripe*s.dataPerStripe + 1 // data ordinal 1: a Q coefficient other than 1
				bad := layout.DataLoc(s.lay, n)
				if victim < m {
					bad = layout.ParityLocOf(s.lay, stripe, victim)
				}
				if err := s.st.Load().disks[bad.Disk].WriteUnit(bad.Offset, bytes.Repeat([]byte{0xBD}, s.physSize)); err != nil {
					t.Fatal(err)
				}
				healed := s.Stats().HealedUnits
				data := make([]byte, s.UnitSize())
				fill(data, n, 2)
				version[n] = 2
				if err := s.WriteUnit(n, data); err != nil {
					t.Fatal(err)
				}
				compareWithReference(t, s, version, nil)
				if got := s.Stats().HealedUnits - healed; got != 1 {
					t.Fatalf("the write healed %d units, want 1 (%v)", got, bad)
				}
			})
		}
	}
}

// permutations lists every order of 0, …, n−1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for _, rest := range permutations(n - 1) {
		for at := 0; at <= len(rest); at++ {
			order := append(append(append([]int{}, rest[:at]...), n-1), rest[at:]...)
			out = append(out, order)
		}
	}
	return out
}

// TestNarrowStripeErasures walks the stripes narrow enough that a parity sum
// can end a gather with no term at all — G ∈ {2, 3, 4}, single parity and
// P+Q — through every pattern of up to m unreadable units of one stripe,
// each unit either lost with its disk or damaged in place, and through every
// path that solves them: ReadUnit of the stripe's data units (degraded and
// self-healing reads), Rebuild of the failed disks (patterns with a lost
// unit), and resyncStripe (patterns with none). Under the poisoned pool,
// serial and with every batch fanned out, what each path returns and what
// it leaves on disk is held to the byte-at-a-time reference.
//
// The patterns include the mirror (G = 2: the P sum of a lost data unit is
// one copy), P-only and Q-only erasures, and the G = 3 P+Q stripe whose one
// data unit and P are both unreadable: then Q is the only unit read, nothing
// reaches the P sum, and P = D comes out right only if that sum reads zero.
func TestNarrowStripeErasures(t *testing.T) {
	forceOverlap(t)
	const c, units, us = 5, 12, 64
	for _, code := range []struct{ g, m int }{{2, 1}, {3, 1}, {4, 1}, {3, 2}, {4, 2}} {
		mapping, err := core.NewMapping(c, code.g, 0)
		if code.m == 2 {
			mapping, err = core.NewPQMapping(c, code.g, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		lay := mapping.Layout
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("G=%d/m=%d/IOWorkers=%d", code.g, code.m, workers), func(t *testing.T) {
				cfg := Config{Layout: lay, UnitsPerDisk: units, UnitSize: us, IOWorkers: workers}
				for _, pat := range erasurePatterns(code.g, code.m) {
					narrowStripeCase(t, cfg, pat, "ReadUnit")
					if strings.Contains(pat.kinds, "L") {
						narrowStripeCase(t, cfg, pat, "Rebuild")
					} else {
						narrowStripeCase(t, cfg, pat, "resyncStripe")
					}
				}
			})
		}
	}
}

// erasurePattern is a set of positions of stripe 0 and, position for
// position, whether each is lost with its disk ('L') or damaged ('D').
type erasurePattern struct {
	pos   []int
	kinds string
}

// erasurePatterns lists every pattern of one to m of g positions.
func erasurePatterns(g, m int) []erasurePattern {
	var out []erasurePattern
	for a := 0; a < g; a++ {
		for _, k := range []string{"L", "D"} {
			out = append(out, erasurePattern{[]int{a}, k})
		}
		for b := a + 1; b < g && m == 2; b++ {
			for _, k := range []string{"LL", "LD", "DL", "DD"} {
				out = append(out, erasurePattern{[]int{a, b}, k})
			}
		}
	}
	return out
}

// narrowStripeCase erases pat from stripe 0 of a fresh, filled, poisoned
// store and drives one recovery path over it.
func narrowStripeCase(t *testing.T, cfg Config, pat erasurePattern, path string) {
	t.Helper()
	s, err := newPoisoned(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// The helpers below fail with the unit; say which case it was.
	defer func() {
		if t.Failed() {
			t.Logf("case: %s, positions %v of stripe 0 (P at %d, Q at %d) erased as %s (L lost, D damaged)",
				path, pat.pos, layout.ParityPositions(s.lay, 0)[0], layout.ParityPositions(s.lay, 0)[1], pat.kinds)
		}
	}()
	version := make([]uint64, s.DataUnits())
	buf := make([]byte, s.UnitSize())
	for n := range version {
		version[n] = 1 + uint64(n%3)
		fill(buf, int64(n), version[n])
		if err := s.WriteUnit(int64(n), buf); err != nil {
			t.Fatal(err)
		}
	}
	var damaged []layout.Loc
	for i, j := range pat.pos {
		if pat.kinds[i] == 'D' {
			damaged = append(damaged, s.lay.Unit(0, j))
			rot(t, s, s.lay.Unit(0, j))
		}
	}
	for i, j := range pat.pos {
		if pat.kinds[i] == 'L' {
			if err := s.Fail(s.lay.Unit(0, j).Disk); err != nil {
				t.Fatal(err)
			}
		}
	}

	switch path {
	case "ReadUnit":
		// Every data unit of the array: stripe 0's through the pattern, the
		// other stripes' through whatever the failed disks took from them.
		// A damaged unit no read needed (a parity of a stripe whose data all
		// reads) may stay as it is.
		for n := range version {
			if err := s.ReadUnit(int64(n), buf); err != nil {
				t.Fatalf("ReadUnit(%d): %v", n, err)
			}
			if !patternMatches(buf, int64(n), version[n]) {
				t.Fatalf("ReadUnit(%d) returned wrong bytes", n)
			}
		}
	case "Rebuild":
		for range s.FailedDisks() {
			if err := s.Rebuild(NewMemDisk(s.unitsPerDisk, s.UnitSize())); err != nil {
				t.Fatal(err)
			}
		}
	case "resyncStripe":
		if fix, err := s.resyncStripe(s.st.Load(), 0); err != nil || fix != fixUnit {
			t.Fatalf("resyncStripe = %v, %v, want a unit repair", fix, err)
		}
		damaged = nil // all of them are rewritten
	}
	compareWithReference(t, s, version, damaged)
}
