package store

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"

	"declust/internal/layout"
)

// rot overwrites a unit's physical block with garbage so the next read
// fails its checksum — a persisted latent sector error.
func rot(t *testing.T, s *Store, u layout.Loc) {
	t.Helper()
	st := s.st.Load()
	if err := st.disks[u.Disk].WriteUnit(u.Offset, bytes.Repeat([]byte{0xEE}, s.physSize)); err != nil {
		t.Fatal(err)
	}
}

// damagedOnBackend reports whether a read of u straight from its backend
// still fails: a latent sector, or a trailer that does not verify.
func damagedOnBackend(s *Store, u layout.Loc) bool {
	phys := make([]byte, s.physSize)
	if err := s.st.Load().disks[u.Disk].ReadUnit(u.Offset, phys); err != nil {
		return true
	}
	_, ok := verifyTrailer(phys, s.unitSize, u.Offset)
	return !ok
}

// damagePath is one way an operation can meet a damaged unit of the
// matrix's stripe, whose units are named by role: P, Q, and data units d0,
// d1, d2 by data ordinal. The matrix fails the disks of the first ℓ units
// of lose and damages the first k of damage, Q left out of both under
// single parity; each list is ordered so that the path reads every unit it
// damages. op runs the operation once, given the stripe's data units d,
// checking the bytes it returns, and writes version 2 over the first
// written of them. meets is how many times it reads damaged unit r with ℓ disks
// lost: once per stripe-lock hold that reads it.
type damagePath struct {
	name         string
	lose, damage []string
	minLost      int
	maxLost      int
	read         bool // a read: past the budget it returns ErrUnrecoverable
	repeat       bool // a second pass may run the operation again
	written      int64
	op           func(t *testing.T, s *Store, d []int64) error
	meets        func(r string, lost int) int
}

// readBack reads n units from first with ReadRange (n > 1) or ReadUnit
// and, when it succeeds, checks them against version 1.
func readBack(t *testing.T, s *Store, first, n int64) error {
	us := int64(s.UnitSize())
	got := make([]byte, n*us)
	read := s.ReadRange
	if n == 1 {
		read = s.ReadUnit
	}
	err := read(first, got)
	for i := int64(0); err == nil && i < n; i++ {
		if !patternMatches(got[i*us:(i+1)*us], first+i, 1) {
			t.Errorf("unit %d: read back wrong bytes", first+i)
		}
	}
	return err
}

// writeVersion2 writes version 2 over n units from first, with WriteRange
// (n > 1) or WriteUnit.
func writeVersion2(s *Store, first, n int64) error {
	us := int64(s.UnitSize())
	buf := make([]byte, n*us)
	for i := int64(0); i < n; i++ {
		fill(buf[i*us:(i+1)*us], first+i, 2)
	}
	if n == 1 {
		return s.WriteUnit(first, buf)
	}
	return s.WriteRange(first, buf)
}

func once(string, int) int { return 1 }

var damagePaths = []damagePath{{
	name: "ReadUnit-damaged", lose: []string{"P", "Q"}, damage: []string{"d0", "d1", "d2"}, maxLost: 2, read: true, repeat: true,
	op: func(t *testing.T, s *Store, d []int64) error { return readBack(t, s, d[0], 1) },
	// d0 under the read lock, then under the write lock (serveSpan run
	// again), whose recovery meets the others.
	meets: func(r string, _ int) int { return 1 + b2i(r == "d0") },
}, {
	name: "ReadUnit-lost", lose: []string{"d2", "Q"}, damage: []string{"P", "d0", "d1"}, minLost: 1, maxLost: 2, read: true, repeat: true,
	op: func(t *testing.T, s *Store, d []int64) error { return readBack(t, s, d[2], 1) },
	// The reconstruction under the read lock, the recovery under the write
	// lock.
	meets: func(string, int) int { return 2 },
}, {
	name: "ReadRange", lose: []string{"d2", "Q"}, damage: []string{"d0", "d1", "P"}, maxLost: 2, read: true, repeat: true,
	// From the last unit of the stripe before to the first of the one after.
	op: func(t *testing.T, s *Store, d []int64) error { return readBack(t, s, d[0]-1, 5) },
	// The read-locked batch reads each data unit once — directly, or, when
	// d2 is lost, as a source of its decode, which reads P too; then one
	// write-lock hold reads each unit again.
	meets: func(r string, lost int) int { return 1 + b2i(r != "P" || lost > 0) },
}, {
	// A one-unit write is the delta: it reads P, Q and d0's old contents.
	name: "WriteUnit-delta", lose: []string{"d2", "d1"}, damage: []string{"Q", "P", "d0"}, maxLost: 2, repeat: true, written: 1,
	op:    func(t *testing.T, s *Store, d []int64) error { return writeVersion2(s, d[0], 1) },
	meets: once,
}, {
	// Two of three data units: the reconstruct-write reads d2 (with a
	// written unit lost, the fold-forward).
	name: "WriteRange-reconstruct", lose: []string{"d1", "d0"}, damage: []string{"d2", "P", "Q"}, maxLost: 2, repeat: true, written: 2,
	op:    func(t *testing.T, s *Store, d []int64) error { return writeVersion2(s, d[0], 2) },
	meets: once,
}, {
	// A scrub skips degraded stripes, so it meets damage only at ℓ = 0.
	name: "Scrub", damage: []string{"Q", "d0", "P"}, repeat: true,
	op: func(t *testing.T, s *Store, _ []int64) error {
		before := s.Stats()
		res, err := s.Scrub()
		after := s.Stats()
		want := ScrubResult{Stripes: s.Stripes(), UnitRepairs: int64(b2i(after.HealedUnits > before.HealedUnits))}
		if after.LostUnits > before.LostUnits {
			want.Stripes, want.Unrecoverable = want.Stripes-1, 1
		}
		if res != want {
			t.Errorf("Scrub = %+v, want %+v", res, want)
		}
		return err
	},
	meets: once,
}, {
	// The first lost disk is rebuilt; a rebuild that fails leaves the store
	// Degraded. Past the budget the unit under rebuild is lost with the rest
	// of the stripe's erasures, and the rebuild completes.
	name: "Rebuild", lose: []string{"d2", "Q"}, damage: []string{"d0", "P", "d1"}, minLost: 1, maxLost: 2,
	op: func(t *testing.T, s *Store, _ []int64) error {
		err := s.Rebuild(NewMemDisk(s.unitsPerDisk, s.UnitSize()))
		if err != nil && s.Mode() != Degraded {
			t.Errorf("a failed rebuild left the store %v, want degraded", s.Mode())
		}
		return err
	},
	meets: once,
}}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// damageLog counts each damaged unit's reads until it is next written.
type damageLog struct {
	mu    sync.Mutex
	bad   map[layout.Loc]bool
	reads map[layout.Loc]int
}

func (l *damageLog) hook(c call, pass func() error) error {
	u := layout.Loc{Disk: c.disk, Offset: c.off}
	l.mu.Lock()
	switch {
	case !c.access() || !l.bad[u]:
	case c.op == opRead:
		l.reads[u]++
	default:
		l.bad[u] = false
	}
	l.mu.Unlock()
	return pass()
}

// TestErasureBudget is the damage matrix, for both codes: ℓ lost disks and
// k damaged units — rotted, latent, or one of each — in one stripe, met by
// every path that can meet damage (damagePaths), serially and at 4 I/O
// workers with overlap forced, up to one erasure past the budget of one
// per parity. Every row checks one rule.
//
// Within the budget (ℓ + k ≤ m) the operation succeeds with the right
// bytes, and each damaged unit is healed exactly once: HealedUnits grows by
// k and the backend then holds a clean unit; ChecksumErrors grows by the
// rotted units, and each damaged unit's disk score by 1 — no other disk's.
// Past it the stripe is lost and rewritten (loseStripe): a read returns
// ErrUnrecoverable and every other operation succeeds; LostUnits grows by
// the stripe's ℓ + k erasures bar the units the operation writes; nothing
// is healed, charged or scored, yet every damaged unit is clean on its
// backend; and exactly the erased data units the operation does not write
// read ErrUnrecoverable from then on. Either way a second pass heals and
// loses nothing, once every lost disk is rebuilt parity checks over every
// stripe and every other unit reads back, and a damaged unit is read 1 +
// Retries times (rotted) or once (latent) each time the operation meets it
// (damagePath.meets): a write, a scrub or a rebuild meets it once, under
// its one lock hold, and never reads it again to heal it. Each latent read
// is one backend report in MediaErrors.
//
// Two named rows come first, on stripe 0 of a 512-byte store at G = 4 (two
// data units a stripe under P+Q): a rotted data unit read under P, and a
// lost data unit read beside a rotted P under P+Q. Each read returns the
// written bytes and heals the rotted unit once.
func TestErasureBudget(t *testing.T) {
	forceOverlap(t)
	for _, tc := range []struct {
		name string
		open func(testing.TB, int, int, int64, int) *Store
		lose bool
	}{{"P/damaged-data-heals", newTestStore, false}, {"P+Q/lost-data-damaged-survivor-heals", newTestPQStore, true}} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.open(t, 7, 4, 64, 512)
			fillAll(t, s, 9)
			bad := layout.DataLoc(s.lay, 0)
			if tc.lose {
				if err := s.Fail(bad.Disk); err != nil {
					t.Fatal(err)
				}
				bad = layout.ParityLocOf(s.lay, 0, 0)
			}
			rot(t, s, bad)
			verifyUnit(t, s, 0, 9)
			if got := s.Stats().HealedUnits; got != 1 || damagedOnBackend(s, bad) {
				t.Fatalf("HealedUnits = %d, want 1; %v still damaged: %v", got, bad, damagedOnBackend(s, bad))
			}
		})
	}
	for _, p := range damagePaths {
		for m := 1; m <= 2; m++ {
			for lost := p.minLost; lost <= min(m, p.maxLost); lost++ {
				for k := 1; lost+k <= m+1; k++ {
					for _, kind := range []string{"rotted", "latent", "mixed"}[:2+b2i(k > 1)] {
						for _, workers := range []int{1, 4} {
							name := fmt.Sprintf("%s/m=%d/lost=%d/k=%d/%s/workers=%d", p.name, m, lost, k, kind, workers)
							t.Run(name, func(t *testing.T) { damageRow(t, p, m, lost, k, kind, workers) })
						}
					}
				}
			}
		}
	}
}

func damageRow(t *testing.T, p damagePath, m, lost, k int, kind string, workers int) {
	lay := testLayout(t, 7, 4)
	if m == 2 {
		lay = testPQLayout(t, 7, 5)
	}
	latent := new(latentUnits)
	dlog := &damageLog{bad: map[layout.Loc]bool{}, reads: map[layout.Loc]int{}}
	s := scriptedStore(t, Config{Layout: lay, UnitsPerDisk: 24, UnitSize: 64, IOWorkers: workers},
		func(c call, pass func() error) error {
			return dlog.hook(c, func() error { return latent.hook(c, pass) })
		})
	fillAll(t, s, 1)

	const stripe = 1
	d := []int64{stripe * s.dataPerStripe, stripe*s.dataPerStripe + 1, stripe*s.dataPerStripe + 2}
	loc := map[string]layout.Loc{"P": layout.ParityLocOf(s.lay, stripe, 0)}
	if m == 2 {
		loc["Q"] = layout.ParityLocOf(s.lay, stripe, 1)
	}
	for i, n := range d {
		loc[fmt.Sprint("d", i)] = layout.DataLoc(s.lay, n)
	}
	code := func(rs []string) []string {
		return slices.DeleteFunc(slices.Clone(rs), func(r string) bool { return r == "Q" && m == 1 })
	}
	for _, r := range code(p.lose)[:lost] {
		if err := s.Fail(loc[r].Disk); err != nil {
			t.Fatal(err)
		}
	}
	damaged := code(p.damage)[:k]
	perMeet := map[string]int{}
	for i, r := range damaged {
		if perMeet[r] = 1; kind == "latent" || kind == "mixed" && i%2 == 1 {
			latent.add(loc[r])
		} else {
			rot(t, s, loc[r])
			perMeet[r] += s.retries
		}
		dlog.bad[loc[r]] = true
	}

	before, scores := s.Stats(), s.DiskErrors()
	err := p.op(t, s, d)
	dlog.mu.Lock()
	after, reads := s.Stats(), maps.Clone(dlog.reads)
	dlog.mu.Unlock()

	latentReads, rotten := int64(0), int64(0)
	for _, r := range damaged {
		if want := p.meets(r, lost) * perMeet[r]; reads[loc[r]] != want {
			t.Errorf("damaged %s (%v) was read %d times, want %d", r, loc[r], reads[loc[r]], want)
		}
		if perMeet[r] == 1 {
			latentReads += int64(reads[loc[r]])
		} else {
			rotten++
		}
	}
	if got := after.MediaErrors - before.MediaErrors; got != latentReads {
		t.Errorf("MediaErrors grew by %d for %d latent reads", got, latentReads)
	}

	past := lost+k > m
	switch {
	case past && p.read:
		if !errors.Is(err, ErrUnrecoverable) {
			t.Fatalf("%s = %v, want ErrUnrecoverable", p.name, err)
		}
	case err != nil:
		t.Fatalf("%s: %v", p.name, err)
	}
	written := func(r string) bool { return r[0] == 'd' && int64(r[1]-'0') < p.written }
	healed, lostUnits, poisoned := int64(k), int64(0), map[int64]bool{}
	if past {
		healed, rotten = 0, 0
		for _, r := range append(code(p.lose)[:lost], damaged...) {
			if !written(r) {
				lostUnits++
				if r[0] == 'd' {
					poisoned[d[r[1]-'0']] = true
				}
			}
		}
	} else {
		for _, r := range damaged {
			scores[loc[r].Disk]++
		}
	}
	if got := after.HealedUnits - before.HealedUnits; got != healed {
		t.Errorf("HealedUnits grew by %d, want %d", got, healed)
	}
	if got := after.ChecksumErrors - before.ChecksumErrors; got != rotten {
		t.Errorf("ChecksumErrors grew by %d, want %d", got, rotten)
	}
	if got := after.LostUnits - before.LostUnits; got != lostUnits {
		t.Errorf("LostUnits grew by %d, want %d", got, lostUnits)
	}
	for _, r := range damaged {
		if damagedOnBackend(s, loc[r]) {
			t.Errorf("damaged %s is still damaged on its backend", r)
		}
	}
	if got := s.DiskErrors(); !slices.Equal(got, scores) {
		t.Errorf("disk scores %v, want %v", got, scores)
	}
	if p.repeat {
		if err := p.op(t, s, d); (err != nil) != (past && p.read) {
			t.Fatalf("second %s: %v", p.name, err)
		}
		if got := s.Stats(); got.HealedUnits != after.HealedUnits || got.LostUnits != after.LostUnits {
			t.Errorf("a second %s healed %d units and lost %d", p.name,
				got.HealedUnits-after.HealedUnits, got.LostUnits-after.LostUnits)
		}
	}
	rebuildEach(t, s, len(s.FailedDisks()), func(int) Disk { return NewMemDisk(s.unitsPerDisk, s.UnitSize()) })
	if err := s.CheckParity(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, s.UnitSize())
	for n := int64(0); n < s.DataUnits(); n++ {
		if poisoned[n] {
			if err := s.ReadUnit(n, buf); !errors.Is(err, ErrUnrecoverable) {
				t.Errorf("lost unit %d reads %v, want ErrUnrecoverable", n, err)
			}
			continue
		}
		verifyUnit(t, s, n, 1+uint64(b2i(n >= d[0] && n < d[0]+p.written)))
	}
}
