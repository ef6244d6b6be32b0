package store

import (
	"bytes"
	"errors"
	"testing"

	"declust/internal/layout"
)

// stripe0Roles returns stripe 0's P unit, Q unit (zero under single
// parity), and data units of a layout, plus the logical index of each data
// unit.
func stripe0Roles(t *testing.T, s *Store) (p, q layout.Loc, data []layout.Loc, idx []int64) {
	t.Helper()
	p = layout.ParityLocOf(s.lay, 0, 0)
	if s.Parities() == 2 {
		q = layout.ParityLocOf(s.lay, 0, 1)
	}
	for j := 0; j < s.lay.G(); j++ {
		if layout.IsParityPos(s.lay, 0, j) {
			continue
		}
		data = append(data, s.lay.Unit(0, j))
		idx = append(idx, -1)
	}
	for n := int64(0); n < s.DataUnits(); n++ {
		loc := s.mapper.Loc(n)
		for i, d := range data {
			if loc == d {
				idx[i] = n
			}
		}
	}
	for i, n := range idx {
		if n < 0 {
			t.Fatalf("no logical index maps to data unit %v", data[i])
		}
	}
	return p, q, data, idx
}

// rot overwrites a unit's physical block with garbage so the next read
// fails its checksum — a persisted latent sector error.
func rot(t *testing.T, s *Store, u layout.Loc) {
	t.Helper()
	st := s.st.Load()
	if err := st.disks[u.Disk].WriteUnit(u.Offset, bytes.Repeat([]byte{0xEE}, s.physSize)); err != nil {
		t.Fatal(err)
	}
}

// rotted reports whether u still fails its checksum on the backend.
func rotted(t *testing.T, s *Store, u layout.Loc) bool {
	t.Helper()
	phys := make([]byte, s.physSize)
	if err := s.st.Load().disks[u.Disk].ReadUnit(u.Offset, phys); err != nil {
		t.Fatal(err)
	}
	return !verifyTrailer(phys, s.unitSize, u.Offset)
}

// TestErasureBudget drives the decode up to and past its budget of one
// erasure per parity unit: whole-disk failures plus one rotted unit in a
// shared stripe, then a read of data unit 0 of that stripe. Within the
// budget the read returns the right bytes and the rotted unit is healed in
// place under the write lock; one erasure beyond it — two under single
// parity, three under P+Q, never a literal 2 — the read must report
// ErrUnrecoverable rather than return wrong bytes, and rewrite nothing.
func TestErasureBudget(t *testing.T) {
	type roles struct {
		p, q layout.Loc
		data []layout.Loc
	}
	cases := []struct {
		name   string
		pq     bool
		fail   func(r roles) []layout.Loc // units whose disks fail
		rot    func(r roles) layout.Loc
		healed int64 // −1: the read is unrecoverable
	}{
		{"P/damaged-data-heals", false,
			func(r roles) []layout.Loc { return nil },
			func(r roles) layout.Loc { return r.data[0] }, 1},
		{"P/lost-parity-damaged-data", false,
			func(r roles) []layout.Loc { return []layout.Loc{r.p} },
			func(r roles) layout.Loc { return r.data[0] }, -1},
		{"P/lost-data-damaged-survivor", false,
			func(r roles) []layout.Loc { return []layout.Loc{r.data[0]} },
			func(r roles) layout.Loc { return r.data[1] }, -1},
		{"P+Q/lost-data-damaged-survivor-heals", true,
			func(r roles) []layout.Loc { return []layout.Loc{r.data[0]} },
			func(r roles) layout.Loc { return r.p }, 1},
		{"P+Q/both-parities-lost-data-damaged", true,
			func(r roles) []layout.Loc { return []layout.Loc{r.p, r.q} },
			func(r roles) layout.Loc { return r.data[0] }, -1},
		{"P+Q/lost-data-needed-survivor-damaged", true,
			// Decoding the lost data unit with P gone needs Q; rot it.
			func(r roles) []layout.Loc { return []layout.Loc{r.data[0], r.p} },
			func(r roles) layout.Loc { return r.q }, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			newStore := newTestStore
			if tc.pq {
				newStore = newTestPQStore
			}
			s := newStore(t, 7, 4, 64, 512)
			fillAll(t, s, 9)
			p, q, data, idx := stripe0Roles(t, s)
			r := roles{p, q, data}
			for _, u := range tc.fail(r) {
				if err := s.Fail(u.Disk); err != nil {
					t.Fatal(err)
				}
			}
			bad := tc.rot(r)
			rot(t, s, bad)
			buf := make([]byte, s.UnitSize())
			err := s.ReadUnit(idx[0], buf)
			if tc.healed < 0 {
				if !errors.Is(err, ErrUnrecoverable) {
					t.Fatalf("ReadUnit = %v, want ErrUnrecoverable", err)
				}
				if got := s.Stats().HealedUnits; got != 0 || !rotted(t, s, bad) {
					t.Fatalf("an unrecoverable read rewrote units (HealedUnits %d, %v rotted: %v)",
						got, bad, rotted(t, s, bad))
				}
				if bad != data[1] {
					// The sibling data unit is intact and must still read.
					verifyUnit(t, s, idx[1], 9)
				}
				return
			}
			if err != nil || !patternMatches(buf, idx[0], 9) {
				t.Fatalf("ReadUnit = %v (contents right: %v), want the written bytes", err, patternMatches(buf, idx[0], 9))
			}
			if got := s.Stats().HealedUnits; got != tc.healed || rotted(t, s, bad) {
				t.Fatalf("HealedUnits = %d, want %d; %v still rotted: %v", got, tc.healed, bad, rotted(t, s, bad))
			}
		})
	}
}

// TestPQResyncLostWriteParity exercises resyncStripe's lost-write arm:
// every unit is individually valid (clean checksum) but one parity no
// longer balances its equation — the signature of a write the disk
// acknowledged and dropped. Resync must trust data over parity and
// recompute whichever side is stale, for P and for Q independently.
func TestPQResyncLostWriteParity(t *testing.T) {
	s := newTestPQStore(t, 7, 4, 64, 512)
	fillAll(t, s, 11)
	st := s.st.Load()
	forge := func(stripe int64, k int) {
		u := layout.ParityLocOf(s.lay, stripe, k)
		phys := make([]byte, s.physSize)
		for i := 0; i < s.unitSize; i++ {
			phys[i] = byte(0xA5 ^ i)
		}
		if err := s.writeStamped(st.disk(u), u.Disk, u.Offset, phys); err != nil {
			t.Fatal(err)
		}
	}

	forge(1, 0) // stale P
	if fix, err := s.resyncStripe(st, 1); err != nil || fix != fixParity {
		t.Fatalf("stale P: resync = (%v, %v), want (fixParity, nil)", fix, err)
	}
	forge(2, 1) // stale Q
	if fix, err := s.resyncStripe(st, 2); err != nil || fix != fixParity {
		t.Fatalf("stale Q: resync = (%v, %v), want (fixParity, nil)", fix, err)
	}
	if fix, err := s.resyncStripe(st, 3); err != nil || fix != fixNone {
		t.Fatalf("clean stripe: resync = (%v, %v), want (fixNone, nil)", fix, err)
	}

	if err := s.CheckParity(); err != nil {
		t.Fatalf("CheckParity after resync: %v", err)
	}
	for n := int64(0); n < s.DataUnits(); n++ {
		verifyUnit(t, s, n, 11)
	}
}

// TestPQResyncRepairsDamage: resyncStripe reconstructs and rewrites up
// to two checksum-failing units in a stripe, and reports the third as
// unrecoverable.
func TestPQResyncRepairsDamage(t *testing.T) {
	s := newTestPQStore(t, 7, 4, 64, 512)
	fillAll(t, s, 13)
	st := s.st.Load()
	rot(t, s, s.lay.Unit(4, 0))
	rot(t, s, s.lay.Unit(4, 1))
	if fix, err := s.resyncStripe(st, 4); err != nil || fix != fixUnit {
		t.Fatalf("two damaged: resync = (%v, %v), want (fixUnit, nil)", fix, err)
	}
	for j := 0; j < 3; j++ {
		rot(t, s, s.lay.Unit(5, j))
	}
	if _, err := s.resyncStripe(st, 5); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("three damaged: resync = %v, want ErrUnrecoverable", err)
	}
}
