package store

import (
	"testing"

	"declust/internal/layout"
)

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
// to two checksum-failing units in a stripe, and a third makes the stripe
// lost: rewritten with its lost units marked.
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
	if fix, err := s.resyncStripe(st, 5); err != nil || fix != fixLost {
		t.Fatalf("three damaged: resync = (%v, %v), want (fixLost, nil)", fix, err)
	}
}
