package store

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

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
	return openStore(t, Config{Layout: testPQLayout(t, c, g), UnitsPerDisk: unitsPerDisk, UnitSize: unitSize})
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
			s := openStore(t, Config{Layout: tc.lay, UnitsPerDisk: 64, UnitSize: 512})
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
// rewrite both. Three rotted units are a lost stripe: the scrub counts it
// Unrecoverable, books its three units lost and carries on.
func TestPQScrubHealsTwoDamagedUnits(t *testing.T) {
	s := newTestPQStore(t, 7, 4, 64, 512)
	fillAll(t, s, 4)
	rot(t, s, s.lay.Unit(0, 0))
	rot(t, s, s.lay.Unit(0, 1))
	if res, err := s.Scrub(); err != nil || res.UnitRepairs != 1 {
		t.Fatalf("Scrub = (%+v, %v), want UnitRepairs 1", res, err)
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
	for j := 0; j < 3; j++ {
		rot(t, s, s.lay.Unit(1, j))
	}
	if res, err := s.Scrub(); err != nil || res.Unrecoverable != 1 || s.Stats().LostUnits != 3 {
		t.Fatalf("Scrub = (%+v, %v), LostUnits %d: want Unrecoverable 1, 3 units lost", res, err, s.Stats().LostUnits)
	}
}

// TestPQSelfHealingDegradedRead damages a survivor while one disk is
// already lost: a degraded read then needs both remaining codes — the
// damaged unit is absorbed as a second erasure, healed in place, and the
// lost unit's contents still come back byte-exact.
func TestPQSelfHealingDegradedRead(t *testing.T) {
	s := newTestPQStore(t, 7, 4, 64, 512)
	fillAll(t, s, 1)
	n := int64(5)
	loc := layout.DataLoc(s.lay, n)
	stripe, _ := s.lay.Locate(loc)
	if err := s.Fail(loc.Disk); err != nil {
		t.Fatal(err)
	}
	sib := s.lay.Unit(stripe, 0)
	if sib == loc {
		sib = s.lay.Unit(stripe, 1)
	}
	rot(t, s, sib)
	verifyUnit(t, s, n, 1)
	if s.Stats().HealedUnits != 1 || damagedOnBackend(s, sib) {
		t.Fatalf("damaged survivor %v was not healed in place (HealedUnits %d)", sib, s.Stats().HealedUnits)
	}
	for u := int64(0); u < s.DataUnits(); u++ {
		verifyUnit(t, s, u, 1)
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
		logical[layout.DataLoc(s.lay, n)] = n
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
		want[s.lay.ParityPos(stripe, 0)] = p
		if s.Parities() == 2 {
			want[s.lay.ParityPos(stripe, 1)] = q
		}
		for j, w := range want {
			u := s.lay.Unit(stripe, j)
			if st.slot(u.Disk) != nil {
				continue
			}
			if err := st.disks[u.Disk].ReadUnit(u.Offset, phys); err != nil {
				t.Fatal(err)
			}
			if _, ok := verifyTrailer(phys, us, u.Offset); !ok {
				if slices.Contains(mayRot, u) {
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
