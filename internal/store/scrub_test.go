package store

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"declust/internal/layout"
)

func TestScrubCleanStoreVerifiesEverything(t *testing.T) {
	s := newTestStore(t, 7, 3, 64, 512)
	fillAll(t, s, 1)
	res, err := s.Scrub()
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if res.Stripes != s.Stripes() || res.Skipped != 0 {
		t.Fatalf("scrubbed %d stripes (skipped %d), want %d (0)", res.Stripes, res.Skipped, s.Stripes())
	}
	if res.UnitRepairs != 0 || res.ParityRewrites != 0 || res.Unrecoverable != 0 {
		t.Fatalf("clean store needed repairs: %+v", res)
	}
	if s.Stats().Scrubs != 1 {
		t.Fatalf("Scrubs = %d, want 1", s.Stats().Scrubs)
	}
}

func TestScrubRepairsRottedUnit(t *testing.T) {
	s := newTestStore(t, 7, 3, 64, 512)
	fillAll(t, s, 6)
	loc := s.mapper.Loc(11)
	st := s.st.Load()
	if err := st.disks[loc.Disk].WriteUnit(loc.Offset, bytes.Repeat([]byte{0xEE}, s.physSize)); err != nil {
		t.Fatal(err)
	}
	res, err := s.Scrub()
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if res.UnitRepairs != 1 {
		t.Fatalf("UnitRepairs = %d, want 1", res.UnitRepairs)
	}
	verifyUnit(t, s, 11, 6)
	if err := s.CheckParity(); err != nil {
		t.Fatalf("CheckParity after scrub: %v", err)
	}
}

func TestScrubDetectsLostParityWrite(t *testing.T) {
	s, fds := faultStore(t, 7, 3, 64, 512,
		func(int) FaultConfig { return FaultConfig{} }, Config{})
	fillAll(t, s, 1)
	// Drop the parity commit of one write: data goes down, parity stays
	// stale. The unit checksums all verify — only the parity equation
	// betrays the lost write, and the scrub resolves it in favor of data.
	n := int64(3)
	loc := s.mapper.Loc(n)
	stripe, _ := s.lay.Locate(loc)
	ploc := layout.ParityLoc(s.lay, stripe)
	fds[ploc.Disk].LoseNextWrite()
	buf := make([]byte, s.UnitSize())
	fill(buf, n, 2)
	if err := s.WriteUnit(n, buf); err != nil {
		t.Fatalf("WriteUnit with lost parity: %v", err)
	}
	if err := s.CheckParity(); err == nil {
		t.Fatal("CheckParity missed the stale parity unit")
	}
	res, err := s.Scrub()
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if res.ParityRewrites != 1 {
		t.Fatalf("ParityRewrites = %d, want 1", res.ParityRewrites)
	}
	if err := s.CheckParity(); err != nil {
		t.Fatalf("CheckParity after scrub: %v", err)
	}
	verifyUnit(t, s, n, 2)
}

func TestScrubCountsUnrecoverableStripes(t *testing.T) {
	s := newTestStore(t, 7, 3, 64, 512)
	fillAll(t, s, 1)
	// Rot two units of stripe 0: beyond single parity.
	st := s.st.Load()
	for j := 0; j < 2; j++ {
		u := s.lay.Unit(0, j)
		if err := st.disks[u.Disk].WriteUnit(u.Offset, bytes.Repeat([]byte{0xBD}, s.physSize)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Scrub()
	if err == nil || !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("Scrub returned %v, want an ErrUnrecoverable", err)
	}
	if res.Unrecoverable != 1 {
		t.Fatalf("Unrecoverable = %d, want 1", res.Unrecoverable)
	}
	if res.Stripes != s.Stripes()-1 {
		t.Fatalf("scrub stopped early: verified %d of %d stripes", res.Stripes, s.Stripes()-1)
	}
}

// TestScrubCountsEachDamageCause puts a latent sector error and a
// checksum-rotted unit in the same P+Q stripe: the scrub heals both from
// one pass, and each is charged to its own cause — one media error, one
// checksum error, two healed units.
func TestScrubCountsEachDamageCause(t *testing.T) {
	s, fds := faultStore(t, 7, 4, 64, 512,
		func(int) FaultConfig { return FaultConfig{} }, Config{Layout: testPQLayout(t, 7, 4)})
	fillAll(t, s, 5)
	before := s.Stats()
	lse, rotten := s.lay.Unit(3, 0), s.lay.Unit(3, 2)
	fds[lse.Disk].InjectLSE(lse.Offset)
	rot(t, s, rotten)
	res, err := s.Scrub()
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if res.UnitRepairs != 1 {
		t.Fatalf("UnitRepairs = %d stripes, want 1", res.UnitRepairs)
	}
	after := s.Stats()
	if c, m, h := after.ChecksumErrors-before.ChecksumErrors, after.MediaErrors-before.MediaErrors,
		after.HealedUnits-before.HealedUnits; c != 1 || m != 1 || h != 2 {
		t.Fatalf("ChecksumErrors, MediaErrors, HealedUnits grew by %d, %d, %d; want 1, 1, 2", c, m, h)
	}
	if err := s.CheckParity(); err != nil {
		t.Fatalf("CheckParity after scrub: %v", err)
	}
	for n := int64(0); n < s.DataUnits(); n++ {
		verifyUnit(t, s, n, 5)
	}
}

func TestScrubSkipsDegradedStripes(t *testing.T) {
	s := newTestStore(t, 7, 3, 64, 512)
	fillAll(t, s, 1)
	if err := s.Fail(0); err != nil {
		t.Fatal(err)
	}
	res, err := s.Scrub()
	if err != nil {
		t.Fatalf("Scrub degraded: %v", err)
	}
	if res.Skipped == 0 {
		t.Fatal("degraded scrub skipped no stripes")
	}
	if res.Stripes+res.Skipped != s.Stripes() {
		t.Fatalf("scrubbed %d + skipped %d != %d stripes", res.Stripes, res.Skipped, s.Stripes())
	}
}

// TestParityDoubtOutlivesDegradedScrub pins the latch a failed commit sets:
// from the write that could not finish its stripe until a Scrub has
// verified every stripe, Sync clears no intent region. A sweep with a disk
// failed skips the stripes that disk touches — the one in doubt among them
// — and must leave the latch set; once the disk is rebuilt a clean sweep
// of the whole array releases it and the next Sync clears.
func TestParityDoubtOutlivesDegradedScrub(t *testing.T) {
	lay := testLayout(t, 7, 4)
	pLoc := layout.ParityLocOf(lay, 0, 0) // unit 0 is a data unit of stripe 0
	planted := map[int64]bool{pLoc.Offset: true}
	disks := make([]Disk, lay.Disks())
	for i := range disks {
		disks[i] = NewMemDisk(48, 512)
	}
	disks[pLoc.Disk] = failAtDisk{Disk: disks[pLoc.Disk], writes: planted}
	ri := &recordingIntent{}
	s, err := New(Config{Layout: lay, UnitsPerDisk: 48, UnitSize: 512, Disks: disks, Intent: ri, IOWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	syncClears := func(when string, want int) {
		t.Helper()
		if err := s.Sync(); err != nil {
			t.Fatalf("Sync %s: %v", when, err)
		}
		if got := len(ri.clears); got != want {
			t.Fatalf("%d ClearBatch calls %s (%v), want %d", got, when, ri.clears, want)
		}
	}

	buf := make([]byte, s.UnitSize())
	fill(buf, 0, 1)
	if err := s.WriteUnit(0, buf); !errors.Is(err, errPlanted) {
		t.Fatalf("WriteUnit over a failing parity write = %v, want %v", err, errPlanted)
	}
	delete(planted, pLoc.Offset)
	if !s.parityDoubt.Load() {
		t.Fatal("a commit that failed mid-stripe did not latch parity doubt")
	}
	syncClears("after the failed write", 0)

	// The parity unit that missed its write goes with its disk, so the
	// rebuild recomputes it from the data that did land.
	if err := s.Fail(pLoc.Disk); err != nil {
		t.Fatal(err)
	}
	res, err := s.Scrub()
	if err != nil || res.Skipped == 0 || res.Unrecoverable != 0 {
		t.Fatalf("degraded scrub: %+v, %v", res, err)
	}
	if !s.parityDoubt.Load() {
		t.Fatal("a scrub that skipped the stripe in doubt released the latch")
	}
	syncClears("after a scrub that skipped stripes", 0)

	if err := s.Rebuild(NewMemDisk(48, 512)); err != nil {
		t.Fatal(err)
	}
	if res, err := s.Scrub(); err != nil || res.Skipped != 0 || res.ParityRewrites+res.UnitRepairs != 0 {
		t.Fatalf("scrub after the rebuild: %+v, %v", res, err)
	}
	if s.parityDoubt.Load() {
		t.Fatal("a clean scrub of every stripe left the latch set")
	}
	syncClears("after a clean scrub of the whole array", 1)
	if err := s.CheckParity(); err != nil {
		t.Fatal(err)
	}
}

// TestIntentRecoveryResyncsDirtyRegions simulates a crash by abandoning a
// file-backed store (no Close, so its intent log still has the written
// region marked) after dropping a parity commit, then reopens over the
// same files and expects the recovery pass to repair the stripe.
func TestIntentRecoveryResyncsDirtyRegions(t *testing.T) {
	dir := t.TempDir()
	lay := testLayout(t, 5, 5)
	usable := layout.UsableUnitsPerDisk(lay, 40)

	open := func() (*Store, []*FaultDisk) {
		raw, err := OpenFileDisks(dir, 5, usable, 512)
		if err != nil {
			t.Fatal(err)
		}
		fds := make([]*FaultDisk, len(raw))
		disks := make([]Disk, len(raw))
		for i, d := range raw {
			fds[i] = NewFaultDisk(d, FaultConfig{})
			disks[i] = fds[i]
		}
		s, err := New(Config{
			Layout:       lay,
			UnitsPerDisk: 40,
			UnitSize:     512,
			Disks:        disks,
			Intent:       OpenFileIntent(filepath.Join(dir, "intent.log")),
		})
		if err != nil {
			t.Fatal(err)
		}
		return s, fds
	}

	s1, fds := open()
	fillAll(t, s1, 1)
	if err := s1.Sync(); err != nil {
		t.Fatal(err)
	}
	// Re-dirty one region with a write whose parity commit is dropped.
	n := int64(2)
	loc := s1.mapper.Loc(n)
	stripe, _ := s1.lay.Locate(loc)
	ploc := layout.ParityLoc(s1.lay, stripe)
	fds[ploc.Disk].LoseNextWrite()
	buf := make([]byte, 512)
	fill(buf, n, 2)
	if err := s1.WriteUnit(n, buf); err != nil {
		t.Fatal(err)
	}
	// "Crash": abandon s1 without Close or Sync. The region is still
	// marked in intent.log and the parity on disk is stale.

	s2, _ := open()
	defer s2.Close()
	st := s2.Stats()
	if st.ResyncedStripes == 0 {
		t.Fatal("reopen found no dirty regions to resync")
	}
	if st.ResyncRepairs == 0 {
		t.Fatal("recovery pass repaired nothing despite a stale parity unit")
	}
	if err := s2.CheckParity(); err != nil {
		t.Fatalf("CheckParity after recovery: %v", err)
	}
	verifyUnit(t, s2, n, 2)
	for u := int64(0); u < s2.DataUnits(); u++ {
		if u != n {
			verifyUnit(t, s2, u, 1)
		}
	}
}

// TestCleanCloseClearsIntent verifies the happy path pays no recovery:
// Sync+Close leave the intent log clean, so reopening resyncs nothing.
func TestCleanCloseClearsIntent(t *testing.T) {
	dir := t.TempDir()
	lay := testLayout(t, 5, 5)
	usable := layout.UsableUnitsPerDisk(lay, 40)
	openStore := func() *Store {
		disks, err := OpenFileDisks(dir, 5, usable, 512)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{
			Layout:       lay,
			UnitsPerDisk: 40,
			UnitSize:     512,
			Disks:        disks,
			Intent:       OpenFileIntent(filepath.Join(dir, "intent.log")),
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1 := openStore()
	fillAll(t, s1, 1)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore()
	defer s2.Close()
	if got := s2.Stats().ResyncedStripes; got != 0 {
		t.Fatalf("clean reopen resynced %d stripes, want 0", got)
	}
	for u := int64(0); u < s2.DataUnits(); u++ {
		verifyUnit(t, s2, u, 1)
	}
}
