package store

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"declust/internal/layout"
)

// faultStore builds a store whose every backend is a FaultDisk over a mem
// disk, returning the wrappers for knob access.
func faultStore(t *testing.T, c, g int, unitsPerDisk int64, unitSize int, mk func(disk int) FaultConfig, cfg Config) (*Store, []*FaultDisk) {
	t.Helper()
	lay := cfg.Layout
	if lay == nil {
		lay = testLayout(t, c, g)
	}
	cfg.Layout = lay
	cfg.UnitsPerDisk = unitsPerDisk
	cfg.UnitSize = unitSize
	usable := layout.UsableUnitsPerDisk(lay, unitsPerDisk)
	fds := make([]*FaultDisk, c)
	disks := make([]Disk, c)
	for i := range disks {
		fds[i] = NewFaultDisk(NewMemDisk(usable, unitSize), mk(i))
		disks[i] = fds[i]
	}
	cfg.Disks = disks
	return openStore(t, cfg), fds
}

func TestFaultConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFaultDisk accepted a rate of 1.0")
		}
	}()
	NewFaultDisk(NewMemDisk(4, 64), FaultConfig{TransientRate: 1.0})
}

var updateStream = flag.Bool("update", false, "rewrite testdata/faultdisk_stream.txt instead of comparing against it")

// scriptStep makes step i of the fault tests' access script to unit off of
// fd, whose medium is under: a write every third step, of bytes the unit
// never held before, a read otherwise. It reports the access as "read" or
// "write" and how it came back: "" when clean, else failed, torn and where,
// gone latent, or corrupted and where.
func scriptStep(t *testing.T, fd *FaultDisk, under Disk, off int64, i int, p, medium []byte) (what, outcome string) {
	what, err := "read", error(nil)
	if i%3 == 0 {
		what = "write"
		copy(p, bytes.Repeat([]byte{byte(i%250 + 1)}, len(p)))
		err = fd.WriteUnit(off, p)
	} else {
		err = fd.ReadUnit(off, p)
	}
	if err := under.ReadUnit(off, medium); err != nil {
		t.Error(err)
		return what, ""
	}
	diff := 0 // the first byte where the medium is not p
	for diff < len(p) && p[diff] == medium[diff] {
		diff++
	}
	switch {
	case errors.Is(err, ErrMedia):
		return what, "latent"
	case err != nil && what == "write" && diff > 0:
		return what, fmt.Sprintf("torn at %d", diff)
	case err != nil:
		return what, "transient"
	case diff < len(p):
		return what, fmt.Sprintf("corrupt byte %d ^%#02x", diff, p[diff]^medium[diff])
	}
	return what, ""
}

// TestFaultDiskSeededStream pins the outcome stream a seed draws, so that
// CHAOS_SEED replays the regime it names: one goroutine runs a fixed script
// of writes and reads under each fault rate alone, and every access that
// does not come back clean must match testdata/faultdisk_stream.txt. Each
// class's injected count must also lie within 4σ of its rate times the
// accesses that could meet it, which a degenerate draw would not.
func TestFaultDiskSeededStream(t *testing.T) {
	const units, us = 16, 64
	var out strings.Builder
	for _, cfg := range []FaultConfig{{TransientRate: 0.2}, {TornWriteRate: 0.2}, {LSERate: 0.1}, {CorruptRate: 0.2}} {
		cfg.Seed = 45
		under := NewMemDisk(units, us)
		fd := NewFaultDisk(under, cfg)
		fmt.Fprintf(&out, "%+v\n", cfg)
		p, medium := make([]byte, PhysUnitSize(us)), make([]byte, PhysUnitSize(us))
		var latent int64 // reads that met a latent error, new or not
		for i := 0; i < 300; i++ {
			off := int64(i*5) % units
			if what, outcome := scriptStep(t, fd, under, off, i, p, medium); outcome != "" {
				fmt.Fprintf(&out, "%d %s %d: %s\n", i, what, off, outcome)
				if outcome == "latent" {
					latent++
				}
			}
		}
		st := fd.Stats()
		fmt.Fprintf(&out, "reads %d writes %d transients %d torn %d latent %d/%d healed %d corrupt %d\n",
			st.Reads, st.Writes, st.Transients, st.TornWrites, st.Latent, st.LSEInjected, st.LSEHealed, st.CorruptReads)
		injected, trials, rate := st.Transients, st.Reads+st.Writes, cfg.TransientRate
		switch {
		case cfg.TornWriteRate > 0:
			injected, trials, rate = st.TornWrites, st.Writes, cfg.TornWriteRate
		case cfg.LSERate > 0: // a read of a unit already latent draws nothing
			injected, trials, rate = st.LSEInjected, st.Reads-(latent-st.LSEInjected), cfg.LSERate
		case cfg.CorruptRate > 0:
			injected, trials, rate = st.CorruptReads, st.Reads, cfg.CorruptRate
		}
		mean, sd := float64(trials)*rate, math.Sqrt(float64(trials)*rate*(1-rate))
		if math.Abs(float64(injected)-mean) > 4*sd {
			t.Errorf("%+v: %d injected over %d accesses, want %.1f ± %.1f", cfg, injected, trials, mean, 4*sd)
		}
	}
	golden := filepath.Join("testdata", "faultdisk_stream.txt")
	if *updateStream {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if want, err := os.ReadFile(golden); err != nil || out.String() != string(want) {
		t.Errorf("seeded outcome stream moved (%v):\n%s\nwant:\n%s", err, out.String(), want)
	}
}

// TestFaultDiskReplaysPerUnitAccess holds a seed to its promise under
// concurrency: the n-th access to a unit meets the same fault whatever the
// order in which other units are reached. One goroutine per unit runs the
// access script on it with every fault class on; goroutine k starts once
// its predecessor has made its first access, and the two runs take the
// goroutines in opposite orders. Every (unit, n) must come back the same.
func TestFaultDiskReplaysPerUnitAccess(t *testing.T) {
	const units, us, steps = 8, 64, 60
	run := func(order []int) map[[2]int]string {
		under := NewMemDisk(units, us)
		fd := NewFaultDisk(under, FaultConfig{Seed: 48, TransientRate: 0.1, TornWriteRate: 0.1, LSERate: 0.05, CorruptRate: 0.1})
		var (
			mu  sync.Mutex
			got = map[[2]int]string{}
			wg  sync.WaitGroup
		)
		gate := make(chan struct{})
		close(gate)
		for _, u := range order {
			started := make(chan struct{})
			wg.Add(1)
			go func(u int, after <-chan struct{}, started chan<- struct{}) {
				defer wg.Done()
				<-after
				p, medium := make([]byte, PhysUnitSize(us)), make([]byte, PhysUnitSize(us))
				for i := 0; i < steps; i++ {
					what, outcome := scriptStep(t, fd, under, int64(u), i, p, medium)
					if i == 0 {
						close(started)
					}
					mu.Lock()
					got[[2]int{u, i}] = what + " " + outcome
					mu.Unlock()
				}
			}(u, gate, started)
			gate = started
		}
		wg.Wait()
		return got
	}
	order := make([]int, units)
	for i := range order {
		order[i] = i
	}
	forward := run(order)
	slices.Reverse(order)
	backward := run(order)
	faults := 0
	for k, o := range forward {
		if o != backward[k] {
			t.Errorf("access %d to unit %d came back %q in one order and %q in the other", k[1], k[0], o, backward[k])
		}
		if !strings.HasSuffix(o, " ") {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("no access met a fault")
	}
}

func TestFaultDiskTornWriteLeavesMixedImage(t *testing.T) {
	const us = 64
	under := NewMemDisk(4, us)
	phys := PhysUnitSize(us)
	old := bytes.Repeat([]byte{0xAA}, phys)
	if err := under.WriteUnit(0, old); err != nil {
		t.Fatal(err)
	}
	fd := NewFaultDisk(under, FaultConfig{Seed: 7, TornWriteRate: 0.999999})
	neu := bytes.Repeat([]byte{0x55}, phys)
	err := fd.WriteUnit(0, neu)
	if err == nil || !errors.Is(err, ErrTransient) {
		t.Fatalf("torn write returned %v, want an error wrapping ErrTransient", err)
	}
	got := make([]byte, phys)
	if err := under.ReadUnit(0, got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, old) || bytes.Equal(got, neu) {
		t.Fatal("torn write left a clean old or new image, want a mixed one")
	}
	if got[0] != 0x55 {
		t.Fatal("torn write should persist a prefix of the new contents")
	}
	if fd.Stats().TornWrites != 1 {
		t.Fatalf("TornWrites = %d, want 1", fd.Stats().TornWrites)
	}
}

func TestTransientErrorsAreRetried(t *testing.T) {
	s, fds := faultStore(t, 7, 3, 64, 512,
		func(int) FaultConfig { return FaultConfig{Seed: 42, TransientRate: 0.2} },
		Config{Retries: 6})
	fillAll(t, s, 1)
	for n := int64(0); n < s.DataUnits(); n++ {
		verifyUnit(t, s, n, 1)
	}
	if s.Stats().Retries == 0 {
		t.Fatal("no retries recorded despite a 20% transient rate")
	}
	var injected int64
	for _, fd := range fds {
		injected += fd.Stats().Transients
	}
	if injected == 0 {
		t.Fatal("fault disks injected no transients")
	}
}

func TestTransientCorruptionClearsOnReRead(t *testing.T) {
	s, _ := faultStore(t, 7, 3, 64, 512,
		func(int) FaultConfig { return FaultConfig{Seed: 11, CorruptRate: 0.3} },
		Config{})
	fillAll(t, s, 9)
	for n := int64(0); n < s.DataUnits(); n++ {
		verifyUnit(t, s, n, 9) // corruption must never be returned
	}
}

// TestPersistentCorruptionHealsFromParity rots a data unit on the medium;
// a read must return its written bytes from parity, count the checksum
// error, heal the unit, and leave parity balanced.
func TestPersistentCorruptionHealsFromParity(t *testing.T) {
	s := newTestStore(t, 7, 3, 64, 512)
	fillAll(t, s, 2)
	rot(t, s, layout.DataLoc(s.lay, 7))
	verifyUnit(t, s, 7, 2)
	if st := s.Stats(); st.ChecksumErrors == 0 || st.HealedUnits == 0 {
		t.Fatalf("ChecksumErrors=%d HealedUnits=%d, want both > 0", st.ChecksumErrors, st.HealedUnits)
	}
	if err := s.CheckParity(); err != nil {
		t.Fatalf("CheckParity after heal: %v", err)
	}
}

func TestAutoFailThreshold(t *testing.T) {
	latent := new(latentUnits)
	var refused atomic.Pointer[layout.Loc] // writes of this unit fail
	s := scriptedStore(t, Config{Layout: testLayout(t, 7, 3), UnitsPerDisk: 64, UnitSize: 512, FailThreshold: 2},
		func(c call, pass func() error) error {
			if u := refused.Load(); u != nil && c.op == opWrite && c.disk == u.Disk && c.off == u.Offset {
				return errors.New("planted: write refused")
			}
			return latent.hook(c, pass)
		})
	fillAll(t, s, 5)
	// Two latent sectors on one disk: each discovery is a persistent
	// error, and the second crosses the threshold.
	var units []int64
	for n := int64(0); n < s.DataUnits() && len(units) < 2; n++ {
		if layout.DataLoc(s.lay, n).Disk == 4 {
			units = append(units, n)
		}
	}
	if len(units) < 2 {
		t.Fatal("disk 4 holds fewer than two data units")
	}
	for _, n := range units {
		latent.add(layout.DataLoc(s.lay, n))
		verifyUnit(t, s, n, 5)
	}
	if got := s.Mode(); got != Degraded {
		t.Fatalf("Mode = %v after threshold, want Degraded", got)
	}
	if got := s.FailedDisks(); len(got) != 1 || got[0] != 4 {
		t.Fatalf("FailedDisks = %v, want [4]", got)
	}
	if s.Stats().AutoFails != 1 {
		t.Fatalf("AutoFails = %d, want 1", s.Stats().AutoFails)
	}
	// The store keeps serving, and the slot heals by rebuild as usual.
	for n := int64(0); n < s.DataUnits(); n++ {
		verifyUnit(t, s, n, 5)
	}
	if err := s.Rebuild(NewMemDisk(s.unitsPerDisk, s.UnitSize())); err != nil {
		t.Fatalf("Rebuild after auto-fail: %v", err)
	}
	if s.Mode() != Healthy {
		t.Fatal("store not healthy after rebuild")
	}
	if s.DiskErrors()[4] != 0 {
		t.Fatal("replacement inherited the failed slot's error score")
	}

	// A rotted unit whose heal the disk refuses costs two points, one for
	// the damage and one for the failed rewrite, and the read still returns
	// the reconstructed bytes.
	n := int64(0)
	if layout.DataLoc(s.lay, n).Disk == 4 { // the replacement, under no hook
		n++
	}
	u := layout.DataLoc(s.lay, n)
	rot(t, s, u)
	refused.Store(&u)
	verifyUnit(t, s, n, 5)
	if got := s.DiskErrors()[u.Disk]; got != 2 {
		t.Fatalf("a refused heal left disk %d scored %d, want 2", u.Disk, got)
	}
	if got := s.FailedDisks(); len(got) != 1 || got[0] != u.Disk {
		t.Fatalf("FailedDisks = %v, want [%d]", got, u.Disk)
	}
}
