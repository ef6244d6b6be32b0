package array

import (
	"math"
	"math/rand"
	"testing"

	"declust/internal/blockdesign"
	"declust/internal/disk"
	"declust/internal/drive"
	"declust/internal/fault"
	"declust/internal/layout"
	"declust/internal/sim"
)

// regionFault is a scripted disk.FaultHook: reads overlapping one sector
// region media-error until a write overlaps it (remapping the sectors).
type regionFault struct {
	start  int64
	count  int
	healed bool
}

func (r *regionFault) hook(start int64, count int, write bool) disk.Status {
	if r.healed || start+int64(count) <= r.start || r.start+int64(r.count) <= start {
		return disk.OK
	}
	if write {
		r.healed = true
		return disk.OK
	}
	return disk.MediaError
}

// markBadUnit scripts a latent error covering one whole unit of one slot.
func markBadUnit(a *Array, loc layout.Loc) *regionFault {
	r := &regionFault{start: a.unitSector(loc.Offset), count: a.cfg.UnitSectors}
	a.Disk(loc.Disk).SetFaultHook(r.hook, 50)
	return r
}

// dataUnitOn finds a data unit living on the given disk slot.
func dataUnitOn(t *testing.T, a *Array, d int) (int64, layout.Loc) {
	t.Helper()
	for n := int64(0); n < a.DataUnits(); n++ {
		if loc := layout.DataLoc(a.Layout(), n); loc.Disk == d {
			return n, loc
		}
	}
	t.Fatalf("no data unit on disk %d", d)
	return 0, layout.Loc{}
}

func TestReconstructErrorPaths(t *testing.T) {
	eng, a := testArray(t, nil)
	if err := a.Reconstruct(nil); err == nil {
		t.Fatal("reconstruct with no failure accepted")
	}
	a.Fail(3)
	if err := a.Reconstruct(nil); err == nil {
		t.Fatal("reconstruct with no replacement accepted")
	}
	a.Replace()
	if err := a.Reconstruct(func() {}); err != nil {
		t.Fatal(err)
	}
	if err := a.Reconstruct(nil); err == nil {
		t.Fatal("re-entrant reconstruct accepted")
	}
	eng.Run()
	if a.Degraded() {
		t.Fatal("array not healed")
	}
}

func TestInterruptAndReplacementFailureValidation(t *testing.T) {
	_, a := testArray(t, nil)
	if err := a.InterruptRecon(); err == nil {
		t.Fatal("interrupt with no reconstruction accepted")
	}
	if err := a.FailReplacement(); err == nil {
		t.Fatal("replacement failure with no replacement accepted")
	}
	a.Fail(1)
	if err := a.FailReplacement(); err == nil {
		t.Fatal("replacement failure before Replace accepted")
	}
}

func TestSecondFailValidation(t *testing.T) {
	_, a := testArray(t, nil)
	if _, err := a.SecondFail(1); err == nil {
		t.Fatal("second failure on healthy array accepted")
	}
	a.Fail(4)
	if _, err := a.SecondFail(4); err == nil {
		t.Fatal("second failure of the failed disk accepted")
	}
	if _, err := a.SecondFail(99); err == nil {
		t.Fatal("second failure of nonexistent disk accepted")
	}
}

// A media error on a user read is repaired from parity: the value returned
// is correct, the repair is charged, and the array stays consistent. The
// repair reads what layout's decode rule reads for the one erasure.
func TestReadMediaErrorRepairsFromParity(t *testing.T) {
	bothCodes(t, func(t *testing.T, m int) {
		eng, a := arrayOf(t, 5, m, nil)
		unit, loc := dataUnitOn(t, a, 5)
		r := markBadUnit(a, loc)
		got := make([]uint64, 1)
		a.ReadRange(unit, got, func() {})
		eng.Run()
		if got[0] != a.ExpectedValue(unit) {
			t.Fatalf("read through media error got %#x, want %#x", got[0], a.ExpectedValue(unit))
		}
		if !r.healed {
			t.Fatal("repair did not rewrite the bad region")
		}
		fs := a.FaultStats()
		if fs.MediaErrors == 0 || fs.LatentRepairs != 1 || fs.LostUnits != 0 {
			t.Fatalf("fault stats %+v: want a repaired media error, no loss", fs)
		}
		// 1 failed read, the same read again under the stripe lock, the
		// decode's sources (G−1 under P, G−2 under P+Q) and 1 rewrite.
		if n, want := totalCompleted(a), int64(2+a.Layout().G()-m+1); n != want {
			t.Fatalf("repairing read used %d accesses, want %d", n, want)
		}
		if err := a.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	})
}

// A read whose disk fails under it, with or without a replacement
// installed at once, returns the unit's value. One that read clean
// returns what the platter held; one that met a media error is not read
// again under the stripe lock: the unit is lost, so the read decodes it
// from its stripe's survivors, as a read of a lost unit does.
func TestReadOnDiskFailingInFlight(t *testing.T) {
	for _, c := range []struct {
		name            string
		latent, replace bool
	}{
		{"media-error", true, false},
		{"media-error-replaced", true, true},
		{"clean-replaced", false, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			bothCodes(t, func(t *testing.T, m int) {
				eng, a := arrayOf(t, 5, m, nil)
				unit, loc := dataUnitOn(t, a, 5)
				want := int64(0)
				if c.latent {
					markBadUnit(a, loc)
					want = 1
				}
				got := make([]uint64, 1)
				a.ReadRange(unit, got, func() {})
				eng.Schedule(0.01, func() {
					if err := a.Fail(loc.Disk); err != nil {
						t.Fatal(err)
					}
					if c.replace {
						if err := a.Replace(); err != nil {
							t.Fatal(err)
						}
					}
				})
				eng.Run()
				if fs := a.FaultStats(); fs.MediaErrors != want {
					t.Fatalf("fault stats %+v: want %d media errors, the read's own", fs, want)
				}
				if got[0] != a.ExpectedValue(unit) {
					t.Fatalf("read got %#x, want %#x", got[0], a.ExpectedValue(unit))
				}
				if err := a.CheckConsistency(); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// The small write (G = 3, single parity) writes its data unit beside its
// read of the other one, so when that read fails the old data a decode of
// the other unit needs is gone: the other unit is lost, not rebuilt from
// the new data and the old parity. The stripe is rewritten but for the
// unit just written, and the write goes on to write P.
func TestSmallWriteMeetingLatentOtherUnitLosesIt(t *testing.T) {
	eng, a := arrayOf(t, 3, 1, nil)
	const unit = 0
	loc := layout.DataLoc(a.Layout(), unit)
	stripe, _ := a.Layout().Locate(loc)
	other := layout.DataLoc(a.Layout(), unit+1)
	if s, _ := a.Layout().Locate(other); s != stripe {
		t.Fatalf("units %d and %d are not one stripe's", unit, unit+1)
	}
	r := markBadUnit(a, other)
	done := false
	a.WriteRange(unit, 1, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("write did not finish")
	}
	fs := a.FaultStats()
	if fs.LostUnits != 1 || fs.LatentRepairs != 0 {
		t.Fatalf("fault stats %+v: want one lost unit, no repair", fs)
	}
	if losses := a.DataLosses(); len(losses) != 1 || losses[0].Stripe != stripe || len(losses[0].Units) != 1 || losses[0].Units[0] != other {
		t.Fatalf("losses %+v: want one event on stripe %d naming %v", losses, stripe, other)
	}
	if !r.healed {
		t.Fatal("the stripe's rewrite did not remap the bad region")
	}
	// The failed read and the data write, the rewrite of the other unit
	// and P, and the write of P.
	if n := totalCompleted(a); n != 5 {
		t.Fatalf("small write over a latent unit used %d accesses, want 5", n)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// A media error on a survivor of a degraded single-parity stripe is beyond
// parity: the loss names both erasures, the unreadable survivor and the
// unit the read was decoding, as the sweep books the same stripe; the
// survivor is restored out of band, and the sim continues.
func TestDegradedSurvivorMediaErrorIsDataLoss(t *testing.T) {
	eng, a := testArray(t, nil)
	a.Fail(2)
	unit, loc := dataUnitOn(t, a, 2)
	surv := layout.RebuildSources(a.Layout(), loc)
	r := markBadUnit(a, surv[0])
	got := make([]uint64, 1)
	a.ReadRange(unit, got, func() {})
	eng.Run()
	if got[0] != a.ExpectedValue(unit) {
		t.Fatalf("degraded read got %#x, want %#x (out-of-band restore)", got[0], a.ExpectedValue(unit))
	}
	fs := a.FaultStats()
	if fs.LostUnits != 2 || fs.LatentRepairs != 0 {
		t.Fatalf("fault stats %+v: want two lost units, no repair", fs)
	}
	losses := a.DataLosses()
	stripe, _ := a.Layout().Locate(loc)
	if len(losses) != 1 || losses[0].Stripe != stripe || len(losses[0].Units) != 2 {
		t.Fatalf("losses %+v: want one 2-unit event on stripe %d", losses, stripe)
	}
	if !r.healed {
		t.Fatal("out-of-band restore did not rewrite the bad region")
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// A fold — a write of a lost unit — that meets an unreadable survivor: the
// written unit is an erasure, but it takes the written value, so under P
// the loss names the survivor alone; under P+Q the two erasures decode and
// the survivor is a latent repair.
func TestFoldSurvivorMediaError(t *testing.T) {
	bothCodes(t, func(t *testing.T, m int) {
		eng, a := arrayOf(t, 5, m, nil)
		a.Fail(2)
		unit, loc := dataUnitOn(t, a, 2)
		stripe, _ := a.Layout().Locate(loc)
		dp := int64(layout.DataPerStripe(a.Layout()))
		other := layout.DataLoc(a.Layout(), stripe*dp)
		if other == loc {
			other = layout.DataLoc(a.Layout(), stripe*dp+1)
		}
		r := markBadUnit(a, other)
		a.WriteRange(unit, 1, func() {})
		eng.Run()
		fs, losses := a.FaultStats(), a.DataLosses()
		if m == 1 {
			if fs.LostUnits != 1 || fs.LatentRepairs != 0 || len(losses) != 1 ||
				len(losses[0].Units) != 1 || losses[0].Units[0] != other {
				t.Fatalf("fault stats %+v, losses %+v: want the survivor %v alone lost", fs, losses, other)
			}
		} else if fs.LostUnits != 0 || fs.LatentRepairs != 1 || len(losses) != 0 {
			t.Fatalf("fault stats %+v, losses %+v: want one latent repair, no loss", fs, losses)
		}
		if !r.healed {
			t.Fatal("the unreadable survivor was not rewritten")
		}
		if err := a.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
		checkReadBack(t, eng, a, unit, 1)
	})
}

// The reconstruction sweep must survive an unreadable survivor, through the
// one repair path. Under P the stripe is past its budget: the cycle books
// one 2-unit loss (bad survivor + unit under rebuild) and restores the
// survivor. Under P+Q the two erasures decode: one latent repair, no loss.
// Either way the sweep keeps going to completion.
func TestReconSurvivesUnreadableSurvivor(t *testing.T) {
	bothCodes(t, func(t *testing.T, m int) {
		// rebuild fails disk 2 and rebuilds it, with the first source of one
		// of its data units unreadable when bad is set.
		rebuild := func(bad bool) (*Array, *regionFault, layout.Loc) {
			eng, a := arrayOf(t, 5, m, nil)
			a.Fail(2)
			_, loc := dataUnitOn(t, a, 2)
			var r *regionFault
			if bad {
				r = markBadUnit(a, layout.RebuildSources(a.Layout(), loc)[0])
			}
			a.Replace()
			if err := a.Reconstruct(nil); err != nil {
				t.Fatal(err)
			}
			eng.Run()
			return a, r, loc
		}
		clean, _, _ := rebuild(false)
		a, r, loc := rebuild(true)
		if a.Degraded() {
			t.Fatal("reconstruction did not complete")
		}
		fs := a.FaultStats()
		stripe, _ := a.Layout().Locate(loc)
		losses := a.DataLosses()
		if m == 1 {
			if fs.LostUnits != 2 || fs.LatentRepairs != 0 {
				t.Fatalf("fault stats %+v: want LostUnits 2 (bad survivor + unit under rebuild), no repair", fs)
			}
			if len(losses) != 1 || losses[0].Stripe != stripe || len(losses[0].Units) != 2 {
				t.Fatalf("losses %+v: want one 2-unit event on stripe %d", losses, stripe)
			}
		} else if fs.LostUnits != 0 || fs.LatentRepairs != 1 || len(losses) != 0 {
			t.Fatalf("fault stats %+v, losses %+v: want one latent repair, no loss", fs, losses)
		}
		// Beyond a clean sweep's accesses: under P+Q, the bad survivor's
		// rewrite and the one source of the repair the sweep cycle had not
		// read (Q); under P, the lost stripe's rewrite, every unit but the
		// one under rebuild, G−1. The cycle's clean reads are not repeated.
		want := int64(2)
		if m == 1 {
			want = int64(a.Layout().G() - 1)
		}
		if got := totalCompleted(a) - totalCompleted(clean); got != want {
			t.Fatalf("the bad survivor cost %d accesses (%d against %d), want %d",
				got, totalCompleted(a), totalCompleted(clean), want)
		}
		if !r.healed {
			t.Fatal("restore did not rewrite the bad survivor")
		}
		if err := a.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	})
}

// InterruptRecon keeps the checkpoint: the resumed sweep only recycles the
// remaining units, and across both runs each lost unit is cycled once.
func TestInterruptReconResumesFromCheckpoint(t *testing.T) {
	eng, a := testArray(t, nil)
	a.Fail(4)
	a.Replace()
	if err := a.Reconstruct(nil); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(5000)
	if err := a.InterruptRecon(); err != nil {
		t.Fatal(err)
	}
	eng.Run() // drain in-flight disk requests; their continuations die
	partial := a.ReconCycles()
	done, total := a.ReconProgress()
	if partial == 0 || done == 0 || done == total {
		t.Fatalf("interrupt at %d/%d after %d cycles: want a genuine partial state", done, total, partial)
	}
	if a.Reconstructing() || !a.Degraded() {
		t.Fatal("interrupted array in wrong state")
	}
	healed := false
	if err := a.Reconstruct(func() { healed = true }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !healed || a.Degraded() {
		t.Fatal("resumed reconstruction did not heal the array")
	}
	if got := a.ReconCycles(); got != total {
		t.Fatalf("%d cycles across both runs, want %d (no unit swept twice)", got, total)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// FailReplacement mid-rebuild discards progress (the next drive is blank):
// a fresh Replace + Reconstruct starts over and completes consistently.
func TestReplacementFailureRestartsRebuild(t *testing.T) {
	eng, a := testArray(t, nil)
	a.Fail(4)
	a.Replace()
	if err := a.Reconstruct(nil); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(5000)
	firstRun := a.ReconCycles()
	_, totalBefore := a.ReconProgress()
	if firstRun == 0 || firstRun >= totalBefore {
		t.Fatalf("replacement died after %d/%d cycles: want a genuine partial state", firstRun, totalBefore)
	}
	if err := a.FailReplacement(); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if a.Reconstructing() || !a.Degraded() {
		t.Fatal("array state wrong after replacement failure")
	}
	if err := a.Replace(); err != nil {
		t.Fatal(err)
	}
	if err := a.Reconstruct(nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if a.Degraded() {
		t.Fatal("restarted reconstruction did not heal the array")
	}
	_, totalAfter := a.ReconProgress()
	if totalAfter != totalBefore {
		t.Fatalf("restart swept %d units, want the full %d (blank disk)", totalAfter, totalBefore)
	}
	if got, want := a.ReconCycles(), firstRun+totalAfter; got != want {
		t.Fatalf("%d cycles in total, want %d (full restart after %d)", got, want, firstRun)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// Declustering's partial-loss claim: a second failure with no rebuild
// progress loses exactly α = (G−1)/(C−1) of the at-risk stripes.
func TestSecondFailureDeclusteredLosesAlphaFraction(t *testing.T) {
	_, a := testArray(t, nil)
	a.Fail(0)
	df, err := a.SecondFail(1)
	if err != nil {
		t.Fatal(err)
	}
	if df.StripesAtRisk == 0 || df.StripesLost == 0 {
		t.Fatalf("double failure %+v: want at-risk and lost stripes", df)
	}
	l := a.Layout()
	alpha := float64(l.G()-1) / float64(l.Disks()-1)
	frac := float64(df.StripesLost) / float64(df.StripesAtRisk)
	if math.Abs(frac-alpha)/alpha > 0.20 {
		t.Fatalf("lost fraction %.4f, want within 20%% of α=%.4f", frac, alpha)
	}
	if df.UnitsLost < 2*df.StripesLost {
		t.Fatalf("UnitsLost %d < 2×StripesLost %d", df.UnitsLost, df.StripesLost)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// RAID5 (G = C) has every stripe on every disk: a second failure loses all
// at-risk stripes.
func TestSecondFailureRaid5LosesEverything(t *testing.T) {
	_, a := raid5Array(t, 5, nil)
	a.Fail(0)
	df, err := a.SecondFail(3)
	if err != nil {
		t.Fatal(err)
	}
	if df.StripesAtRisk != a.Stripes() {
		t.Fatalf("at-risk %d, want every stripe (%d)", df.StripesAtRisk, a.Stripes())
	}
	if df.StripesLost != df.StripesAtRisk {
		t.Fatalf("RAID5 lost %d of %d at-risk stripes, want all", df.StripesLost, df.StripesAtRisk)
	}
}

// Rebuild progress shrinks the second failure's damage: stripes whose lost
// unit is already on the replacement are no longer at risk.
func TestSecondFailureAfterPartialRebuildLosesLess(t *testing.T) {
	eng, a := testArray(t, nil)
	a.Fail(0)
	full := func() DoubleFailure {
		df, err := a.SecondFail(1)
		if err != nil {
			t.Fatal(err)
		}
		return df
	}
	before := full()
	a.Replace()
	if err := a.Reconstruct(nil); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(10000)
	a.InterruptRecon()
	eng.Run()
	after := full()
	if done, _ := a.ReconProgress(); done == 0 {
		t.Fatal("no rebuild progress; test is vacuous")
	}
	if after.StripesAtRisk >= before.StripesAtRisk || after.StripesLost >= before.StripesLost {
		t.Fatalf("partial rebuild did not shrink exposure: before %+v, after %+v", before, after)
	}
}

// The scrubber finds and repairs a latent error the workload never touches.
func TestScrubRepairsLatentError(t *testing.T) {
	eng, a := testArray(t, nil)
	_, loc := dataUnitOn(t, a, 7)
	r := markBadUnit(a, loc)
	if err := a.StartScrub(5); err != nil {
		t.Fatal(err)
	}
	if err := a.StartScrub(5); err == nil {
		t.Fatal("double StartScrub accepted")
	}
	if err := a.StartScrub(0); err == nil {
		t.Fatal("zero scrub spacing accepted")
	}
	// One stripe per 5 ms: a full pass over all stripes plus slack.
	eng.RunUntil(float64(a.Stripes())*5 + 10000)
	a.StopScrub()
	eng.Run()
	if !r.healed {
		t.Fatal("scrub never repaired the latent error")
	}
	ss := a.ScrubStats()
	if ss.ErrorsFound != 1 || ss.UnitsScanned == 0 {
		t.Fatalf("scrub stats %+v: want the one planted error found", ss)
	}
	fs := a.FaultStats()
	if fs.LatentRepairs != 1 || fs.LostUnits != 0 {
		t.Fatalf("fault stats %+v: want one repair, no loss", fs)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// End-to-end with the real injector: transient timeouts retry invisibly
// and a random workload completes consistently.
func TestTransientTimeoutsRetryToCompletion(t *testing.T) {
	d, err := blockdesign.PaperDesign(5)
	if err != nil {
		t.Fatal(err)
	}
	l, err := layout.NewDeclustered(d)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	geom := drive.IBM0661().Scaled(100)
	inj, err := fault.New(eng, geom, l.Disks(), fault.Config{
		Seed: 7, TransientRate: 0.2, TimeoutMS: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(eng, Config{
		Layout: l, Geom: geom, UnitSectors: 8,
		ReconProcs: 1, Faults: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	completed := 0
	for i := 0; i < 500; i++ {
		unit := rng.Int63n(a.DataUnits())
		when := rng.Float64() * 5000
		if rng.Intn(2) == 0 {
			eng.At(when, func() { a.ReadRange(unit, make([]uint64, 1), func() { completed++ }) })
		} else {
			eng.At(when, func() { a.WriteRange(unit, 1, func() { completed++ }) })
		}
	}
	eng.Run()
	if completed != 500 {
		t.Fatalf("%d/500 operations completed", completed)
	}
	if fs := a.FaultStats(); fs.Retries == 0 {
		t.Fatal("no retries at a 20% transient rate")
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
