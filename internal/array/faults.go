package array

import (
	"fmt"
	"slices"

	"declust/internal/layout"
)

// FaultStats counts the array driver's fault handling.
type FaultStats struct {
	// Retries counts transient timeouts absorbed by backoff-and-retry.
	Retries int64
	// MediaErrors counts transfers that surfaced a latent sector error.
	MediaErrors int64
	// LatentRepairs counts units rebuilt from parity after a media error.
	LatentRepairs int64
	// LostUnits counts units the redundancy could not rebuild — real data
	// loss, restored out of band so the simulation can continue.
	LostUnits int64
}

// FaultStats returns a copy of the fault counters.
func (a *Array) FaultStats() FaultStats { return a.fstats }

// DataLossEvent records one stripe losing more units than its code can
// rebuild: under single parity a media error on a survivor of a degraded
// stripe, or two media errors in one stripe; under P+Q a third erasure.
type DataLossEvent struct {
	TMS    float64
	Stripe int64
	// Units are the stripe's erasures at the time of loss, unreadable or
	// lost, bar a unit the operation that met them was overwriting.
	Units []layout.Loc
}

// DataLosses returns a copy of the recorded per-stripe loss events.
// Whole-disk double failures are summarized in DoubleFailures instead of
// being expanded to one event per stripe.
func (a *Array) DataLosses() []DataLossEvent {
	out := make([]DataLossEvent, len(a.lossEvents))
	copy(out, a.lossEvents)
	return out
}

// recordLoss books n units beyond the code's reach. The model's contents
// are not erased — the continuation rewrites the units "from backup" — so
// consistency checks stay meaningful while the loss is fully accounted.
func (a *Array) recordLoss(n int64) {
	a.fstats.LostUnits += n
	a.mLostUnits.Add(n)
}

// repairThen continues an operation whose read phase may have surfaced
// media errors: with none it continues immediately, otherwise it repairs
// under the already-held stripe lock first. phase is that read phase, whose
// clean reads the repair need not repeat; written lists the data units the
// operation goes on to overwrite (nil unless it is a write).
func (a *Array) repairThen(stripe int64, fails, phase []xfer, written []target, prio int, cont func()) {
	if len(fails) == 0 {
		cont()
		return
	}
	a.repairLocked(stripe, fails, phase, written, prio, cont)
}

// repairLocked is the one path of an unreadable unit, its stripe lock
// held. The stripe's erasures are its unreadable units, its lost ones
// (unavailable, on the failed disk) and any unit the caller's phase wrote:
// the small write writes its data unit beside its one read, so when that
// read fails the old contents a decode would need are gone. Within the code's budget — one for
// single parity, two for P+Q — each unreadable unit is a latent repair:
// the decode needs exactly layout.RebuildSources of the erasure set, and
// reads those of them not yet read clean under this lock hold — by the
// caller's phase (a write in the phase holds no value) or by an earlier
// round — then the unreadable units are rewritten. A source found
// unreadable joins the erasure set, and the decode asks again. Past the
// budget the stripe is lost, as the store loses one (loseStripe in
// internal/store): the data units not yet read are read, and any of them
// unreadable is an erasure too; one DataLossEvent names every erasure
// except a unit the operation overwrites (a fold's written unit takes new
// contents, so nothing of it is lost); and every available unit of the
// stripe the phase did not just write is rewritten, as if from backup, so
// the simulation, like the array operator, carries on. A rewrite remaps
// the latent sectors either way.
func (a *Array) repairLocked(stripe int64, fails, phase []xfer, written []target, prio int, cont func()) {
	var clean []layout.Loc // read clean under this lock hold
	for _, x := range phase {
		if !x.write && !slices.ContainsFunc(fails, func(f xfer) bool { return f.loc == x.loc }) {
			clean = append(clean, x.loc)
		}
	}
	unread := func(locs []layout.Loc) []layout.Loc {
		return slices.DeleteFunc(locs, func(u layout.Loc) bool { return slices.Contains(clean, u) })
	}
	// readThen reads locs, which may be none, and hands on the ones found
	// unreadable; the rest join clean.
	readThen := func(locs []layout.Loc, then func(more []xfer)) {
		if len(locs) == 0 {
			then(nil)
			return
		}
		a.io(reads(locs), prio, func(more []xfer) {
			for _, u := range locs {
				if !slices.ContainsFunc(more, func(x xfer) bool { return x.loc == u }) {
					clean = append(clean, u)
				}
			}
			then(more)
		})
	}
	rewrite := func(locs []layout.Loc) {
		xs := make([]xfer, len(locs))
		for i, u := range locs {
			xs[i] = xfer{loc: u, write: true}
		}
		a.io(xs, prio, func(_ []xfer) { cont() })
	}
	wrote := func(u layout.Loc) bool {
		return slices.ContainsFunc(phase, func(x xfer) bool { return x.write && x.loc == u })
	}
	erasedBy := func(fails []xfer) []layout.Loc {
		var erased []layout.Loc
		for j := 0; j < a.lay.G(); j++ {
			u := a.lay.Unit(stripe, j)
			if !a.available(u) || wrote(u) || slices.ContainsFunc(fails, func(x xfer) bool { return x.loc == u }) {
				erased = append(erased, u)
			}
		}
		return erased
	}
	var round func(fails []xfer)
	round = func(fails []xfer) {
		erased := erasedBy(fails)
		if len(erased) > a.parities {
			var data []layout.Loc
			for d := 0; d < layout.DataPerStripe(a.lay); d++ {
				if u := a.lay.Unit(stripe, layout.DataPos(a.lay, stripe, d)); !slices.Contains(erased, u) {
					data = append(data, u)
				}
			}
			readThen(unread(data), func(more []xfer) {
				lost := slices.DeleteFunc(erasedBy(append(fails, more...)), func(u layout.Loc) bool {
					return slices.ContainsFunc(written, func(t target) bool { return t.loc == u })
				})
				if len(lost) > 0 {
					a.lossEvents = append(a.lossEvents, DataLossEvent{TMS: a.eng.Now(), Stripe: stripe, Units: lost})
					a.recordLoss(int64(len(lost)))
				}
				var all []layout.Loc
				for j := 0; j < a.lay.G(); j++ {
					if u := a.lay.Unit(stripe, j); a.available(u) && !wrote(u) {
						all = append(all, u)
					}
				}
				rewrite(all)
			})
			return
		}
		readThen(unread(layout.RebuildSources(a.lay, erased...)), func(more []xfer) {
			if len(more) > 0 {
				round(append(fails, more...))
				return
			}
			a.fstats.LatentRepairs += int64(len(fails))
			a.mRepairs.Add(int64(len(fails)))
			locs := make([]layout.Loc, len(fails))
			for i, x := range fails {
				locs[i] = x.loc
			}
			rewrite(locs)
		})
	}
	round(fails)
}

// DoubleFailure summarizes a true second whole-disk failure while the
// array is degraded: the event declustering's partial-loss advantage is
// about. Under single parity, declustering loses only the stripes with
// units on both failed disks — the balance property makes that fraction of
// the at-risk stripes exactly α = (G−1)/(C−1) — while RAID5 (G = C) loses
// every one. Under P+Q the two-erasure decode covers every such stripe:
// StripesLost collapses to zero and the double-dead stripes are counted
// in StripesSurvived instead.
type DoubleFailure struct {
	FirstDisk  int
	SecondDisk int
	TMS        float64
	// StripesAtRisk counts stripes that still had an unrecovered unit of
	// the first failure when the second disk died.
	StripesAtRisk int64
	// StripesLost and UnitsLost count stripes with more dead units than
	// the code corrects (two for single parity, three for P+Q), and those
	// dead units — data the redundancy cannot rebuild.
	StripesLost int64
	UnitsLost   int64
	// StripesSurvived counts stripes with two dead units that the P+Q
	// code still decodes — the stripes a single-parity layout would have
	// lost. Always zero under single parity.
	StripesSurvived int64
}

// DoubleFailures returns a copy of the recorded second-failure events.
func (a *Array) DoubleFailures() []DoubleFailure {
	out := make([]DoubleFailure, len(a.doubleFailures))
	copy(out, a.doubleFailures)
	return out
}

// SecondFail models disk d dying while the array is already degraded. It
// enumerates exactly which stripes lost two or more units — counting a
// unit dead when it is unrecovered from the first failure or physically
// lives on d (including reconstructed copies and spare units) — then
// models an immediate out-of-band restore of d (its modeled contents were
// never erased; its latent sectors are cleared), so the array returns to
// single-failure mode and recovery continues. The damage report is
// returned and retained (DoubleFailures, FaultStats.LostUnits).
func (a *Array) SecondFail(d int) (DoubleFailure, error) {
	if a.failed < 0 {
		return DoubleFailure{}, fmt.Errorf("array: not degraded; use Fail for the first failure")
	}
	if d == a.failed {
		return DoubleFailure{}, fmt.Errorf("array: disk %d is the already-failed disk", d)
	}
	if d < 0 || d >= len(a.disks) {
		return DoubleFailure{}, fmt.Errorf("array: no disk %d", d)
	}
	df := DoubleFailure{FirstDisk: a.failed, SecondDisk: d, TMS: a.eng.Now()}
	g := a.lay.G()
	for s := int64(0); s < a.numStripes; s++ {
		atRisk := false
		dead := 0
		for j := 0; j < g; j++ {
			u := a.lay.Unit(s, j)
			if !a.available(u) {
				atRisk = true
				dead++
				continue
			}
			if a.phys(u).Disk == d {
				dead++
			}
		}
		if atRisk {
			df.StripesAtRisk++
		}
		switch {
		case dead > a.parities:
			df.StripesLost++
			df.UnitsLost += int64(dead)
		case dead >= 2:
			df.StripesSurvived++
		}
	}
	a.doubleFailures = append(a.doubleFailures, df)
	a.recordLoss(df.UnitsLost)
	if a.cfg.Faults != nil {
		a.cfg.Faults.ResetDisk(d)
	}
	return df, nil
}

// FailReplacement models the replacement disk itself dying mid-rebuild:
// any running reconstruction aborts, the progress bitmap resets (the next
// drive arrives blank), and the slot reverts to failed-without-
// replacement. Install another drive with Replace and call Reconstruct to
// start over. Contrast InterruptRecon, which stops the sweep but keeps
// the replacement and the checkpoint.
func (a *Array) FailReplacement() error {
	if a.failed < 0 || !a.replacement {
		return fmt.Errorf("array: no replacement disk installed")
	}
	if a.reconActive {
		a.abortRecon()
	}
	a.replacement = false
	for i := range a.reconDone {
		a.reconDone[i] = false
	}
	return nil
}
