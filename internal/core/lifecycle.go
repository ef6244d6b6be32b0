package core

import (
	"fmt"
	"math/rand"

	"declust/internal/stats"
)

// LifecycleConfig drives a long-horizon continuous-operation simulation:
// the array serves its user workload while disks fail at random, get
// replaced after a delay, and are reconstructed online — the scenario the
// paper's title describes. Disk lifetimes are exponential; MTTF is
// normally accelerated (hours, not years) so a simulation of minutes
// exercises many failure/repair cycles.
type LifecycleConfig struct {
	Sim SimConfig

	// MTTFHours is the mean time to failure of one disk in simulated
	// hours. Use small values (e.g. 0.5) to accelerate aging.
	MTTFHours float64
	// ReplacementDelayMS is the lag between a failure and the spare
	// being installed (0 = hot spare, installed immediately).
	ReplacementDelayMS float64
	// DurationMS is the simulated horizon.
	DurationMS float64
	// FailureSeed drives the failure process (workload keeps Sim.Seed).
	FailureSeed int64
}

// LifecycleReport summarizes a continuous-operation run.
type LifecycleReport struct {
	Failures int // disks failed (and repaired)

	// Second failures are real: a failure arrival during a degraded
	// window kills a second drive, and the array enumerates exactly
	// which stripes lost two units (declustering loses the fraction
	// α of the at-risk stripes; RAID 5 loses them all; the P+Q code
	// decodes every one, so StripesLost collapses to zero). The lost
	// data is restored out of band so the run continues.
	DoubleFailures  int   // surviving disks killed while degraded
	StripesAtRisk   int64 // stripes still exposed when the second disk died
	StripesLost     int64 // stripes with more dead units than the code corrects
	StripesSurvived int64 // double-dead stripes the P+Q code still decoded
	UnitsLost       int64 // units beyond redundancy, double failures and media errors alike

	// ReplacementFailures counts failure arrivals that landed on the
	// replacement disk mid-rebuild: the checkpoint is discarded (the
	// next drive arrives blank) and reconstruction restarts after a
	// fresh ReplacementDelayMS.
	ReplacementFailures int

	// DataLossEvents counts per-stripe loss events from media errors
	// (whole-disk double failures are summarized above instead).
	DataLossEvents int

	FaultFreeMS      float64
	DegradedMS       float64 // failed, replacement not yet installed
	ReconstructingMS float64

	// Availability is the fraction of time spent fault-free.
	Availability float64

	// Mean user response time by the array state at arrival.
	FaultFreeResponseMS float64
	DegradedResponseMS  float64
	ReconResponseMS     float64
	Requests            int
}

// RunLifecycle simulates the configured horizon and reports availability
// and per-state response times.
func RunLifecycle(cfg LifecycleConfig) (LifecycleReport, error) {
	if cfg.MTTFHours <= 0 {
		return LifecycleReport{}, fmt.Errorf("core: lifecycle needs positive MTTF, have %v", cfg.MTTFHours)
	}
	if cfg.DurationMS <= 0 {
		return LifecycleReport{}, fmt.Errorf("core: lifecycle needs positive duration, have %v", cfg.DurationMS)
	}
	if cfg.ReplacementDelayMS < 0 {
		return LifecycleReport{}, fmt.Errorf("core: negative replacement delay")
	}
	sim := cfg.Sim.withDefaults()
	r, err := newRunner(sim)
	if err != nil {
		return LifecycleReport{}, err
	}
	rng := rand.New(rand.NewSource(cfg.FailureSeed))
	mttfMS := cfg.MTTFHours * 3_600_000
	c := float64(r.arr.Layout().Disks())

	var rep LifecycleReport
	var ffResp, dgResp, rcResp stats.Sample

	// State tracking: 0 fault-free, 1 degraded (no recon yet), 2
	// reconstructing. stateSince marks the last transition; transitions
	// are kept so completions can be classified by their arrival state.
	state := 0
	stateSince := 0.0
	type transition struct {
		at    float64
		state int
	}
	history := []transition{{0, 0}}
	account := func(now float64) {
		span := now - stateSince
		switch state {
		case 0:
			rep.FaultFreeMS += span
		case 1:
			rep.DegradedMS += span
		case 2:
			rep.ReconstructingMS += span
		}
		stateSince = now
	}
	setState := func(s int) {
		account(r.eng.Now())
		state = s
		history = append(history, transition{r.eng.Now(), s})
	}
	stateAt := func(t float64) int {
		for i := len(history) - 1; i >= 0; i-- {
			if history[i].at <= t {
				return history[i].state
			}
		}
		return 0
	}

	// Response classification by arrival-time state.
	r.classify = func(start, end float64) {
		switch stateAt(start) {
		case 0:
			ffResp.Add(end - start)
		case 1:
			dgResp.Add(end - start)
		default:
			rcResp.Add(end - start)
		}
	}

	// installReplacement schedules the spare's arrival and the rebuild.
	// It is armed once per entry into the degraded state — on the first
	// failure, and again whenever the replacement itself dies.
	var installReplacement func()
	installReplacement = func() {
		r.eng.Schedule(cfg.ReplacementDelayMS, func() {
			if !r.arr.Degraded() {
				return // horizon policies could heal early; defensive
			}
			if err := r.arr.Replace(); err != nil {
				panic(err)
			}
			setState(2)
			err := r.arr.Reconstruct(func() {
				setState(0)
			})
			if err != nil {
				panic(err)
			}
		})
	}

	// Failure arrivals across C disks as one pooled stream at rate
	// C/MTTF — exponential inter-arrival times — re-armed unconditionally
	// after each arrival: disks keep dying whatever state the array is in.
	// Each arrival strikes a uniformly random slot.
	var onFailure func()
	scheduleFailure := func() {
		r.eng.Schedule(rng.ExpFloat64()*(mttfMS/c), onFailure)
	}
	onFailure = func() {
		if r.eng.Now() >= cfg.DurationMS {
			return
		}
		scheduleFailure()
		d := rng.Intn(int(c))
		switch {
		case !r.arr.Degraded():
			rep.Failures++
			if err := r.arr.Fail(d); err != nil {
				panic(err) // unreachable: guarded by Degraded above
			}
			setState(1)
			installReplacement()
		case d == r.arr.FailedDisk():
			if !r.arr.Reconstructing() {
				return // the arrival struck the already-dead drive
			}
			// The replacement died mid-rebuild: back to degraded, the
			// checkpoint is void, and a fresh spare restarts the sweep.
			rep.ReplacementFailures++
			if err := r.arr.FailReplacement(); err != nil {
				panic(err)
			}
			setState(1)
			installReplacement()
		default:
			// A true second failure: enumerate the stripes that lost two
			// units, then carry on (the lost data is restored out of
			// band, as the consistency model requires).
			rep.DoubleFailures++
			df, err := r.arr.SecondFail(d)
			if err != nil {
				panic(err) // unreachable: d alive and distinct from failed
			}
			rep.StripesAtRisk += df.StripesAtRisk
			rep.StripesLost += df.StripesLost
			rep.StripesSurvived += df.StripesSurvived
		}
	}

	r.from = 0
	r.startSampling()
	r.startFaults()
	r.pump()
	scheduleFailure()
	r.eng.RunUntil(cfg.DurationMS)
	r.stopped = true
	r.stopFaults()
	account(r.eng.Now())
	// Drain in-flight work (reconstruction may still be running; let it
	// finish so the consistency check sees a quiesced array).
	r.eng.Run()
	if err := r.arr.CheckConsistency(); err != nil {
		return LifecycleReport{}, fmt.Errorf("core: lifecycle consistency: %w", err)
	}
	r.exportFinal()

	total := rep.FaultFreeMS + rep.DegradedMS + rep.ReconstructingMS
	if total > 0 {
		rep.Availability = rep.FaultFreeMS / total
	}
	rep.FaultFreeResponseMS = ffResp.Mean()
	rep.DegradedResponseMS = dgResp.Mean()
	rep.ReconResponseMS = rcResp.Mean()
	rep.Requests = ffResp.N() + dgResp.N() + rcResp.N()
	rep.UnitsLost = r.arr.FaultStats().LostUnits
	rep.DataLossEvents = len(r.arr.DataLosses())
	return rep, nil
}
