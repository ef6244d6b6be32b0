package core

import (
	"bytes"
	"strings"
	"testing"

	"declust/internal/metrics"
	"declust/internal/telemetry"
)

// faultyCfg returns smallCfg with every fault process turned on at
// accelerated rates.
func faultyCfg(g int) SimConfig {
	cfg := smallCfg(g)
	cfg.FaultSeed = 7
	// Heavily accelerated: the 1/50-scale drives hold only a few MB, so
	// per-GB rates must be huge to see arrivals in a 22-second run.
	cfg.LSERatePerGBHour = 100_000
	cfg.TransientRate = 0.02
	cfg.ScrubIntervalMS = 20
	return cfg
}

// TestDormantFaultConfigDoesNotPerturb checks the no-perturbation
// contract: a fault seed with zero rates must leave the run identical —
// same responses, same event count — to a config with no fault fields at
// all, and must not register any fault metric.
func TestDormantFaultConfigDoesNotPerturb(t *testing.T) {
	base, err := RunFaultFree(smallCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg(5)
	cfg.FaultSeed = 12345 // seed set, every rate zero
	reg := metrics.NewRegistry()
	cfg.Metrics = reg
	dormant, err := RunFaultFree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base != dormant {
		t.Fatalf("dormant fault config changed the run:\n%+v\n%+v", base, dormant)
	}
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fault_", "scrub_", "array_transient", "array_latent", "array_lost"} {
		if strings.Contains(prom.String(), name) {
			t.Fatalf("fault-free export contains %q metrics:\n%s", name, prom.String())
		}
	}
}

// TestFaultRunsAreDeterministic checks the determinism contract with every
// fault process active: identical config and seeds produce byte-identical
// metric exports and span traces.
func TestFaultRunsAreDeterministic(t *testing.T) {
	run := func() (Metrics, string, string) {
		cfg := faultyCfg(5)
		reg := metrics.NewRegistry()
		cfg.Metrics = reg
		cfg.Spans = telemetry.New()
		m, err := RunDegraded(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var prom, spans bytes.Buffer
		if err := reg.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Spans.WriteJSONL(&spans, nil); err != nil {
			t.Fatal(err)
		}
		return m, prom.String(), spans.String()
	}
	m1, p1, e1 := run()
	m2, p2, e2 := run()
	if m1 != m2 {
		t.Fatalf("same seeds, different metrics:\n%+v\n%+v", m1, m2)
	}
	if p1 != p2 {
		t.Error("Prometheus exports differ between identical fault runs")
	}
	if e1 != e2 {
		t.Error("span exports differ between identical fault runs")
	}
	if m1.LSEArrivals == 0 {
		t.Error("accelerated LSE rate injected nothing")
	}
	if m1.TransientRetries == 0 {
		t.Error("transient rate caused no retries")
	}
}

// TestScrubRepairsDuringRun checks that the background scrubber finds and
// repairs latent errors under load: with scrubbing on, repairs happen and
// the array drains consistent (checked inside the run).
func TestScrubRepairsDuringRun(t *testing.T) {
	cfg := faultyCfg(5)
	cfg.TransientRate = 0 // isolate the LSE/scrub interaction
	m, err := RunFaultFree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.LSEArrivals == 0 {
		t.Fatal("no latent errors injected")
	}
	if m.ScrubErrorsFound == 0 {
		t.Error("scrubber surfaced no latent errors")
	}
	if m.LatentRepairs == 0 {
		t.Error("no latent error was repaired")
	}
	if m.LostUnits != 0 {
		t.Errorf("fault-free array lost %d units from single latent errors", m.LostUnits)
	}
}

// TestReconstructionUnderFaults runs the full rebuild with every fault
// process on: the sweep must complete and the post-run consistency check
// (inside RunReconstruction) must pass despite media errors and timeouts.
func TestReconstructionUnderFaults(t *testing.T) {
	cfg := faultyCfg(5)
	cfg.ReconProcs = 4
	m, err := RunReconstruction(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.ReconTimeMS <= 0 {
		t.Fatalf("reconstruction did not complete: %+v", m)
	}
	if m.TransientRetries == 0 {
		t.Error("no transient retries during reconstruction run")
	}
}

// TestLifecycleRealSecondFailures drives the lifecycle hard enough that
// second failures land during degraded windows, and checks they are real:
// stripes are enumerated as lost (not merely counted as risks) and the
// declustered layout loses only a fraction of the at-risk stripes.
func TestLifecycleRealSecondFailures(t *testing.T) {
	cfg := lifecycleCfg()
	cfg.ReplacementDelayMS = 30_000 // long exposure windows
	rep, err := RunLifecycle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DoubleFailures == 0 {
		t.Fatal("no second failures in an accelerated run with 30 s swap lag")
	}
	if rep.StripesAtRisk == 0 {
		t.Fatal("second failures found no stripes at risk")
	}
	if rep.StripesLost == 0 {
		t.Fatal("second failures lost no stripes")
	}
	if rep.UnitsLost < 2*rep.StripesLost {
		t.Fatalf("%d units lost over %d lost stripes; want >= 2 per stripe",
			rep.UnitsLost, rep.StripesLost)
	}
	// Declustering's partial-loss advantage: on average a second failure
	// loses about α of the at-risk stripes, far from all of them.
	frac := float64(rep.StripesLost) / float64(rep.StripesAtRisk)
	if frac >= 0.75 {
		t.Errorf("declustered layout lost %.0f%% of at-risk stripes; expected a small fraction", 100*frac)
	}
}

// TestLifecycleReplacementFailureRestartsRebuild makes reconstruction slow
// enough that some failure arrivals land on the replacement itself, and
// checks the run survives the restart chain.
func TestLifecycleReplacementFailureRestartsRebuild(t *testing.T) {
	cfg := lifecycleCfg()
	cfg.Sim.ReconProcs = 1
	cfg.Sim.ReconThrottleCyclesPerSec = 10 // rebuild dominated by throttle
	cfg.MTTFHours = 0.02                   // ~72 s per disk
	rep, err := RunLifecycle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReplacementFailures == 0 {
		t.Fatal("no replacement died mid-rebuild despite slow reconstruction")
	}
	if rep.Failures == 0 || rep.Availability <= 0 {
		t.Fatalf("implausible report: %+v", rep)
	}
}

// TestLifecycleWithFaultInjectionDeterministic exercises the whole stack —
// disk failures, LSEs, scrubbing, transients, second failures — and checks
// the report is reproducible.
func TestLifecycleWithFaultInjectionDeterministic(t *testing.T) {
	cfg := lifecycleCfg()
	cfg.ReplacementDelayMS = 20_000
	cfg.Sim.FaultSeed = 11
	cfg.Sim.LSERatePerGBHour = 5_000
	cfg.Sim.TransientRate = 0.01
	cfg.Sim.ScrubIntervalMS = 50
	a, err := RunLifecycle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLifecycle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seeds, different lifecycle reports:\n%+v\n%+v", a, b)
	}
}
