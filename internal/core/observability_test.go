package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"declust/internal/metrics"
	"declust/internal/telemetry"
)

// instrumentedCfg returns a fast reconstruction configuration with every
// instrumentation surface enabled: registry, time-series sampling, JSONL
// tracing, and progress callbacks.
func instrumentedCfg(events *bytes.Buffer) (SimConfig, *metrics.Registry) {
	cfg := smallCfg(5)
	reg := metrics.NewRegistry()
	cfg.Metrics = reg
	cfg.SampleEveryMS = 500
	cfg.Tracer = metrics.NewJSONL(events)
	return cfg, reg
}

// TestInstrumentationDeterminism runs the same reconstruction twice with
// full instrumentation and demands byte-identical exports: same Prometheus
// text, same CSV time series, same JSONL event stream, same final clock and
// engine event count. This is the repo's determinism contract extended to
// the observability layer — instrumentation may only read simulation state,
// never perturb it.
func TestInstrumentationDeterminism(t *testing.T) {
	type run struct {
		prom, csv, events string
		simEnd            float64
		engineEvents      uint64
		progressReports   int
	}
	do := func() run {
		var ev bytes.Buffer
		cfg, reg := instrumentedCfg(&ev)
		reports := 0
		cfg.LiveEveryMS = 500
		cfg.OnLive = func(telemetry.Progress) { reports++ }
		m, err := RunReconstruction(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Tracer.(*metrics.JSONL).Flush(); err != nil {
			t.Fatal(err)
		}
		var prom, csv bytes.Buffer
		if err := reg.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		if err := reg.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		return run{
			prom: prom.String(), csv: csv.String(), events: ev.String(),
			simEnd: m.SimEndMS, engineEvents: m.EngineEvents,
			progressReports: reports,
		}
	}

	a, b := do(), do()
	if a.prom != b.prom {
		t.Error("Prometheus exports differ between identical runs")
	}
	if a.csv != b.csv {
		t.Error("CSV time-series exports differ between identical runs")
	}
	if a.events != b.events {
		t.Error("JSONL event streams differ between identical runs")
	}
	if a.simEnd != b.simEnd || a.engineEvents != b.engineEvents {
		t.Errorf("final state differs: sim end %v/%v ms, events %d/%d",
			a.simEnd, b.simEnd, a.engineEvents, b.engineEvents)
	}
	if a.progressReports == 0 || a.progressReports != b.progressReports {
		t.Errorf("progress reports %d/%d, want equal and nonzero",
			a.progressReports, b.progressReports)
	}

	// Spot-check the exports carry the expected content.
	if !strings.Contains(a.prom, "array_recon_cycles") ||
		!strings.Contains(a.prom, `recon_survivor_reads{disk="1"}`) ||
		!strings.Contains(a.prom, "user_response_ms_bucket") {
		t.Error("Prometheus export missing expected metrics")
	}
	if !strings.Contains(a.csv, "disk_util") {
		t.Error("CSV export missing disk utilization series")
	}
}

// TestInstrumentationDoesNotPerturb verifies that enabling the full
// instrumentation stack leaves the simulation's results untouched: the
// same seed with and without a registry/tracer must report identical user
// response times and reconstruction time.
func TestInstrumentationDoesNotPerturb(t *testing.T) {
	bare, err := RunReconstruction(smallCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	var ev bytes.Buffer
	cfg, _ := instrumentedCfg(&ev)
	inst, err := RunReconstruction(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bare.MeanResponseMS != inst.MeanResponseMS ||
		bare.ReconTimeMS != inst.ReconTimeMS ||
		bare.Requests != inst.Requests {
		t.Errorf("instrumentation perturbed the run: bare (mean %v, recon %v, n %d) vs instrumented (mean %v, recon %v, n %d)",
			bare.MeanResponseMS, bare.ReconTimeMS, bare.Requests,
			inst.MeanResponseMS, inst.ReconTimeMS, inst.Requests)
	}
	// The sampler adds engine events (the cadence ticks) but only reads
	// state; it may extend the drained clock to its next tick boundary,
	// never more than one sample period past the bare run's end.
	if inst.SimEndMS < bare.SimEndMS || inst.SimEndMS > bare.SimEndMS+cfg.SampleEveryMS {
		t.Errorf("sim end %v ms bare vs %v ms instrumented (cadence %v ms)",
			bare.SimEndMS, inst.SimEndMS, cfg.SampleEveryMS)
	}
}

// TestJSONLEventStream checks the traced reconstruction lifecycle: exactly
// one recon_start and one recon_done, cycle events with sane phases, and
// access events whose completion never precedes arrival.
func TestJSONLEventStream(t *testing.T) {
	var ev bytes.Buffer
	cfg, _ := instrumentedCfg(&ev)
	if _, err := RunReconstruction(cfg); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Tracer.(*metrics.JSONL).Flush(); err != nil {
		t.Fatal(err)
	}
	starts, dones, cycles, accesses := 0, 0, 0, 0
	for _, line := range strings.Split(strings.TrimSpace(ev.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		switch rec["ev"] {
		case metrics.EvReconStart:
			starts++
		case metrics.EvReconDone:
			dones++
		case metrics.EvReconCycle:
			cycles++
			if rec["read_ms"].(float64) <= 0 || rec["write_ms"].(float64) <= 0 {
				t.Fatalf("recon cycle with non-positive phase: %q", line)
			}
		case metrics.EvAccess:
			accesses++
			if rec["done_ms"].(float64) < rec["arrive_ms"].(float64) {
				t.Fatalf("access completes before arrival: %q", line)
			}
		}
	}
	if starts != 1 || dones != 1 {
		t.Errorf("recon start/done events = %d/%d, want 1/1", starts, dones)
	}
	if cycles == 0 || accesses == 0 {
		t.Errorf("cycles=%d accesses=%d, want both nonzero", cycles, accesses)
	}
}

// TestReconReadLoadBalance checks the instrumented survivor read counts
// show the declustered layout's even rebuild load: every surviving disk
// reads the same number of units and the failed disk reads none.
func TestReconReadLoadBalance(t *testing.T) {
	var ev bytes.Buffer
	cfg, reg := instrumentedCfg(&ev)
	if _, err := RunReconstruction(cfg); err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	// RunReconstruction fails disk 0; survivors are 1..20. The failed
	// slot's counter is exported as 0, every survivor's must be equal.
	var want string
	lines := 0
	for _, line := range strings.Split(prom.String(), "\n") {
		if !strings.HasPrefix(line, `recon_survivor_reads{disk="`) {
			continue
		}
		lines++
		val := line[strings.LastIndex(line, " ")+1:]
		if strings.HasPrefix(line, `recon_survivor_reads{disk="0"}`) {
			if val != "0" {
				t.Errorf("failed disk 0 read %s survivor units, want 0", val)
			}
			continue
		}
		if want == "" {
			want = val
		} else if val != want {
			t.Fatalf("uneven survivor read load: %q vs %q (line %q)", val, want, line)
		}
	}
	if lines != 21 {
		t.Fatalf("%d survivor read counters exported, want 21", lines)
	}
	if want == "0" || want == "" {
		t.Fatalf("survivor read counts missing or zero (got %q)", want)
	}
}
