package core

import (
	"bytes"
	"strings"
	"testing"

	"declust/internal/metrics"
	"declust/internal/telemetry"
)

// instrumentedCfg returns a fast reconstruction configuration with every
// instrumentation surface enabled: registry, time-series sampling and span
// tracing (cfg.Spans). Tests add progress callbacks themselves.
func instrumentedCfg() (SimConfig, *metrics.Registry) {
	cfg := smallCfg(5)
	reg := metrics.NewRegistry()
	cfg.Metrics = reg
	cfg.SampleEveryMS = 500
	cfg.Spans = telemetry.New()
	return cfg, reg
}

// TestInstrumentationDeterminism runs the same reconstruction twice with
// full instrumentation and demands byte-identical exports: same Prometheus
// text, same CSV time series, same span export, same final clock and
// engine event count. This is the repo's determinism contract extended to
// the observability layer — instrumentation may only read simulation state,
// never perturb it.
func TestInstrumentationDeterminism(t *testing.T) {
	type run struct {
		prom, csv, spans string
		simEnd           float64
		engineEvents     uint64
		progressReports  int
	}
	do := func() run {
		cfg, reg := instrumentedCfg()
		reports := 0
		cfg.OnLive = func(telemetry.Progress) { reports++ }
		m, err := RunReconstruction(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var prom, csv, spans bytes.Buffer
		if err := reg.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		if err := reg.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Spans.WriteJSONL(&spans, nil); err != nil {
			t.Fatal(err)
		}
		return run{
			prom: prom.String(), csv: csv.String(), spans: spans.String(),
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
	if a.spans != b.spans {
		t.Error("span exports differ between identical runs")
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
// same seed with and without a registry and span tracer must report
// identical user response times and reconstruction time.
func TestInstrumentationDoesNotPerturb(t *testing.T) {
	bare, err := RunReconstruction(smallCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := instrumentedCfg()
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

// TestSpanStream checks the fully instrumented reconstruction's spans with
// exact counts: one measured read or write root per scored request, one
// recon-cycle root per completed cycle, each with exactly one
// read-survivors and one write-back child of positive duration inside it,
// and no span ending before it starts.
func TestSpanStream(t *testing.T) {
	cfg, _ := instrumentedCfg()
	m, err := RunReconstruction(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spans := cfg.Spans.Spans()
	measured := 0
	cycles := map[uint64]telemetry.Span{}
	for _, sp := range spans {
		if sp.EndMS < sp.StartMS {
			t.Fatalf("span ends before it starts: %+v", sp)
		}
		if sp.Parent != 0 {
			continue
		}
		switch {
		case sp.Measured && (sp.Kind == telemetry.KindRead || sp.Kind == telemetry.KindWrite):
			measured++
		case sp.Name == telemetry.SpanReconCycle:
			cycles[sp.ID] = sp
		}
	}
	if measured != m.Requests {
		t.Errorf("%d measured read/write roots, want %d requests", measured, m.Requests)
	}
	if int64(len(cycles)) != m.ReconCycles {
		t.Errorf("%d recon-cycle roots, want %d cycles", len(cycles), m.ReconCycles)
	}
	type phase struct {
		cycle uint64
		name  string
	}
	phases := map[phase]int{}
	for _, sp := range spans {
		root, ok := cycles[sp.Parent]
		if !ok || (sp.Name != telemetry.PhaseReconRead && sp.Name != telemetry.PhaseReconWrit) {
			continue
		}
		if sp.EndMS <= sp.StartMS || sp.StartMS < root.StartMS || sp.EndMS > root.EndMS {
			t.Fatalf("%s [%v, %v] not a positive interval inside its cycle [%v, %v]",
				sp.Name, sp.StartMS, sp.EndMS, root.StartMS, root.EndMS)
		}
		phases[phase{sp.Parent, sp.Name}]++
	}
	for id := range cycles {
		r, w := phases[phase{id, telemetry.PhaseReconRead}], phases[phase{id, telemetry.PhaseReconWrit}]
		if r != 1 || w != 1 {
			t.Fatalf("cycle %d has %d %s and %d %s children, want one of each",
				id, r, telemetry.PhaseReconRead, w, telemetry.PhaseReconWrit)
		}
	}
}

// TestReconReadLoadBalance checks the instrumented survivor read counts
// show the declustered layout's even rebuild load: every surviving disk
// reads the same number of units and the failed disk reads none.
func TestReconReadLoadBalance(t *testing.T) {
	cfg, reg := instrumentedCfg()
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
