package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"declust/internal/core"
	"declust/internal/telemetry"
)

// Phase-attribution experiment: rerun the paper's three operating modes
// (fault-free, degraded, reconstructing) with span tracing on and decompose
// the measured user response time by cause — drive queue wait, mechanical
// service, stripe lock wait, on-the-fly reconstruction, and the portion of
// queue wait spent behind rebuild I/O ("interference"). The paper reports
// that declustering buys its rebuild speed with user interference; this
// table shows exactly where those milliseconds sit, per α.

// PhaseModes is the sweep order of the operating modes.
var PhaseModes = []string{"faultfree", "degraded", "rebuild"}

// PhasePoint is one (α, mode) sample of the attribution study.
type PhasePoint struct {
	G     int
	Alpha float64
	Mode  string
	Attr  telemetry.Attribution
}

// ExtPhases runs the attribution sweep at the paper's heavy rate (210
// accesses/s, 50% reads) over gs × PhaseModes. When spansDir is non-empty,
// each point's raw spans are written there as
// phases_g<G>_<mode>.spans.jsonl for cmd/tracestat.
func ExtPhases(o Options, gs []int, spansDir string) ([]PhasePoint, Table, error) {
	o = o.withDefaults()
	if gs == nil {
		gs = []int{4, 10, 21} // α = 0.15, 0.45, 1.0
	}
	t := Table{ID: "ext-phases",
		Title: "Per-phase latency attribution (rate 210, 50% reads): mean ms per user request",
		Header: []string{"alpha", "G", "mode", "response", "queue", "interfere",
			"service", "seek", "rotate", "xfer", "lockwait", "otf"}}
	type job struct {
		g    int
		mode string
	}
	var jobs []job
	for _, g := range gs {
		for _, mode := range PhaseModes {
			jobs = append(jobs, job{g, mode})
		}
	}
	pts, err := RunPoints(o.Workers, len(jobs), func(i int) (PhasePoint, error) {
		j := jobs[i]
		cfg := o.simConfig(j.g, 210, 0.5)
		tr := telemetry.New()
		cfg.Spans = tr
		mode := j.mode
		if mode == "rebuild" { // this table's spelling of recon, kept in its file names
			mode = "recon"
		}
		if _, err := core.RunMode(mode, cfg); err != nil {
			return PhasePoint{}, fmt.Errorf("ext-phases G=%d %s: %w", j.g, j.mode, err)
		}
		if spansDir != "" {
			name := filepath.Join(spansDir, fmt.Sprintf("phases_g%d_%s.spans.jsonl", j.g, j.mode))
			f, err := os.Create(name)
			if err != nil {
				return PhasePoint{}, fmt.Errorf("ext-phases G=%d %s: %w", j.g, j.mode, err)
			}
			meta := &telemetry.Meta{C: 21, G: j.g, Alpha: alphaOf(j.g), Mode: j.mode, Seed: o.Seed}
			if err := tr.WriteJSONL(f, meta); err != nil {
				f.Close()
				return PhasePoint{}, fmt.Errorf("ext-phases G=%d %s: %w", j.g, j.mode, err)
			}
			if err := f.Close(); err != nil {
				return PhasePoint{}, fmt.Errorf("ext-phases G=%d %s: %w", j.g, j.mode, err)
			}
		}
		return PhasePoint{G: j.g, Alpha: alphaOf(j.g), Mode: j.mode,
			Attr: telemetry.Attribute(tr.Spans())}, nil
	})
	if err != nil {
		return nil, t, err
	}
	for _, p := range pts {
		a := p.Attr
		t.Rows = append(t.Rows, []string{
			f2(p.Alpha), fmt.Sprint(p.G), p.Mode,
			f1(a.MeanResponseMS), f1(a.QueueMS), f1(a.InterferenceMS),
			f1(a.ServiceMS), f1(a.SeekMS), f1(a.RotateMS), f1(a.TransferMS),
			f1(a.LockWaitMS), f1(a.OTFMS),
		})
	}
	return pts, t, nil
}
