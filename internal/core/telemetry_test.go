package core

import (
	"testing"

	"declust/internal/telemetry"
)

// TestSpanTracingDoesNotPerturb is the tracing-off/on twin of
// TestInstrumentationDoesNotPerturb: span tracing observes completions and
// stamps simulated time but schedules nothing, so every result — including
// the engine event count — must be identical with and without it.
func TestSpanTracingDoesNotPerturb(t *testing.T) {
	bare, err := RunReconstruction(smallCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg(5)
	cfg.Spans = telemetry.New()
	traced, err := RunReconstruction(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bare.MeanResponseMS != traced.MeanResponseMS ||
		bare.ReconTimeMS != traced.ReconTimeMS ||
		bare.Requests != traced.Requests ||
		bare.SimEndMS != traced.SimEndMS ||
		bare.EngineEvents != traced.EngineEvents {
		t.Errorf("span tracing perturbed the run:\nbare   %+v\ntraced %+v", bare, traced)
	}
}

// TestSpanStreamShape checks the traced reconstruction run emits the span
// structure the attribution analysis depends on: measured user roots
// matching the request count, recon-cycle roots matching the cycle count,
// disk segments tied to real drives, and well-formed parent/trace links.
func TestSpanStreamShape(t *testing.T) {
	cfg := smallCfg(5)
	tr := telemetry.New()
	cfg.Spans = tr
	m, err := RunReconstruction(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	roots := map[uint64]telemetry.Span{}
	measured, cycles := 0, int64(0)
	for _, sp := range spans {
		if sp.EndMS < sp.StartMS {
			t.Fatalf("span ends before it starts: %+v", sp)
		}
		if sp.Parent == 0 {
			roots[sp.ID] = sp
			if sp.Measured {
				measured++
			}
			if sp.Name == telemetry.SpanReconCycle {
				cycles++
				if sp.Kind != telemetry.KindRecon {
					t.Fatalf("recon cycle with kind %q", sp.Kind)
				}
			}
		}
		if sp.Disk >= cfg.C {
			t.Fatalf("segment on nonexistent disk: %+v", sp)
		}
	}
	if measured != m.Requests {
		t.Errorf("%d measured root spans, want %d (one per measured request)", measured, m.Requests)
	}
	if cycles != int64(m.ReconCycles) {
		t.Errorf("%d recon-cycle spans, want %d", cycles, m.ReconCycles)
	}
	// Children must point at a root that completed, and the phases that
	// every reconstruction run exercises must all appear.
	seen := map[string]bool{}
	for _, sp := range spans {
		seen[sp.Name] = true
		if sp.Parent != 0 {
			if r, ok := roots[sp.Trace]; !ok {
				// The trace root may legitimately be missing only for
				// abandoned recon cycles, which never End.
				if sp.Kind != telemetry.KindRecon {
					t.Fatalf("user child span with no completed root: %+v", sp)
				}
			} else if r.Trace != sp.Trace {
				t.Fatalf("trace mismatch: %+v under %+v", sp, r)
			}
		}
	}
	for _, want := range []string{
		telemetry.SegQueue, telemetry.SegSeek, telemetry.SegRotate, telemetry.SegTransfer,
		telemetry.PhaseLockWait, telemetry.PhaseReconRead, telemetry.PhaseReconWrit,
	} {
		if !seen[want] {
			t.Errorf("span name %q never emitted", want)
		}
	}

	// The whole pipeline: attribution over a real run is self-consistent.
	a := telemetry.Attribute(spans)
	if a.Requests != m.Requests {
		t.Errorf("attribution requests %d, want %d", a.Requests, m.Requests)
	}
	if a.MeanResponseMS <= 0 || a.QueueMS < 0 || a.ServiceMS <= 0 {
		t.Errorf("degenerate attribution: %+v", a)
	}
	if a.InterferenceMS > a.QueueMS {
		t.Errorf("interference %v exceeds queue wait %v", a.InterferenceMS, a.QueueMS)
	}
	if a.InterferenceMS <= 0 {
		t.Error("reconstruction run shows zero rebuild interference")
	}
}

// TestSpanDeterminism: same seed, same config — byte-identical span logs.
func TestSpanDeterminism(t *testing.T) {
	do := func() []telemetry.Span {
		cfg := smallCfg(5)
		tr := telemetry.New()
		cfg.Spans = tr
		if _, err := RunReconstruction(cfg); err != nil {
			t.Fatal(err)
		}
		return tr.Spans()
	}
	a, b := do(), do()
	if len(a) != len(b) {
		t.Fatalf("span counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("span %d differs between identical runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// TestOnLiveSnapshots drives the live-status ticker through a
// reconstruction run and checks the periodic snapshots are sane and
// deterministic.
func TestOnLiveSnapshots(t *testing.T) {
	do := func() []telemetry.Progress {
		cfg := smallCfg(5)
		var snaps []telemetry.Progress
		cfg.OnLive = func(st telemetry.Progress) { snaps = append(snaps, st) }
		if _, err := RunReconstruction(cfg); err != nil {
			t.Fatal(err)
		}
		return snaps
	}
	snaps := do()
	if len(snaps) < 3 {
		t.Fatalf("only %d live snapshots for a multi-second run", len(snaps))
	}
	var sawRecon bool
	for i, st := range snaps {
		if i > 0 && st.SimMS <= snaps[i-1].SimMS {
			t.Fatalf("snapshot %d time went backwards: %v after %v", i, st.SimMS, snaps[i-1].SimMS)
		}
		if len(st.DiskUtil) != 21 || len(st.DiskQueue) != 21 {
			t.Fatalf("snapshot %d sized for %d/%d disks, want 21", i, len(st.DiskUtil), len(st.DiskQueue))
		}
		for d, u := range st.DiskUtil {
			if u < 0 || u > 1.000001 {
				t.Fatalf("snapshot %d disk %d utilization %v out of [0,1]", i, d, u)
			}
		}
		if st.ReconTotal > 0 {
			sawRecon = true
			if st.ReconDone < 0 || st.ReconDone > st.ReconTotal {
				t.Fatalf("snapshot %d recon %d/%d", i, st.ReconDone, st.ReconTotal)
			}
		}
	}
	if !sawRecon {
		t.Error("no snapshot reported reconstruction progress")
	}

	again := do()
	if len(again) != len(snaps) {
		t.Fatalf("snapshot counts differ between identical runs: %d vs %d", len(snaps), len(again))
	}
	for i := range snaps {
		if snaps[i].SimMS != again[i].SimMS || snaps[i].Requests != again[i].Requests {
			t.Fatalf("snapshot %d differs between identical runs", i)
		}
	}
}
