package core

import (
	"strings"
	"testing"

	"declust/internal/array"
	"declust/internal/trace"
)

func TestNewMappingRaid5(t *testing.T) {
	m, err := NewMapping(21, 21, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Design != nil || m.Alpha() != 1 {
		t.Fatalf("RAID 5 mapping wrong: %s", m.Describe())
	}
	if !strings.Contains(m.Describe(), "RAID 5") {
		t.Fatalf("describe: %s", m.Describe())
	}
}

func TestNewMappingDeclustered(t *testing.T) {
	for _, g := range []int{3, 4, 5, 6, 10, 18} {
		m, err := NewMapping(21, g, 0)
		if err != nil {
			t.Fatalf("G=%d: %v", g, err)
		}
		if m.Design == nil || !m.Exact || m.G != g {
			t.Fatalf("G=%d: %s", g, m.Describe())
		}
		want := float64(g-1) / 20
		if m.Alpha() != want {
			t.Fatalf("G=%d: α=%v want %v", g, m.Alpha(), want)
		}
		crit, err := m.Criteria()
		if err != nil {
			t.Fatal(err)
		}
		if !crit.SingleFailureCorrecting || !crit.DistributedReconstruction || !crit.DistributedParity {
			t.Fatalf("G=%d fails core criteria: %+v", g, crit)
		}
	}
}

func TestNewMappingParityOverhead(t *testing.T) {
	m, _ := NewMapping(21, 5, 0)
	if m.ParityOverhead() != 0.2 {
		t.Fatalf("overhead %v, want 0.2", m.ParityOverhead())
	}
}

func TestNewMappingClosestFallback(t *testing.T) {
	m, err := NewMapping(41, 5, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if m.Exact {
		t.Fatalf("expected inexact fallback: %s", m.Describe())
	}
	if !strings.Contains(m.Describe(), "closest feasible") {
		t.Fatalf("describe should flag fallback: %s", m.Describe())
	}
}

func TestNewMappingRejects(t *testing.T) {
	for _, c := range []struct{ C, G int }{{1, 1}, {5, 6}, {0, 0}} {
		if _, err := NewMapping(c.C, c.G, 0); err == nil {
			t.Errorf("NewMapping(%d,%d) accepted", c.C, c.G)
		}
	}
}

// smallCfg returns a fast configuration: 1/50-scale disks, short windows.
func smallCfg(g int) SimConfig {
	return SimConfig{
		C: 21, G: g,
		ScaleNum: 1, ScaleDen: 50,
		RatePerSec:   105,
		ReadFraction: 0.5,
		Seed:         42,
		WarmupMS:     2_000,
		MeasureMS:    20_000,
	}
}

func TestRunFaultFree(t *testing.T) {
	m, err := RunFaultFree(smallCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests < 1000 {
		t.Fatalf("only %d requests measured", m.Requests)
	}
	// One random 4 KB access takes ~22 ms; a lightly loaded array's mean
	// response (reads 1 access, writes 4 over 2 disks with queueing)
	// should land well under 200 ms and above 15 ms.
	if m.MeanResponseMS < 15 || m.MeanResponseMS > 200 {
		t.Fatalf("fault-free mean response %v ms implausible", m.MeanResponseMS)
	}
	if m.ReconTimeMS != 0 {
		t.Fatal("fault-free run reports reconstruction time")
	}
}

func TestRunDegradedSlowerReadsThanFaultFree(t *testing.T) {
	cfg := smallCfg(5)
	cfg.ReadFraction = 1.0
	ff, err := RunFaultFree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := RunDegraded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dg.MeanResponseMS <= ff.MeanResponseMS {
		t.Fatalf("degraded reads (%v ms) not slower than fault-free (%v ms)",
			dg.MeanResponseMS, ff.MeanResponseMS)
	}
}

func TestRunReconstructionCompletesAndReports(t *testing.T) {
	cfg := smallCfg(5)
	cfg.ReconProcs = 4
	m, err := RunReconstruction(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.ReconTimeMS <= 0 || m.ReconCycles == 0 {
		t.Fatalf("missing reconstruction metrics: %+v", m)
	}
	if m.ReadPhaseMeanMS <= 0 || m.WritePhaseMeanMS <= 0 {
		t.Fatalf("missing phase metrics: %+v", m)
	}
	if m.Requests == 0 {
		t.Fatal("no user requests measured during reconstruction")
	}
}

func TestDeclusteredReconstructsFasterThanRaid5(t *testing.T) {
	// The headline claim (Figures 8-1/8-2): at a low declustering ratio
	// the array reconstructs much faster than RAID 5 under load.
	declust := smallCfg(5)
	declust.RatePerSec = 105
	raid5 := declust
	raid5.G = 21
	md, err := RunReconstruction(declust)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := RunReconstruction(raid5)
	if err != nil {
		t.Fatal(err)
	}
	if md.ReconTimeMS >= mr.ReconTimeMS {
		t.Fatalf("declustered recon (%v ms) not faster than RAID 5 (%v ms)",
			md.ReconTimeMS, mr.ReconTimeMS)
	}
	if md.MeanResponseMS >= mr.MeanResponseMS {
		t.Fatalf("declustered response (%v ms) not better than RAID 5 (%v ms)",
			md.MeanResponseMS, mr.MeanResponseMS)
	}
}

func TestRunsAreDeterministic(t *testing.T) {
	a, err := RunFaultFree(smallCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFaultFree(smallCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
}

// TestReconTailPhases: a reconstruction run reports Table 8-1's figures —
// the cycle phases over the sweep's last 300 cycles — beside the
// whole-sweep ones, and the two differ once the sweep is longer than that.
func TestReconTailPhases(t *testing.T) {
	m, err := RunReconstruction(smallCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	if m.ReadTailMeanMS <= 0 || m.WriteTailMeanMS <= 0 {
		t.Fatalf("tail phases not measured: read %v(%v) write %v(%v)",
			m.ReadTailMeanMS, m.ReadTailStdMS, m.WriteTailMeanMS, m.WriteTailStdMS)
	}
	if m.ReconCycles <= 300 {
		t.Fatalf("sweep of %d cycles cannot tell a tail from the whole", m.ReconCycles)
	}
	if m.ReadTailMeanMS == m.ReadPhaseMeanMS && m.WriteTailMeanMS == m.WritePhaseMeanMS {
		t.Error("tail figures equal the whole-sweep ones")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	cfg := smallCfg(5)
	cfg.RatePerSec = 0
	if _, err := RunFaultFree(cfg); err == nil {
		t.Fatal("zero rate accepted")
	}
	cfg = smallCfg(5)
	cfg.C, cfg.G = 3, 9
	if _, err := RunFaultFree(cfg); err == nil {
		t.Fatal("G > C accepted")
	}
}

func TestTraceCaptureAndReplay(t *testing.T) {
	// Capture a trace from a synthetic run, then replay it: the replayed
	// run must see the same number of accesses with the same op mix, and
	// produce comparable response times.
	var log trace.Log
	cfg := smallCfg(5)
	cfg.CaptureTrace = &log
	orig, err := RunFaultFree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if log.Len() != orig.Requests {
		t.Fatalf("captured %d records for %d requests", log.Len(), orig.Requests)
	}

	rep, err := trace.NewReplayer(&log)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := smallCfg(5)
	cfg2.Source = rep
	replayed, err := RunFaultFree(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Requests == 0 {
		t.Fatal("replay produced no measured requests")
	}
	// Same arrival process and addresses on the same array: means within
	// 30% (boundary effects differ at window edges).
	ratio := replayed.MeanResponseMS / orig.MeanResponseMS
	if ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("replayed mean %.1f ms vs original %.1f ms (ratio %.2f)",
			replayed.MeanResponseMS, orig.MeanResponseMS, ratio)
	}
}

func TestSparedMapping(t *testing.T) {
	m, err := NewSparedMapping(21, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.G != 5 || m.Design.K != 6 {
		t.Fatalf("spared mapping G=%d design k=%d, want 5/6", m.G, m.Design.K)
	}
	// Redundancy overhead: parity + spare = 2 of every 6 slots.
	if got := m.ParityOverhead(); got < 0.33 || got > 0.34 {
		t.Fatalf("spared overhead %v, want ~1/3", got)
	}
	if _, err := NewSparedMapping(5, 5, 0); err == nil {
		t.Fatal("G+1 > C accepted")
	}
}

func TestRunReconstructionWithDistributedSparing(t *testing.T) {
	cfg := smallCfg(5)
	cfg.DistributedSparing = true
	cfg.ReconProcs = 8
	m, err := RunReconstruction(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.ReconTimeMS <= 0 || m.Requests == 0 {
		t.Fatalf("sparing reconstruction metrics missing: %+v", m)
	}
}

func TestAllAlgorithmsRunReconstruction(t *testing.T) {
	for _, alg := range []array.ReconAlgorithm{array.Baseline, array.UserWrites, array.Redirect, array.RedirectPiggyback} {
		cfg := smallCfg(5)
		cfg.Algorithm = alg
		cfg.ReconProcs = 8
		if _, err := RunReconstruction(cfg); err != nil {
			t.Errorf("%v: %v", alg, err)
		}
	}
}
