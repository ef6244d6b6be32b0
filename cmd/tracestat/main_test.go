package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"declust/internal/core"
	"declust/internal/telemetry"
)

// writeRun simulates one small reconstruction at parity stripe size g and
// writes its span log, returning the file path.
func writeRun(t *testing.T, dir string, g int, mode string) string {
	t.Helper()
	cfg := core.SimConfig{
		C: 21, G: g,
		Scale:        50,
		RatePerSec:   105,
		ReadFraction: 0.5,
		Seed:         42,
		WarmupMS:     2_000,
		MeasureMS:    10_000,
	}
	tr := telemetry.New()
	cfg.Spans = tr
	var err error
	switch mode {
	case "faultfree":
		_, err = core.RunFaultFree(cfg)
	case "degraded":
		_, err = core.RunDegraded(cfg)
	default:
		_, err = core.RunReconstruction(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	name := filepath.Join(dir, fmt.Sprintf("g%d_%s.spans.jsonl", g, mode))
	f, err := os.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	meta := &telemetry.Meta{C: 21, G: g, Alpha: float64(g-1) / 20, Mode: mode, Seed: 42}
	if err := tr.WriteJSONL(f, meta); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return name
}

// TestAttributionAcrossAlphas is the end-to-end acceptance path: three
// rebuild runs at different declustering ratios, summarized into one
// deterministic table ordered by α, each row decomposing the rebuild-mode
// response time into queue wait, service, and rebuild interference.
func TestAttributionAcrossAlphas(t *testing.T) {
	dir := t.TempDir()
	var files []string
	for _, g := range []int{4, 10, 21} {
		files = append(files, writeRun(t, dir, g, "rebuild"))
	}

	invoke := func(args ...string) string {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("tracestat exited %d\nstderr: %s", code, errb.String())
		}
		return out.String()
	}

	first := invoke(files...)
	// Argument order must not matter; repeated invocation must be
	// byte-identical.
	reversed := invoke(files[2], files[1], files[0])
	if first != reversed {
		t.Errorf("output depends on argument order:\n%s\nvs\n%s", first, reversed)
	}

	lines := strings.Split(strings.TrimSpace(first), "\n")
	if len(lines) != 5 { // header, rule, three rows
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), first)
	}
	for _, col := range []string{"alpha", "mode", "response", "queue", "interfere", "service", "lockwait"} {
		if !strings.Contains(lines[0], col) {
			t.Errorf("header missing %q: %s", col, lines[0])
		}
	}
	wantAlpha := []string{"0.15", "0.45", "1.00"}
	for i, row := range lines[2:] {
		fields := strings.Fields(row)
		if fields[0] != wantAlpha[i] {
			t.Errorf("row %d α = %s, want %s (rows not α-sorted)", i, fields[0], wantAlpha[i])
		}
		if fields[1] != "rebuild" {
			t.Errorf("row %d mode = %s", i, fields[1])
		}
	}
}

func TestModeOrderingAndPhases(t *testing.T) {
	dir := t.TempDir()
	// Same α, two modes: fault-free must sort before rebuild regardless of
	// argument order.
	ff := writeRun(t, dir, 5, "faultfree")
	rb := writeRun(t, dir, 5, "rebuild")

	var out, errb bytes.Buffer
	if code := run([]string{"-phases", rb, ff}, &out, &errb); code != 0 {
		t.Fatalf("tracestat exited %d\nstderr: %s", code, errb.String())
	}
	body := out.String()
	if ffRow, rbRow := strings.Index(body, "faultfree"), strings.Index(body, "rebuild"); ffRow > rbRow {
		t.Errorf("faultfree row printed after rebuild:\n%s", body)
	}
	// -phases appends per-file phase listings; the rebuild file must show
	// its reconstruction phases, the fault-free file must not.
	if !strings.Contains(body, telemetry.PhaseReconRead) || !strings.Contains(body, telemetry.PhaseReconWrit) {
		t.Errorf("-phases listing missing reconstruction phases:\n%s", body)
	}
	if !strings.Contains(body, telemetry.SegQueue) {
		t.Errorf("-phases listing missing disk segments:\n%s", body)
	}
}

func TestBadInvocations(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Errorf("no arguments exited %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "no input files") {
		t.Errorf("usage hint missing: %s", errb.String())
	}
	errb.Reset()
	if code := run([]string{"does-not-exist.jsonl"}, &out, &errb); code != 1 {
		t.Errorf("missing file exited %d, want 1", code)
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{\"meta\":{}}\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	errb.Reset()
	if code := run([]string{bad}, &out, &errb); code != 1 {
		t.Errorf("corrupt file exited %d, want 1", code)
	}
}
