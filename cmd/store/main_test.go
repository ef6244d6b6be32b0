package main

import (
	"strings"
	"testing"
	"time"
)

// TestRunMemScenario drives the full lifecycle (fill, fault-free load,
// failure, degraded load, rebuild under load, heal, verify) on a small
// in-memory array with short phases.
func TestRunMemScenario(t *testing.T) {
	var out strings.Builder
	cfg := config{
		c: 7, g: 3, units: 64, unitSize: 512,
		backend: "mem", clients: 4, phaseSecs: 0.05,
		readFrac: 0.5, throttle: 50 * time.Microsecond, failDisk: 2,
		ioWorkers: 8, rebuildWork: 4,
	}
	if err := run(cfg, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"fault-free", "degraded", "rebuilding", "healed", "verify: OK",
		"8 io-workers, 4 rebuild-workers", "lifecycle summary", "wall-clock",
		"overlap: ", "issued inline, device latency",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

// TestRunFileScenario exercises the file-backed backend end to end in a
// temp directory.
func TestRunFileScenario(t *testing.T) {
	var out strings.Builder
	cfg := config{
		c: 5, g: 5, units: 40, unitSize: 512,
		backend: "file", dir: t.TempDir(), clients: 2, phaseSecs: 0.03,
		readFrac: 0.5, failDisk: 0,
	}
	if err := run(cfg, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "verify: OK") {
		t.Fatalf("output missing verification verdict:\n%s", out.String())
	}
}

// TestRunFaultScenario turns on the fault injectors (with a fixed seed)
// and expects the lifecycle to survive: scrubs run, damage heals, and the
// final byte-for-byte verification still passes.
func TestRunFaultScenario(t *testing.T) {
	var out strings.Builder
	cfg := config{
		c: 7, g: 3, units: 64, unitSize: 512,
		backend: "mem", clients: 4, phaseSecs: 0.05,
		readFrac: 0.5, failDisk: 2,
		faults: true, chaosSeed: 12345, retries: 6,
	}
	if err := run(cfg, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"fault injection on", "pre-failure scrub", "final scrub", "robustness:", " units lost, ", "verify: OK"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

// TestRunFileFaultScenario combines the file backend (intent log, Sync)
// with fault injection.
func TestRunFileFaultScenario(t *testing.T) {
	var out strings.Builder
	cfg := config{
		c: 5, g: 5, units: 40, unitSize: 512,
		backend: "file", dir: t.TempDir(), clients: 2, phaseSecs: 0.03,
		readFrac: 0.5, failDisk: 0,
		transient: 0.02, torn: 0.01, chaosSeed: 99, retries: 6, scrub: true,
	}
	if err := run(cfg, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "verify: OK") {
		t.Fatalf("output missing verification verdict:\n%s", out.String())
	}
}

// TestRunPQTwoFailureScenario drives the dual-parity lifecycle: fill,
// fault-free load, two live disk failures with singly- and
// doubly-degraded load windows between them, both rebuilds racing load,
// and the byte-for-byte verification — with the fault injectors on.
func TestRunPQTwoFailureScenario(t *testing.T) {
	var out strings.Builder
	cfg := config{
		c: 7, g: 4, units: 64, unitSize: 512,
		backend: "mem", clients: 4, phaseSecs: 0.05,
		readFrac: 0.5, throttle: 50 * time.Microsecond,
		parities: 2, failDisk: 2, fail2: 5,
		faults: true, chaosSeed: 4242, retries: 6,
		ioWorkers: 8, rebuildWork: 4,
	}
	if err := run(cfg, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"code P+Q", "degraded-2", "rebuilding-1", "rebuilding-2",
		"rebuild d2", "rebuild d5",
		"rebuild of disk 2 complete", "rebuild of disk 5 complete",
		"lifecycle summary (code P+Q", "verify: OK",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

// TestRunPQFileScenario exercises P+Q on the file backend (intent log,
// two replacement files) without fault injection.
func TestRunPQFileScenario(t *testing.T) {
	var out strings.Builder
	cfg := config{
		c: 7, g: 4, units: 40, unitSize: 512,
		backend: "file", dir: t.TempDir(), clients: 2, phaseSecs: 0.03,
		readFrac: 0.5, parities: 2, failDisk: 1, fail2: 4,
	}
	if err := run(cfg, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "verify: OK") {
		t.Fatalf("output missing verification verdict:\n%s", out.String())
	}
}

// TestRunRejectsBadParities checks dual-parity argument validation.
func TestRunRejectsBadParities(t *testing.T) {
	base := config{
		c: 7, g: 4, units: 64, unitSize: 512,
		backend: "mem", clients: 1, phaseSecs: 0.01, failDisk: 2,
	}
	bad := base
	bad.parities = 3
	var out strings.Builder
	if err := run(bad, &out); err == nil {
		t.Fatal("expected error for -parities 3")
	}
	dup := base
	dup.parities = 2
	dup.fail2 = 2 // same as failDisk
	if err := run(dup, &out); err == nil {
		t.Fatal("expected error for -fail2 == -fail")
	}
	oor := base
	oor.parities = 2
	oor.fail2 = 7
	if err := run(oor, &out); err == nil {
		t.Fatal("expected error for out-of-range -fail2")
	}
}

// TestRunRejectsBadFailDisk checks argument validation: each of these used
// to reach the engine (or a divide by zero) instead of a flag error.
func TestRunRejectsBadFailDisk(t *testing.T) {
	base := config{
		c: 7, g: 3, units: 64, unitSize: 512,
		backend: "mem", clients: 1, phaseSecs: 0.01, readFrac: 0.5, failDisk: 2,
	}
	for _, tc := range []struct {
		flag string
		set  func(*config)
	}{
		{"-fail", func(c *config) { c.failDisk = 7 }},
		{"-clients", func(c *config) { c.clients = 0 }},
		{"-clients", func(c *config) { c.clients = 100000 }}, // more than data units
		{"-read", func(c *config) { c.readFrac = -0.1 }},
		{"-read", func(c *config) { c.readFrac = 1.5 }},
		{"-secs", func(c *config) { c.phaseSecs = -1 }},
		{"-units", func(c *config) { c.units = 0 }},                      // the store's default, a 0-unit replacement
		{"-units", func(c *config) { c.units = -1000; c.faults = true }}, // NewMemDisk panicked
		{"-transient", func(c *config) { c.transient = 1.5 }},            // NewFaultDisk panicked
		{"-torn", func(c *config) { c.torn = 1 }},
		{"-lse", func(c *config) { c.lse = -0.2 }}, // the run went fault-free
		{"-corrupt", func(c *config) { c.corrupt = -0.01 }},
	} {
		cfg := base
		tc.set(&cfg)
		var out strings.Builder
		err := run(cfg, &out)
		if err == nil || !strings.Contains(err.Error(), tc.flag+" ") {
			t.Errorf("run(%+v) = %v, want an error naming %s", cfg, err, tc.flag)
		}
	}
}
