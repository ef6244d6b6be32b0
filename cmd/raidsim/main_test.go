package main

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
)

// stripWallClock drops the one output line whose content depends on
// wall-clock time (events/s throughput).
func stripWallClock(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, "wall") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// goldenDir returns the directory golden outputs are written into: the
// RAIDSIM_GOLDEN_DIR environment variable when set (CI points it at a
// workspace path and uploads it as an artifact when a determinism test
// fails), else a per-test temp dir.
func goldenDir(t *testing.T) string {
	if dir := os.Getenv("RAIDSIM_GOLDEN_DIR"); dir != "" {
		sub := filepath.Join(dir, t.Name())
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		return sub
	}
	return t.TempDir()
}

// TestGoldenDeterminism runs the full command twice with every fault
// process enabled and requires byte-identical results: same stdout (modulo
// the wall-clock line), same Prometheus export, same span trace.
func TestGoldenDeterminism(t *testing.T) {
	dir := goldenDir(t)
	invoke := func(tag string) (string, []byte, []byte) {
		metrics := filepath.Join(dir, tag+".prom")
		spans := filepath.Join(dir, tag+".jsonl")
		args := []string{
			"-mode", "recon", "-c", "21", "-g", "5", "-scale", "50",
			"-rate", "105", "-reads", "0.5", "-procs", "4",
			"-warmup", "2", "-measure", "10",
			"-fault-seed", "7", "-lse-rate", "100000",
			"-transient-rate", "0.02", "-scrub-interval", "20",
			"-metrics", metrics, "-spans", spans,
		}
		var out, errb bytes.Buffer
		if err := run(args, &out, &errb); err != nil {
			t.Fatalf("run %s: %v\nstderr: %s", tag, err, errb.String())
		}
		prom, err := os.ReadFile(metrics)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := os.ReadFile(spans)
		if err != nil {
			t.Fatal(err)
		}
		// The export lines name their output files; normalize the paths.
		stdout := strings.ReplaceAll(out.String(), tag+".prom", "OUT.prom")
		stdout = strings.ReplaceAll(stdout, tag+".jsonl", "OUT.jsonl")
		return stripWallClock(stdout), prom, sp
	}
	out1, prom1, sp1 := invoke("a")
	out2, prom2, sp2 := invoke("b")
	if out1 != out2 {
		t.Errorf("stdout differs between identical runs:\n--- a ---\n%s\n--- b ---\n%s", out1, out2)
	}
	if !bytes.Equal(prom1, prom2) {
		t.Error("Prometheus exports differ between identical runs")
	}
	if !bytes.Equal(sp1, sp2) {
		t.Error("span traces differ between identical runs")
	}
	if len(sp1) == 0 {
		t.Error("span trace empty despite -spans")
	}
	for _, want := range []string{"faults:", "repairs:", "LSEs injected"} {
		if !strings.Contains(out1, want) {
			t.Errorf("fault summary missing %q in output:\n%s", want, out1)
		}
	}
}

// TestGoldenDeterminismPerScheduler repeats the golden check for every
// scheduling policy with read-ahead, demotion and age promotion all
// active: same seed and flags must reproduce stdout and the span trace
// byte for byte under each policy.
func TestGoldenDeterminismPerScheduler(t *testing.T) {
	for _, sched := range []string{"cvscan", "fifo", "sstf", "cscan"} {
		t.Run(sched, func(t *testing.T) {
			dir := goldenDir(t)
			invoke := func(tag string) (string, []byte) {
				spans := filepath.Join(dir, tag+".jsonl")
				args := []string{
					"-mode", "recon", "-c", "21", "-g", "5", "-scale", "50",
					"-rate", "105", "-reads", "0.5", "-procs", "4",
					"-warmup", "2", "-measure", "10",
					"-sched", sched, "-readahead", "2",
					"-prio", "demote", "-prio-age", "40", "-seq", "0.3",
					"-spans", spans,
				}
				var out, errb bytes.Buffer
				if err := run(args, &out, &errb); err != nil {
					t.Fatalf("run %s: %v\nstderr: %s", tag, err, errb.String())
				}
				sp, err := os.ReadFile(spans)
				if err != nil {
					t.Fatal(err)
				}
				stdout := strings.ReplaceAll(out.String(), tag+".jsonl", "OUT.jsonl")
				return stripWallClock(stdout), sp
			}
			out1, sp1 := invoke("a")
			out2, sp2 := invoke("b")
			if out1 != out2 {
				t.Errorf("stdout differs between identical -sched %s runs:\n--- a ---\n%s\n--- b ---\n%s",
					sched, out1, out2)
			}
			if !bytes.Equal(sp1, sp2) {
				t.Errorf("-sched %s span traces differ between identical runs", sched)
			}
			if !strings.Contains(out1, "sched:     "+sched) {
				t.Errorf("missing sched description line in output:\n%s", out1)
			}
			if !strings.Contains(out1, "disk cache:") {
				t.Errorf("missing disk cache line with -readahead 2:\n%s", out1)
			}
		})
	}
}

// TestExplicitSchedulingDefaultsMatchImplicit pins the compatibility
// contract: spelling out every scheduling default produces byte-identical
// output to not passing the flags at all (the pre-scheduler behaviour).
func TestExplicitSchedulingDefaultsMatchImplicit(t *testing.T) {
	invoke := func(extra ...string) string {
		args := append([]string{
			"-mode", "recon", "-c", "21", "-g", "5", "-scale", "50",
			"-rate", "105", "-reads", "0.5", "-procs", "4",
			"-warmup", "2", "-measure", "10",
		}, extra...)
		var out, errb bytes.Buffer
		if err := run(args, &out, &errb); err != nil {
			t.Fatalf("run %v: %v\nstderr: %s", extra, err, errb.String())
		}
		return stripWallClock(out.String())
	}
	implicit := invoke()
	explicit := invoke("-sched", "cvscan", "-readahead", "0", "-prio", "equal", "-prio-age", "0", "-seq", "0")
	if implicit != explicit {
		t.Errorf("explicit scheduling defaults diverge from implicit ones:\n--- implicit ---\n%s\n--- explicit ---\n%s",
			implicit, explicit)
	}
	if strings.Contains(implicit, "sched:") {
		t.Errorf("sched description line printed for a default run:\n%s", implicit)
	}
}

// TestSchedulerChangesServiceOrder requires the policies to actually take
// effect end to end: FIFO and SSTF runs of the same loaded configuration
// must report different response times.
func TestSchedulerChangesServiceOrder(t *testing.T) {
	invoke := func(sched string) string {
		args := []string{
			"-mode", "degraded", "-c", "21", "-g", "5", "-scale", "50",
			"-rate", "315", "-reads", "0.5",
			"-warmup", "2", "-measure", "10", "-sched", sched,
		}
		var out, errb bytes.Buffer
		if err := run(args, &out, &errb); err != nil {
			t.Fatalf("run -sched %s: %v\nstderr: %s", sched, err, errb.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "user response:") {
				return line
			}
		}
		t.Fatalf("no response line in output:\n%s", out.String())
		return ""
	}
	if fifo, sstf := invoke("fifo"), invoke("sstf"); fifo == sstf {
		t.Errorf("FIFO and SSTF produced identical response lines under load:\n%s", fifo)
	}
}

// TestSweepDeterministicAcrossWorkers runs the same sweep serially and
// fanned over 8 workers and requires byte-identical stdout: parallelism may
// only change wall-clock time, never a result.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	invoke := func(j string) string {
		args := []string{
			"-mode", "recon", "-c", "21", "-scale", "50",
			"-sweep-g", "3,5,11,21", "-sweep-rate", "105,210",
			"-rate", "105", "-reads", "0.5", "-procs", "4",
			"-warmup", "2", "-measure", "10", "-j", j,
		}
		var out, errb bytes.Buffer
		if err := run(args, &out, &errb); err != nil {
			t.Fatalf("run -j %s: %v\nstderr: %s", j, err, errb.String())
		}
		return out.String()
	}
	serial := invoke("1")
	parallel := invoke("8")
	if serial != parallel {
		t.Errorf("sweep output differs between -j 1 and -j 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
	if n := strings.Count(serial, "\n"); n < 10 {
		t.Errorf("sweep printed %d lines, want 8 point rows plus headers:\n%s", n, serial)
	}
}

// TestSweepRejectsPerRunOutputs keeps the single-run exporters out of sweep
// mode, where several simulations would race on one output file.
func TestSweepRejectsPerRunOutputs(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{"-sweep-g", "3,5", "-metrics", "x.txt"}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "sweep mode") {
		t.Fatalf("got %v, want sweep-mode rejection", err)
	}
}

// fastRun is a sub-second simulation for tests about raidsim's own plumbing.
var fastRun = []string{"-mode", "faultfree", "-scale", "50", "-warmup", "0.5", "-measure", "0.5"}

// TestBadOutputPathFailsBeforeRun: an output file that cannot be created
// fails the command before the simulation starts, not after it.
func TestBadOutputPathFailsBeforeRun(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing", "m.txt")
	var out, errb bytes.Buffer
	err := run(append([]string{"-metrics", missing}, fastRun...), &out, &errb)
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("got %v, want the open error for %s", err, missing)
	}
	if strings.Contains(out.String(), "user response") {
		t.Errorf("simulation ran before the bad path failed:\n%s", out.String())
	}
}

// TestFailedExportClosesItsFile: a write error on an export (ENOSPC from
// /dev/full) is returned, and the file is closed rather than leaked.
func TestFailedExportClosesItsFile(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts descriptors in /proc/self/fd")
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	args := append([]string{"-metrics", "/dev/full"}, fastRun...)
	invoke := func() error {
		var out, errb bytes.Buffer
		return run(args, &out, &errb)
	}
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	invoke() // the runtime opens its poller's descriptors on first use
	before := openFDs()
	if err := invoke(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("got %v, want ENOSPC", err)
	}
	if after := openFDs(); after > before {
		t.Errorf("%d descriptors open after the failed export, %d before", after, before)
	}
}

// TestSecondFailureReport checks the enumeration mode: declustered layouts
// report a lost fraction near α, RAID 5 reports total loss, and the output
// is deterministic (pure enumeration, no simulation).
func TestSecondFailureReport(t *testing.T) {
	var declustered bytes.Buffer
	if err := run([]string{"-second-failure", "-g", "5", "-scale", "50"}, &declustered, &declustered); err != nil {
		t.Fatal(err)
	}
	out := declustered.String()
	if !strings.Contains(out, "α = 0.200") {
		t.Errorf("missing α in declustered report:\n%s", out)
	}
	if !strings.Contains(out, "fraction 0.200") {
		t.Errorf("declustered lost fraction not 0.200:\n%s", out)
	}

	var raid5 bytes.Buffer
	if err := run([]string{"-second-failure", "-g", "21", "-scale", "50"}, &raid5, &raid5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(raid5.String(), "fraction 1.000") {
		t.Errorf("RAID 5 did not lose everything:\n%s", raid5.String())
	}

	var again bytes.Buffer
	if err := run([]string{"-second-failure", "-g", "5", "-scale", "50"}, &again, &again); err != nil {
		t.Fatal(err)
	}
	if again.String() != out {
		t.Error("second-failure report not deterministic")
	}
}

// TestSecondFailurePQReportsZeroLoss pins the enumeration under -parities 2:
// the same worst-case double failure that costs single parity α of its
// at-risk stripes decodes completely under P+Q.
func TestSecondFailurePQReportsZeroLoss(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-second-failure", "-parities", "2", "-g", "5", "-scale", "50"}, &out, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"P+Q", "stripes lost:    0", "units lost:      0", "nothing is lost"} {
		if !strings.Contains(got, want) {
			t.Errorf("P+Q second-failure report missing %q:\n%s", want, got)
		}
	}
}

// TestDualParityRun drives a full simulated run under -parities 2 and
// checks the array description advertises the code.
func TestDualParityRun(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-mode", "faultfree", "-parities", "2", "-scale", "50", "-warmup", "1", "-measure", "5"}
	if err := run(args, &out, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "P+Q") {
		t.Errorf("array description does not name the P+Q code:\n%s", out.String())
	}
}

// TestExplicitSingleParityMatchesImplicit pins the compatibility contract
// for the new flag: -parities 1 spelled out produces byte-identical output
// to leaving it off entirely.
func TestExplicitSingleParityMatchesImplicit(t *testing.T) {
	invoke := func(extra ...string) string {
		args := append([]string{"-mode", "faultfree", "-scale", "50", "-warmup", "1", "-measure", "5"}, extra...)
		var out, errb bytes.Buffer
		if err := run(args, &out, &errb); err != nil {
			t.Fatalf("run %v: %v\nstderr: %s", extra, err, errb.String())
		}
		return stripWallClock(out.String())
	}
	if implicit, explicit := invoke(), invoke("-parities", "1"); implicit != explicit {
		t.Errorf("-parities 1 diverges from the default:\n--- implicit ---\n%s\n--- explicit ---\n%s",
			implicit, explicit)
	}
}

// TestRejectsBadParities checks -parities validation.
func TestRejectsBadParities(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-parities", "3"}, &out, &errb); err == nil || !strings.Contains(err.Error(), "-parities") {
		t.Fatalf("got %v, want -parities rejection", err)
	}
}

// TestDormantFaultFlagsPrintNoFaultSummary keeps the default output free
// of fault lines so existing tooling parsing raidsim output is unaffected.
func TestDormantFaultFlagsPrintNoFaultSummary(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-mode", "faultfree", "-scale", "50", "-warmup", "1", "-measure", "5"}
	if err := run(args, &out, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "faults:") {
		t.Errorf("fault summary printed without fault flags:\n%s", out.String())
	}
}

// TestReplayOutsideDataSpaceIsAnError: a replayed access past the array's
// data units — beyond it, or so far that unit + count wraps past
// math.MaxInt64 — fails the command with the record named, instead of
// panicking inside the simulation.
func TestReplayOutsideDataSpaceIsAnError(t *testing.T) {
	for _, line := range []string{
		"1.000000 2.000000 R 999999999 1",
		"1.000000 2.000000 R 9223372036854775806 4",
		"1.000000 2.000000 W 25367 2", // the last unit and one past it, at -scale 50
	} {
		path := filepath.Join(t.TempDir(), "bad.trace")
		if err := os.WriteFile(path, []byte("0.500000 1.000000 R 0 1\n"+line+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errb bytes.Buffer
		err := run(append([]string{"-replay", path}, fastRun...), &out, &errb)
		if err == nil || !strings.Contains(err.Error(), line) {
			t.Errorf("replay of %q: got %v, want an error naming the record", line, err)
		}
	}
}
