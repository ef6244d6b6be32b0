package store

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"declust/internal/layout"
)

// The kill-during-write torture test: a child process (this test binary
// re-executed) opens a file-backed store with a file intent log, settles
// every unit at version 1, syncs, then rewrites units to version 2 in a
// loop — and the parent SIGKILLs it mid-stream. The reopened store must
// come back parity-consistent with every unit reading as exactly version
// 1 or version 2.

const crashChildEnv = "STORE_CRASH_CHILD_DIR"

func crashGeometry(t testing.TB) (layout.Layout, int64) {
	lay := testLayout(t, 5, 5)
	return lay, layout.UsableUnitsPerDisk(lay, 40)
}

func openCrashStore(dir string, lay layout.Layout, usable int64) (*Store, error) {
	disks, err := OpenFileDisks(dir, lay.Disks(), usable, 512)
	if err != nil {
		return nil, err
	}
	s, err := New(Config{
		Layout:       lay,
		UnitsPerDisk: 40,
		UnitSize:     512,
		Disks:        disks,
		IOWorkers:    4,
		Intent:       OpenFileIntent(filepath.Join(dir, "intent.log")),
	})
	if err != nil {
		for _, d := range disks {
			d.Close()
		}
	}
	return s, err
}

// TestCrashChildProcess is the child body; it only runs when re-executed
// by TestCrashDuringWriteRecovers and loops until killed.
func TestCrashChildProcess(t *testing.T) {
	dir := os.Getenv(crashChildEnv)
	if dir == "" {
		t.Skip("child process of TestCrashDuringWriteRecovers")
	}
	forceOverlap(t) // the kill lands among overlapped data and parity writes
	lay, usable := crashGeometry(t)
	s, err := openCrashStore(dir, lay, usable)
	if err != nil {
		t.Fatal(err)
	}
	fillAll(t, s, 1)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	fmt.Println("CRASH_CHILD_READY")
	os.Stdout.Sync()
	buf := make([]byte, s.UnitSize())
	for {
		for n := int64(0); n < s.DataUnits(); n++ {
			fill(buf, n, 2)
			if err := s.WriteUnit(n, buf); err != nil {
				t.Fatalf("child WriteUnit(%d): %v", n, err)
			}
		}
	}
}

func TestCrashDuringWriteRecovers(t *testing.T) {
	if os.Getenv(crashChildEnv) != "" {
		t.Skip("already the child")
	}
	forceOverlap(t)
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestCrashChildProcess$", "-test.v")
	cmd.Env = append(os.Environ(), crashChildEnv+"="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	// Wait for the child to settle version 1 and start overwriting.
	ready := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if sc.Text() == "CRASH_CHILD_READY" {
				ready <- nil
				go io.Copy(io.Discard, stdout) // keep the pipe drained
				return
			}
		}
		ready <- fmt.Errorf("child exited before READY: %v", sc.Err())
	}()
	select {
	case err := <-ready:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("child never came up")
	}

	// Let it get some version-2 writes in flight, then kill it cold.
	time.Sleep(50 * time.Millisecond)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	lay, usable := crashGeometry(t)
	s, err := openCrashStore(dir, lay, usable)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer s.Close()

	st := s.Stats()
	t.Logf("recovery: resynced %d stripes, repaired %d", st.ResyncedStripes, st.ResyncRepairs)
	if st.ResyncedStripes == 0 {
		t.Fatal("child was killed mid-write but no intent region was dirty")
	}
	if err := s.CheckParity(); err != nil {
		t.Fatalf("CheckParity after crash recovery: %v", err)
	}
	got := make([]byte, s.UnitSize())
	v1 := make([]byte, s.UnitSize())
	v2 := make([]byte, s.UnitSize())
	for n := int64(0); n < s.DataUnits(); n++ {
		if err := s.ReadUnit(n, got); err != nil {
			t.Fatalf("ReadUnit(%d) after recovery: %v", n, err)
		}
		fill(v1, n, 1)
		fill(v2, n, 2)
		if !bytes.Equal(got, v1) && !bytes.Equal(got, v2) {
			t.Fatalf("unit %d holds neither version 1 nor version 2 after recovery", n)
		}
	}

	// A clean Sync+Close leaves nothing to recover next time.
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := openCrashStore(dir, lay, usable)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Stats().ResyncedStripes; got != 0 {
		t.Fatalf("clean reopen resynced %d stripes, want 0", got)
	}
}
