package store

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sync"
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

// callLog is the order in which a store reached its intent log and its
// disks: what a crash at any point would find on them.
type callLog struct {
	mu    sync.Mutex
	calls []string
}

func (l *callLog) add(what string) {
	l.mu.Lock()
	l.calls = append(l.calls, what)
	l.mu.Unlock()
}

// loggedDisk records every unit write.
type loggedDisk struct {
	Disk
	log *callLog
}

func (d loggedDisk) WriteUnit(off int64, p []byte) error {
	d.log.add("write")
	return d.Disk.WriteUnit(off, p)
}

// slowClearIntent logs every mark and clear and, once armed, holds a
// ClearBatch in its durability barrier until released.
type slowClearIntent struct {
	memIntent
	log     *callLog
	entered chan struct{} // closed when the held ClearBatch is inside
	release chan struct{} // nil until armed
}

func (l *slowClearIntent) MarkBatch(rs []int64) error {
	l.log.add("mark")
	return l.memIntent.MarkBatch(rs)
}

func (l *slowClearIntent) ClearBatch(rs []int64) error {
	l.log.add("clear")
	if l.release != nil {
		close(l.entered)
		<-l.release
	}
	return l.memIntent.ClearBatch(rs)
}

// TestSyncClearNeverOutrunsAWriter pins the intent contract against a Sync
// that runs beside a writer: no disk write may follow a durable "clean" for
// its region without a durable mark in between. After one settled write,
// Sync is held inside ClearBatch — region 0 idle when it looked — and a
// writer into region 0 arrives. It must wait for the clear and mark again:
// the log ends clear, mark, write, write and the region ends dirty. A store
// that lowers its in-memory flag only after the clear lets the writer
// through on the fast path: clear, write, write, and a crash between the
// two writes is an inconsistent stripe the log calls clean.
func TestSyncClearNeverOutrunsAWriter(t *testing.T) {
	lay := testLayout(t, 7, 4)
	log := &callLog{}
	il := &slowClearIntent{log: log, entered: make(chan struct{})}
	disks := make([]Disk, lay.Disks())
	for i := range disks {
		disks[i] = loggedDisk{Disk: NewMemDisk(48, 512), log: log}
	}
	s, err := New(Config{Layout: lay, UnitsPerDisk: 48, UnitSize: 512, Disks: disks, Intent: il, IOWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	buf := make([]byte, s.UnitSize())
	fill(buf, 0, 1)
	if err := s.WriteUnit(0, buf); err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	il.release = release
	letGo := sync.OnceFunc(func() { close(release) })
	defer letGo() // before Close, whose Sync needs the mutex the held one has
	syncErr := make(chan error, 1)
	go func() { syncErr <- s.Sync() }()
	<-il.entered

	fill(buf, 0, 2)
	writeErr := make(chan error, 1)
	go func() { writeErr <- s.WriteUnit(0, buf) }()
	waitFor(t, "the writer to count itself into region 0", func() bool {
		return s.regionActive[0].Load() == 1 || len(writeErr) == 1
	})
	// A writer held back is parked on intentMu, which nothing outside the
	// store can see; one let through finishes well inside this grace.
	time.Sleep(50 * time.Millisecond)
	finished := len(writeErr) == 1
	letGo()
	if err := <-syncErr; err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := <-writeErr; err != nil {
		t.Fatalf("WriteUnit: %v", err)
	}
	il.release = nil // Close's own Sync clears unhindered

	// Both goroutines are done: the log and the bits are this one's to read.
	want := []string{"mark", "write", "write", "clear", "mark", "write", "write"}
	if !slices.Equal(log.calls, want) {
		t.Errorf("intent log and disks were reached in order %v, want %v", log.calls, want)
	}
	if finished {
		t.Error("the write completed while its region's clear was still in flight")
	}
	if !il.dirty[0] {
		t.Error("region 0 was written after its clear and the log says clean")
	}
}
