package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata/golden instead of comparing against it")

// goldenCase is one checked-in reconstruction run. The matrix is chosen so
// every write plan of internal/array is played under faults, scrubbing and
// a running sweep: read-modify-write over one and two live parities, the
// no-live-parity single write, fold with and without the redirected data
// write, mirror (G = 2), the small-write optimization and P+Q's
// one-data-unit stripes (G = 3, every write a large write), and the large /
// RMW / reconstruct range writes (-size 4; under P+Q a one-unit group is
// the RMW at G = 5, and groups of up to three units are at G = 10).
type goldenCase struct {
	g, parities, size int
	alg               string
}

func (c goldenCase) name() string {
	return fmt.Sprintf("g%d-p%d-%s-size%d", c.g, c.parities, c.alg, c.size)
}

func goldenMatrix() []goldenCase {
	var cases []goldenCase
	for _, alg := range []string{"baseline", "piggyback"} {
		for _, p := range []int{1, 2} {
			for _, size := range []int{1, 4} {
				cases = append(cases, goldenCase{g: 5, parities: p, size: size, alg: alg})
			}
			cases = append(cases, goldenCase{g: 3, parities: p, size: 1, alg: alg})
		}
		cases = append(cases, goldenCase{g: 2, parities: 1, size: 1, alg: alg})
	}
	for _, p := range []int{1, 2} {
		cases = append(cases, goldenCase{g: 10, parities: p, size: 4, alg: "piggyback"})
	}
	return cases
}

// TestGoldenOutputs compares each run of the matrix with the output the
// code produced when the golden was checked in: stdout (minus its
// wall-clock line) verbatim, and the span trace and metrics export by
// SHA-256. Unlike TestGoldenDeterminism, which compares a run
// with itself, this fails when a change reorders, adds or drops a single
// simulated event. Regenerate with `go test ./cmd/raidsim -run
// TestGoldenOutputs -update` only for a change that means to alter the
// simulation, and say so in the commit.
func TestGoldenOutputs(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds, moving simulated
		// times in the last bit.
		t.Skip("goldens were recorded on amd64")
	}
	for _, c := range goldenMatrix() {
		c := c
		t.Run(c.name(), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			exports := []string{"spans", "metrics"}
			args := []string{
				"-mode", "recon", "-scale", "50", "-procs", "4", "-warmup", "2",
				"-fault-seed", "7", "-lse-rate", "100000",
				"-transient-rate", "0.02", "-scrub-interval", "20",
				"-g", fmt.Sprint(c.g), "-parities", fmt.Sprint(c.parities),
				"-alg", c.alg, "-size", fmt.Sprint(c.size),
			}
			for _, e := range exports {
				args = append(args, "-"+e, filepath.Join(dir, e))
			}
			var out, errb bytes.Buffer
			if err := run(args, &out, &errb); err != nil {
				t.Fatalf("run: %v\nstderr: %s", err, errb.String())
			}
			got := stripWallClock(strings.ReplaceAll(out.String(), dir+string(filepath.Separator), ""))
			for _, e := range exports {
				sum, err := fileSHA256(filepath.Join(dir, e))
				if err != nil {
					t.Fatal(err)
				}
				got += fmt.Sprintf("sha256 %-7s %s\n", e, sum)
			}
			path := filepath.Join("testdata", "golden", c.name()+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}
