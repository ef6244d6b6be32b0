package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"declust/internal/core"
	"declust/internal/telemetry"
)

func TestRunPointsPreservesOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		out, err := RunPoints(workers, 17, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 17 {
			t.Fatalf("workers=%d: got %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunPointsReportsLowestIndexError(t *testing.T) {
	boom := func(i int) (int, error) {
		if i == 3 || i == 7 {
			return 0, fmt.Errorf("point %d failed", i)
		}
		return i, nil
	}
	for _, workers := range []int{1, 4} {
		_, err := RunPoints(workers, 10, boom)
		if err == nil || err.Error() != "point 3 failed" {
			t.Fatalf("workers=%d: got error %v, want the lowest-index failure", workers, err)
		}
	}
}

func TestRunPointsZeroPoints(t *testing.T) {
	out, err := RunPoints(8, 0, func(i int) (int, error) {
		return 0, errors.New("must not be called")
	})
	if err != nil || len(out) != 0 {
		t.Fatalf("got (%v, %v), want empty success", out, err)
	}
}

// TestParallelSweepByteIdentical is the determinism contract of the worker
// pool: every experiment's formatted table must be byte-identical whatever
// the worker count, because each point owns its engine and RNG streams and
// rows are assembled in point order after the parallel phase.
func TestParallelSweepByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several simulations")
	}
	base := fastOpts()
	base.Gs = []int{5, 21}
	base.Rates = []float64{105, 210}

	sweeps := []struct {
		name string
		run  func(o Options) (Table, error)
	}{
		{"fig6", func(o Options) (Table, error) { _, tab, err := Fig6(o, 1.0); return tab, err }},
		{"fig8", func(o Options) (Table, error) { _, tab, _, err := Fig8(o, 4); return tab, err }},
		{"ext-sparing", func(o Options) (Table, error) { _, tab, err := ExtSparing(o, 5); return tab, err }},
		{"double-failure", func(o Options) (Table, error) { _, tab, err := DoubleFailureLoss(o); return tab, err }},
		{"ext-lse", ExtLatent},
	}
	for _, sw := range sweeps {
		t.Run(sw.name, func(t *testing.T) {
			serial := base
			serial.Workers = 1
			want, err := sw.run(serial)
			if err != nil {
				t.Fatal(err)
			}
			fanned := base
			fanned.Workers = 8
			got, err := sw.run(fanned)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Errorf("table differs between -j 1 and -j 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
					want, got)
			}
		})
	}
}

// TestParallelSpanTracesByteIdentical gives each point its own span tracer
// and checks the per-point span exports are byte-identical whether the
// points run serially or concurrently: nothing about a neighbouring
// simulation may leak into a point's span order or timestamps.
func TestParallelSpanTracesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several simulations")
	}
	o := fastOpts()
	gs := []int{3, 5, 11, 21}
	trace := func(workers int) [][]byte {
		bufs := make([]bytes.Buffer, len(gs))
		_, err := RunPoints(workers, len(gs), func(i int) (struct{}, error) {
			cfg := o.simConfig(gs[i], 105, 0.5)
			cfg.ReconProcs = 4
			cfg.Spans = telemetry.New()
			if _, err := core.RunReconstruction(cfg); err != nil {
				return struct{}{}, err
			}
			return struct{}{}, cfg.Spans.WriteJSONL(&bufs[i], nil)
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, len(gs))
		for i := range bufs {
			out[i] = bufs[i].Bytes()
		}
		return out
	}
	serial := trace(1)
	parallel := trace(len(gs))
	for i := range gs {
		if len(serial[i]) == 0 {
			t.Errorf("G=%d: empty serial trace", gs[i])
		}
		if !bytes.Equal(serial[i], parallel[i]) {
			t.Errorf("G=%d: span trace differs between serial and parallel sweeps", gs[i])
		}
	}
}
