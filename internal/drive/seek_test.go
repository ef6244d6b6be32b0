package drive

import (
	"math"
	"testing"
)

// seekMS is the seek an access from cylinder `from` to the first sector of
// cylinder `to` pays.
func seekMS(m *Mechanism, from, to int) float64 {
	return m.Access(from, 0, int64(to)*m.SectorsPerCylinder(), 1).SeekMS
}

func TestSeekCurveCalibrationPoints(t *testing.T) {
	m := mechanism(t, IBM0661())
	if got := seekMS(m, 0, 0); got != 0 {
		t.Fatalf("seek(0) = %v, want 0", got)
	}
	if got := seekMS(m, 0, 1); math.Abs(got-m.MinSeekMS) > 1e-9 {
		t.Fatalf("seek(1) = %v, want %v", got, m.MinSeekMS)
	}
	if got := seekMS(m, 0, m.Cylinders-1); math.Abs(got-m.MaxSeekMS) > 1e-9 {
		t.Fatalf("seek(max) = %v, want %v", got, m.MaxSeekMS)
	}
}

func TestSeekCurveAverage(t *testing.T) {
	m := mechanism(t, IBM0661())
	// Exact expectation over the conditioned distance distribution must
	// match the datasheet average.
	c := float64(m.Cylinders)
	var pSum, e float64
	for d := 1; d < m.Cylinders; d++ {
		p := 2 * (c - float64(d)) / (c * c)
		pSum += p
		e += p * seekMS(m, 0, d)
	}
	e /= pSum
	if math.Abs(e-m.AvgSeekMS) > 1e-6 {
		t.Fatalf("average seek = %v, want %v", e, m.AvgSeekMS)
	}
}

func TestSeekCurveMonotone(t *testing.T) {
	m := mechanism(t, IBM0661())
	prev := 0.0
	for d := 1; d <= 948; d++ {
		v := seekMS(m, 0, d)
		if v < prev {
			t.Fatalf("seek curve decreases at %d: %v < %v", d, v, prev)
		}
		prev = v
	}
}

func TestSeekCurveSymmetricAndClamped(t *testing.T) {
	m := mechanism(t, IBM0661())
	if seekMS(m, 300, 200) != seekMS(m, 100, 200) || seekMS(m, 300, 200) != seekMS(m, 0, 100) {
		t.Fatal("seek depends on more than the distance")
	}
	if last := m.Cylinders - 1; seekMS(m, last, 0) != seekMS(m, 0, last) {
		t.Fatal("full-stroke seek differs by direction")
	}
}

func TestSeekCurveScaledGeometries(t *testing.T) {
	for _, den := range []int{1, 2, 5, 10, 20} {
		m := mechanism(t, IBM0661().Scaled(den)) // fails if non-monotone
		if got := seekMS(m, 0, 1); math.Abs(got-m.MinSeekMS) > 1e-9 {
			t.Fatalf("den=%d: seek(1) = %v", den, got)
		}
		if got := seekMS(m, 0, m.Cylinders-1); math.Abs(got-m.MaxSeekMS) > 1e-9 {
			t.Fatalf("den=%d: seek(max) = %v", den, got)
		}
	}
}

func TestSeekCurveTwoCylinderDegenerate(t *testing.T) {
	g := IBM0661()
	g.Cylinders = 2
	if got := seekMS(mechanism(t, g), 0, 1); got != g.MinSeekMS {
		t.Fatalf("degenerate seek(1) = %v, want min", got)
	}
}
