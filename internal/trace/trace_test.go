package trace

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"declust/internal/workload"
)

func sampleLog() *Log {
	l := &Log{}
	l.Add(Record{ArriveMS: 10, DoneMS: 32, Op: workload.Op{Read: true, Unit: 100, Count: 1}})
	l.Add(Record{ArriveMS: 5, DoneMS: 40, Op: workload.Op{Read: false, Unit: 7, Count: 4}})
	l.Add(Record{ArriveMS: 20, DoneMS: 21.5, Op: workload.Op{Read: true, Unit: 0, Count: 2}})
	return l
}

func TestRecordsSortedByArrival(t *testing.T) {
	rs := sampleLog().Records()
	for i := 1; i < len(rs); i++ {
		if rs[i].ArriveMS < rs[i-1].ArriveMS {
			t.Fatalf("records not sorted: %v", rs)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	l := sampleLog()
	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := l.Records()
	have := got.Records()
	if len(have) != len(want) {
		t.Fatalf("got %d records, want %d", len(have), len(want))
	}
	for i := range want {
		if math.Abs(have[i].ArriveMS-want[i].ArriveMS) > 1e-6 ||
			math.Abs(have[i].DoneMS-want[i].DoneMS) > 1e-6 ||
			have[i].Op != want[i].Op {
			t.Fatalf("record %d: got %+v, want %+v", i, have[i], want[i])
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"not a record\n",
		"1.0 2.0 X 5 1\n",  // bad direction
		"1.0 2.0 R -1 1\n", // negative unit
		"1.0 2.0 R 5 0\n",  // zero count
		"5.0 2.0 R 5 1\n",  // done before arrive
		"1.0 2.0 R\n",      // short line
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
}

func TestReadSkipsBlankLines(t *testing.T) {
	l, err := Read(strings.NewReader("\n1.0 2.0 R 5 1\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 1 {
		t.Fatalf("parsed %d records, want 1", l.Len())
	}
}

func TestMeanLatency(t *testing.T) {
	l := sampleLog() // latencies 22, 35, 1.5 -> mean 19.5
	if got := l.MeanLatency(); math.Abs(got-19.5) > 1e-9 {
		t.Fatalf("mean latency %v, want 19.5", got)
	}
	if (&Log{}).MeanLatency() != 0 {
		t.Fatal("empty log mean not 0")
	}
}

func TestReplayerPreservesSpacing(t *testing.T) {
	r, err := NewReplayer(sampleLog())
	if err != nil {
		t.Fatal(err)
	}
	// Arrival order: 5, 10, 20 -> gaps 5, 5, 10.
	wantDelays := []float64{5, 5, 10}
	wantUnits := []int64{7, 100, 0}
	for i := range wantDelays {
		d, op := r.Next()
		if math.Abs(d-wantDelays[i]) > 1e-9 {
			t.Fatalf("gap %d = %v, want %v", i, d, wantDelays[i])
		}
		if op.Unit != wantUnits[i] {
			t.Fatalf("op %d unit = %d, want %d", i, op.Unit, wantUnits[i])
		}
	}
}

func TestReplayerWraps(t *testing.T) {
	r, _ := NewReplayer(sampleLog())
	for i := 0; i < 3; i++ {
		r.Next()
	}
	if r.Passes() != 1 {
		t.Fatalf("passes = %d after one full replay, want 1", r.Passes())
	}
	d, op := r.Next() // wraps to first record (arrive 5)
	if op.Unit != 7 {
		t.Fatalf("wrap op unit %d, want 7", op.Unit)
	}
	if d != 5 {
		t.Fatalf("wrap delay %v, want 5", d)
	}
}

// TestReplayerWrapResetsClockUnderTimeScale drives three full passes at
// the trace's own time scale (recorded milliseconds): each replays the same
// gaps and ops, the wrap restarting the arrival clock — its gap is the
// first arrival's offset, not the difference against the previous pass's
// last arrival.
func TestReplayerWrapResetsClockUnderTimeScale(t *testing.T) {
	r, _ := NewReplayer(sampleLog())
	// Arrival order 5, 10, 20 -> gaps 5, 5, 10.
	wantGaps, wantUnits := []float64{5, 5, 10}, []int64{7, 100, 0}
	for pass := 0; pass < 3; pass++ {
		if r.Passes() != pass {
			t.Fatalf("before pass %d: Passes() = %d", pass, r.Passes())
		}
		for i, w := range wantGaps {
			if d, op := r.Next(); d != w || op.Unit != wantUnits[i] {
				t.Fatalf("pass %d: gap %d = %v to unit %d, want %v to unit %d", pass, i, d, op.Unit, w, wantUnits[i])
			}
		}
	}
}

func TestNewReplayerEmpty(t *testing.T) {
	if _, err := NewReplayer(&Log{}); err == nil {
		t.Fatal("empty trace accepted")
	}
}

// Replayer must satisfy the workload.Source interface.
var _ workload.Source = (*Replayer)(nil)

// TestWriteReadRoundTripProperty round-trips random logs through the text
// format. Times are rounded to whole microseconds so the %.6f encoding is
// exact, making the comparison strict equality rather than tolerance-based;
// the re-read log must also replay identically.
func TestWriteReadRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := &Log{}
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			// Keep both times on the µs grid (the %.6f encoding's
			// resolution) so the round-trip is bit-exact; summing two
			// grid values can drift off the grid, so re-round the sum.
			arrive := math.Round(rng.Float64()*1e9) / 1e6
			done := math.Round((arrive+rng.Float64()*100)*1e6) / 1e6
			l.Add(Record{
				ArriveMS: arrive,
				DoneMS:   done,
				Op: workload.Op{
					Read:  rng.Intn(2) == 0,
					Unit:  rng.Int63n(1 << 30),
					Count: 1 + rng.Intn(64),
				},
			})
		}
		var buf bytes.Buffer
		if _, err := l.WriteTo(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		want, have := l.Records(), got.Records()
		if len(have) != len(want) {
			return false
		}
		for i := range want {
			if have[i] != want[i] {
				return false
			}
		}
		// Same delays and ops from replayers over both, across a wrap.
		ra, _ := NewReplayer(l)
		rb, _ := NewReplayer(got)
		for i := 0; i < 2*n+1; i++ {
			da, oa := ra.Next()
			db, ob := rb.Next()
			if da != db || oa != ob {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
