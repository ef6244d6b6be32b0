// Package trace records and replays user-level I/O traces. A trace is an
// ordered sequence of user accesses with arrival and completion times;
// it can be written to a compact text format, read back, inspected, and
// replayed against a simulated array with the original arrival spacing —
// the standard methodology for trace-driven storage studies, complementing
// the paper's synthetic workload.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"declust/internal/workload"
)

// Record is one completed user access.
type Record struct {
	ArriveMS float64
	DoneMS   float64
	Op       workload.Op
}

// String is the record's line in the text form WriteTo emits.
func (r Record) String() string {
	dir := "R"
	if !r.Op.Read {
		dir = "W"
	}
	return fmt.Sprintf("%.6f %.6f %s %d %d", r.ArriveMS, r.DoneMS, dir, r.Op.Unit, r.Op.Count)
}

// Latency returns the access's response time in milliseconds.
func (r Record) Latency() float64 { return r.DoneMS - r.ArriveMS }

// Log accumulates records. The zero value is ready to use.
type Log struct {
	records []Record
}

// Add appends one record.
func (l *Log) Add(r Record) { l.records = append(l.records, r) }

// Len returns the number of records.
func (l *Log) Len() int { return len(l.records) }

// Records returns the records sorted by arrival time.
func (l *Log) Records() []Record {
	out := append([]Record(nil), l.records...)
	sort.Slice(out, func(i, j int) bool { return out[i].ArriveMS < out[j].ArriveMS })
	return out
}

// WriteTo emits the trace in text form, one record per line:
//
//	<arriveMS> <doneMS> R|W <unit> <count>
//
// Records are written in arrival order. It returns the bytes written.
func (l *Log) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	for _, r := range l.Records() {
		k, err := fmt.Fprintf(bw, "%s\n", r)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// Read parses a trace written by WriteTo.
func Read(r io.Reader) (*Log, error) {
	l := &Log{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		var rec Record
		var dir string
		if _, err := fmt.Sscanf(text, "%f %f %s %d %d",
			&rec.ArriveMS, &rec.DoneMS, &dir, &rec.Op.Unit, &rec.Op.Count); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		switch dir {
		case "R":
			rec.Op.Read = true
		case "W":
			rec.Op.Read = false
		default:
			return nil, fmt.Errorf("trace: line %d: direction %q", line, dir)
		}
		if rec.Op.Count <= 0 || rec.Op.Unit < 0 || rec.DoneMS < rec.ArriveMS {
			return nil, fmt.Errorf("trace: line %d: invalid record %+v", line, rec)
		}
		l.Add(rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return l, nil
}

// MeanLatency returns the average response time over the trace.
func (l *Log) MeanLatency() float64 {
	if len(l.records) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range l.records {
		sum += r.Latency()
	}
	return sum / float64(len(l.records))
}

// Replayer replays a trace's arrival process: each Next returns the gap to
// the next recorded arrival and its op, so a simulation driven by it sees
// the original workload timing.
type Replayer struct {
	records []Record
	i       int
	last    float64
}

// NewReplayer builds a replayer over the log's records in arrival order.
func NewReplayer(l *Log) (*Replayer, error) {
	if l.Len() == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	return &Replayer{records: l.Records()}, nil
}

// Fits returns an error naming the first record, in arrival order, that
// addresses a unit outside [0, dataUnits): a trace recorded on a larger
// array, or written by hand, that the array it is replayed on cannot serve.
func (r *Replayer) Fits(dataUnits int64) error {
	for _, rec := range r.records {
		if op := rec.Op; op.Unit < 0 || op.Count <= 0 || op.Unit > dataUnits-int64(op.Count) {
			return fmt.Errorf("trace: record %q addresses units outside the array's data space [0,%d)", rec, dataUnits)
		}
	}
	return nil
}

// Len returns the number of accesses in one pass of the trace.
func (r *Replayer) Len() int { return len(r.records) }

// Passes reports how many complete passes over the trace have been
// replayed; the replayer itself never runs dry (it wraps).
func (r *Replayer) Passes() int { return r.i / len(r.records) }

// Next returns the next access and the delay since the previous one. Once
// the trace is exhausted it repeats from the start (steady-state replay),
// continuing the clock seamlessly.
func (r *Replayer) Next() (delayMS float64, op workload.Op) {
	rec := r.records[r.i%len(r.records)]
	base := rec.ArriveMS
	if r.i%len(r.records) == 0 && r.i > 0 {
		// Wrapped: restart the arrival clock.
		r.last = 0
	}
	delay := base - r.last
	if delay < 0 {
		delay = 0
	}
	r.last = base
	r.i++
	return delay, rec.Op
}
