package metrics

import (
	"bytes"
	"strings"
	"testing"
)

func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	s := r.Series("s")
	if c != nil || g != nil || h != nil || s != nil {
		t.Fatal("nil registry handed out live instruments")
	}
	c.Inc()
	c.Add(5)
	g.Set(3)
	h.Observe(1)
	s.Observe(1, 2)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || s.Len() != 0 {
		t.Fatal("nil instruments accumulated state")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry export: %v, %q", err, buf.String())
	}
	if err := r.WriteCSV(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry CSV: %v, %q", err, buf.String())
	}
}

func TestCounterGaugeIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x")
	a.Inc()
	if r.Counter("x") != a || r.Counter("x").Value() != 1 {
		t.Fatal("counter not shared by name")
	}
	r.Gauge("y").Set(2.5)
	if r.Gauge("y").Value() != 2.5 {
		t.Fatal("gauge not shared by name")
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	h := newHistogram(1, 2, 5) // bounds 1,2,4,8,+Inf
	for _, v := range []float64{0.5, 1, 1.5, 3, 3, 7, 100} {
		h.Observe(v)
	}
	want := []int64{2, 1, 2, 1, 1}
	for i, c := range h.counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, c, want[i], h.counts)
		}
	}
	if h.Count() != 7 || h.Min() != 0.5 || h.Max() != 100 {
		t.Fatalf("count=%d min=%v max=%v", h.Count(), h.Min(), h.Max())
	}
	if got := h.Sum(); got != 116 {
		t.Fatalf("sum=%v", got)
	}
	if q := h.Quantile(0); q != 1 {
		t.Fatalf("q0=%v, want first bucket bound 1", q)
	}
	if q := h.Quantile(0.5); q != 4 {
		t.Fatalf("q50=%v, want 4", q)
	}
	if q := h.Quantile(1); q != 100 {
		t.Fatalf("q100=%v, want recorded max 100", q)
	}
}

func TestHistogramMeanEmpty(t *testing.T) {
	var h *Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram stats nonzero")
	}
	h2 := newHistogram(1, 2, 3)
	if h2.Mean() != 0 {
		t.Fatal("empty histogram mean nonzero")
	}
}

func TestPrometheusExportDeterministicAndSorted(t *testing.T) {
	build := func() string {
		r := NewRegistry()
		r.Counter(`ops{disk="1"}`).Add(3)
		r.Counter(`ops{disk="0"}`).Inc()
		r.Gauge("util").Set(0.25)
		h := r.Histogram("lat_ms")
		h.Observe(0.1)
		h.Observe(10)
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("export not deterministic:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "# TYPE ops counter") ||
		!strings.Contains(a, `ops{disk="0"} 1`) ||
		!strings.Contains(a, `ops{disk="1"} 3`) {
		t.Fatalf("counters missing:\n%s", a)
	}
	if strings.Index(a, `disk="0"`) > strings.Index(a, `disk="1"`) {
		t.Fatalf("not sorted:\n%s", a)
	}
	for _, want := range []string{
		"# TYPE lat_ms histogram",
		`lat_ms_bucket{le="0.25"} 1`,
		`lat_ms_bucket{le="+Inf"} 2`,
		"lat_ms_sum 10.1",
		"lat_ms_count 2",
		"lat_ms_min 0.1",
		"lat_ms_max 10",
	} {
		if !strings.Contains(a, want) {
			t.Fatalf("missing %q in:\n%s", want, a)
		}
	}
}

func TestPrometheusHistogramLabelsMerge(t *testing.T) {
	r := NewRegistry()
	r.Histogram(`svc_ms{disk="7"}`).Observe(1)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`svc_ms_bucket{disk="7",le="0.25"} 0`,
		`svc_ms_count{disk="7"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestCSVExport(t *testing.T) {
	r := NewRegistry()
	s := r.Series(`q{disk="0"}`)
	s.Observe(1000, 3)
	s.Observe(2000, 4)
	r.Series("b").Observe(1000, 0.5)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "series,t_ms,value\nb,1000,0.5\n" +
		"\"q{disk=\"\"0\"\"}\",1000,3\n\"q{disk=\"\"0\"\"}\",2000,4\n"
	if buf.String() != want {
		t.Fatalf("CSV:\n%q\nwant\n%q", buf.String(), want)
	}
	if n := s.Len(); n != 2 {
		t.Fatalf("series len %d", n)
	}
	if tm, v := s.Last(); tm != 2000 || v != 4 {
		t.Fatalf("last = %v,%v", tm, v)
	}
}

func TestSplitName(t *testing.T) {
	for _, tc := range []struct{ in, base, labels string }{
		{"plain", "plain", ""},
		{`x{disk="0"}`, "x", `disk="0"`},
		{"odd{unclosed", "odd{unclosed", ""},
	} {
		b, l := splitName(tc.in)
		if b != tc.base || l != tc.labels {
			t.Fatalf("splitName(%q) = %q,%q", tc.in, b, l)
		}
	}
}
