package telemetry

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"declust/internal/metrics"
)

// Progress is a run's status at one simulated instant: what core's
// SimConfig.OnLive delivers and the document served at /progress.
type Progress struct {
	SimMS          float64   `json:"sim_ms"`
	Mode           string    `json:"mode,omitempty"`
	Requests       int       `json:"requests"`
	MeanResponseMS float64   `json:"mean_response_ms"`
	DiskUtil       []float64 `json:"disk_util,omitempty"`  // busy fraction of the last interval
	DiskQueue      []int     `json:"disk_queue,omitempty"` // instantaneous queue depths
	ReconDone      int64     `json:"recon_done_units"`
	ReconTotal     int64     `json:"recon_total_units"`
	ReconETAMS     float64   `json:"recon_eta_ms"`         // simulated ms to go; 0 until measurable
	EngineEvents   uint64    `json:"engine_events"`        // fired so far; per wall-clock second, the simulator's speed
	SweepDone      int       `json:"sweep_done,omitempty"` // completed sweep points
	SweepTotal     int       `json:"sweep_total,omitempty"`
}

// LiveServer is an opt-in HTTP endpoint for watching a running simulation:
// Prometheus-format /metrics, JSON /progress, and net/http/pprof under
// /debug/pprof/.
//
// The simulator is single-threaded and must stay deterministic, so the
// server never touches simulator state. Instead the simulation thread
// renders snapshots (Publish*) into byte buffers under a mutex on its own
// sim-time cadence, and the concurrent HTTP handlers serve whatever
// snapshot is latest. Scrapers see slightly stale data; the simulation
// sees nothing at all.
type LiveServer struct {
	mu       sync.Mutex
	metrics  []byte
	progress Progress
	sweepN   int

	lis net.Listener
	srv *http.Server
}

// NewLiveServer returns a server with no snapshots yet; Start brings up
// the listener.
func NewLiveServer() *LiveServer { return &LiveServer{} }

// Start listens on addr (e.g. ":6060", or "127.0.0.1:0" for an ephemeral
// test port) and serves in a background goroutine. It returns the bound
// address, useful when addr requested port 0.
func (s *LiveServer) Start(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.lis = lis
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(lis) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return lis.Addr().String(), nil
}

// Addr returns the bound address, or "" before Start.
func (s *LiveServer) Addr() string {
	if s.lis == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// Close shuts the listener down. In-flight requests are aborted; the
// simulation does not wait for scrapers.
func (s *LiveServer) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// PublishMetrics renders the registry into the /metrics snapshot. Called
// from the simulation thread — the only goroutine reading the registry —
// so rendering outside the lock is safe; only the swap is locked.
func (s *LiveServer) PublishMetrics(reg *metrics.Registry) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return // bytes.Buffer does not fail; registry nil writes nothing
	}
	s.mu.Lock()
	s.metrics = buf.Bytes()
	s.mu.Unlock()
}

// PublishProgress replaces the /progress snapshot, preserving the sweep
// counters (they advance on a different cadence, per completed point).
func (s *LiveServer) PublishProgress(p Progress) {
	s.mu.Lock()
	p.SweepDone, p.SweepTotal = s.progress.SweepDone, s.progress.SweepTotal
	s.progress = p
	s.mu.Unlock()
}

// SweepStart declares a sweep of n points.
func (s *LiveServer) SweepStart(n int) {
	s.mu.Lock()
	s.progress.SweepTotal = n
	s.mu.Unlock()
}

// SweepPointDone marks one more sweep point complete. Safe to call from
// sweep worker goroutines.
func (s *LiveServer) SweepPointDone() {
	s.mu.Lock()
	s.sweepN++
	s.progress.SweepDone = s.sweepN
	s.mu.Unlock()
}

func (s *LiveServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	body := s.metrics
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(body) //nolint:errcheck // best-effort scrape response
}

func (s *LiveServer) handleProgress(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	p := s.progress
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(p) //nolint:errcheck // best-effort scrape response
}
