package disk

import "fmt"

// Policy selects the head-scheduling discipline a drive applies to its
// pending queue. The zero value is CVSCAN, the V(R) continuum the paper's
// raidSim uses, so existing configurations are unchanged.
type Policy int

const (
	// CVSCAN is the V(R) continuum [Geist87] with a configurable reversal
	// bias r: r = 0 degenerates to SSTF, r = 1 to SCAN. It is the paper's
	// raidSim scheduler.
	CVSCAN Policy = iota
	// FIFO serves requests strictly in arrival order within a priority
	// class: no seek optimization at all, the baseline real controllers
	// started from.
	FIFO
	// SSTF serves the request with the shortest seek from the current head
	// position. Maximum throughput, but edge cylinders can starve under
	// sustained load.
	SSTF
	// CSCAN is the circular elevator: the head sweeps toward higher
	// cylinders only, serving requests in cylinder order, and wraps to the
	// lowest pending cylinder when none remain ahead. Fairer tail latency
	// than SSTF at a small throughput cost.
	CSCAN
)

// ParsePolicy maps a configuration string (as used by raidsim's -sched
// flag) to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "cvscan", "":
		return CVSCAN, nil
	case "fifo":
		return FIFO, nil
	case "sstf":
		return SSTF, nil
	case "cscan":
		return CSCAN, nil
	default:
		return 0, fmt.Errorf("disk: unknown scheduling policy %q (want fifo, sstf, cscan or cvscan)", s)
	}
}

func (p Policy) String() string {
	switch p {
	case CVSCAN:
		return "cvscan"
	case FIFO:
		return "fifo"
	case SSTF:
		return "sstf"
	case CSCAN:
		return "cscan"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// schedQueue is the pending-request queue of one drive. Priority classes
// strictly dominate: only requests of the highest class present compete,
// and the policy chooses among them. With a positive ageMS, a request of a
// lower class that has waited at least ageMS is promoted into the top
// class present — the starvation-avoidance bound that keeps demoted
// reconstruction and scrub traffic from waiting forever behind user I/O.
// Every policy is one scan — the eligible request of least cost, ties to
// arrival order (seq), so each is deterministic — and differs only in the
// cost (see cost).
type schedQueue struct {
	policy  Policy
	bias    float64 // reversal penalty, as a fraction of the stroke; 0 under SSTF
	cyls    int
	ageMS   float64 // 0 = never promote
	pending []*Request
	// dir is CVSCAN's current sweep direction: +1 toward higher cylinders,
	// -1 toward lower, 0 before any movement.
	dir int
}

func newSchedQueue(p Policy, bias float64, cylinders int, ageMS float64) *schedQueue {
	if p == SSTF {
		bias = 0 // shortest seek first is V(R) with no reversal penalty
	}
	return &schedQueue{policy: p, bias: bias, cyls: cylinders, ageMS: ageMS}
}

func (s *schedQueue) len() int { return len(s.pending) }

func (s *schedQueue) push(r *Request) {
	s.pending = append(s.pending, r)
}

// eligible reports whether r competes for service now: it belongs to the
// top raw priority class, or it has aged past the promotion bound.
func (s *schedQueue) eligible(r *Request, maxPrio int, now float64) bool {
	if r.Priority == maxPrio {
		return true
	}
	return s.ageMS > 0 && now-r.queuedAt >= s.ageMS
}

// pop removes and returns the next request to serve for a head at cylinder
// headCyl at simulated time now, or nil if none are pending.
func (s *schedQueue) pop(now float64, headCyl int) *Request {
	if len(s.pending) == 0 {
		return nil
	}
	maxPrio := s.pending[0].Priority
	for _, r := range s.pending[1:] {
		if r.Priority > maxPrio {
			maxPrio = r.Priority
		}
	}
	best, bestCost := -1, 0.0
	for i, r := range s.pending {
		if !s.eligible(r, maxPrio, now) {
			continue
		}
		cost := s.cost(r.cyl - headCyl)
		if best == -1 || cost < bestCost ||
			(cost == bestCost && r.seq < s.pending[best].seq) {
			best, bestCost = i, cost
		}
	}
	r := s.pending[best]
	s.pending = append(s.pending[:best], s.pending[best+1:]...)
	if r.cyl > headCyl {
		s.dir = 1
	} else if r.cyl < headCyl {
		s.dir = -1
	}
	return r
}

// cost is what serving a request dist cylinders above the head (negative:
// below it) costs under the queue's policy. FIFO charges nothing, so age
// alone decides. CSCAN charges the distance as its upward-only sweep
// travels it: a request below the head lies a whole stroke further on.
// CVSCAN charges the seek, plus bias × the stroke when serving the request
// would reverse the current sweep; SSTF is that with no bias.
func (s *schedQueue) cost(dist int) float64 {
	switch s.policy {
	case FIFO:
		return 0
	case CSCAN:
		if dist < 0 {
			dist += s.cyls
		}
		return float64(dist)
	}
	reverse := dist < 0 && s.dir > 0 || dist > 0 && s.dir < 0
	if dist < 0 {
		dist = -dist
	}
	if reverse {
		return float64(dist) + s.bias*float64(s.cyls)
	}
	return float64(dist)
}
