package array

// lockTable serializes operations on a parity stripe. Any operation that
// updates parity, touches the replacement disk, or performs a multi-unit
// consistent read (on-the-fly reconstruction) must hold its stripe's lock;
// direct reads of units a disk can serve need not, unless one fails and
// must be repaired. Each operation holds at most one lock, so the system
// cannot deadlock.
//
// The simulation is single-threaded, so this is a queue, not a mutex: if
// the stripe is free the acquiring operation runs immediately; otherwise
// its continuation waits in FIFO order.
type lockTable struct {
	held map[int64][]func()
}

// acquire runs fn now if stripe s is unlocked, otherwise queues it. The
// caller must eventually call release from the running operation.
func (t *lockTable) acquire(s int64, fn func()) {
	if t.held == nil {
		t.held = make(map[int64][]func())
	}
	q, locked := t.held[s]
	if locked {
		t.held[s] = append(q, fn)
		return
	}
	t.held[s] = nil
	fn()
}

// release unlocks stripe s, running the next waiter if any.
func (t *lockTable) release(s int64) {
	q, locked := t.held[s]
	if !locked {
		panic("array: release of unheld stripe lock")
	}
	if len(q) == 0 {
		delete(t.held, s)
		return
	}
	next := q[0]
	t.held[s] = q[1:]
	next()
}

// heldCount reports how many stripes are currently locked (for tests).
func (t *lockTable) heldCount() int { return len(t.held) }
