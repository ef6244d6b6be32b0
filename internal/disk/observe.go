package disk

// Event describes one completed disk request, for the observer.
type Event struct {
	QueuedAt float64 // when the request entered the queue
	Start    float64 // when service began
	Finish   float64 // when the transfer completed
	Cyl      int     // target cylinder
	SeekDist int     // cylinders moved to reach it
	Sectors  int
	Write    bool
	Priority int
	Status   Status // OK, MediaError, or Timeout
	CacheHit bool   // served from the track read-ahead buffer
}

// SetObserver makes fn the drive's observer, invoked at every request
// completion; nil removes it. Observation is off the timing path: it cannot
// perturb the simulation.
func (d *Disk) SetObserver(fn func(Event)) { d.observer = fn }
