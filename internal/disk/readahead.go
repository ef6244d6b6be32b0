package disk

import "declust/internal/telemetry"

// Track read-ahead. Real drive electronics keep reading past the host's
// transfer into a track buffer, because the platter is rotating under the
// head anyway; a subsequent read of those sectors is served from RAM with
// no mechanical work at all. The model: after every successful read, the
// buffer covers the remainder of the track holding the transfer's last
// sector, plus the next ReadAheadTracks-1 whole tracks. A read wholly
// inside the buffer completes at the moment it is submitted — zero seek,
// zero rotation, zero transfer time — without entering the queue or
// occupying the arm. Any write overlapping the buffer invalidates all of
// it (the platter is the only authority once it changes).

// raCovers reports whether [start, start+count) is a read-ahead hit.
func (d *Disk) raCovers(start int64, count int) bool {
	return d.raHi > d.raLo && start >= d.raLo && start+int64(count) <= d.raHi
}

// raFill sets the buffer after a successful read of [start, start+count):
// from the end of the transfer to the end of its last track, plus
// raTracks-1 following tracks. A transfer ending exactly on a track
// boundary leaves only the following raTracks-1 tracks (the "rest of the
// current track" is empty).
func (d *Disk) raFill(start int64, count int) {
	end := start + int64(count)
	spt := int64(d.geom.SectorsPerTrack)
	hi := ((end-1)/spt + int64(d.raTracks)) * spt
	if total := d.geom.TotalSectors(); hi > total {
		hi = total
	}
	d.raLo, d.raHi = end, hi
}

// raInvalidate drops the buffer if [start, start+count) overlaps it.
func (d *Disk) raInvalidate(start int64, count int) {
	if d.raHi > d.raLo && start < d.raHi && start+int64(count) > d.raLo {
		d.raLo, d.raHi = 0, 0
	}
}

// raHit delivers one buffered read completion. Hits are completed through
// an engine event (never synchronously inside Submit) so upper layers see
// the same reentrancy discipline as mechanical completions; nodes are
// pooled with the callback pre-bound so steady-state hits allocate nothing.
type raHit struct {
	d      *Disk
	r      *Request
	fireFn func()
}

func (d *Disk) getHit() *raHit {
	if n := len(d.hitFree); n > 0 {
		h := d.hitFree[n-1]
		d.hitFree = d.hitFree[:n-1]
		return h
	}
	h := &raHit{d: d}
	h.fireFn = h.fire
	return h
}

// serveFromBuffer completes a read from the read-ahead buffer at zero
// mechanical cost. The buffer's window advances past the consumed range so
// a sequential stream keeps hitting until the prefetched tracks run out.
func (d *Disk) serveFromBuffer(r *Request) {
	now := d.eng.Now()
	r.queuedAt = now
	r.seq = d.seq
	d.seq++
	if end := r.Start + int64(r.Count); end > d.raLo {
		d.raLo = end
	}
	h := d.getHit()
	h.r = r
	d.eng.At(now, h.fireFn)
}

func (h *raHit) fire() {
	d, r := h.d, h.r
	h.r = nil
	d.hitFree = append(d.hitFree, h)
	now := d.eng.Now()
	d.stats.Completed++
	d.stats.CacheHits++
	d.stats.CacheHitSectors += int64(r.Count)
	if sp := r.Span; sp != nil {
		// Zero-duration by design: the buffer answers instantly. The
		// segment marks the transfer as mechanically free.
		sp.Segment(telemetry.SegCacheHit, d.slot, now, now)
	}
	if d.observer != nil {
		d.observer(Event{
			QueuedAt: r.queuedAt, Start: now, Finish: now,
			Cyl: d.headCyl, SeekDist: 0,
			Sectors: r.Count, Write: false, Priority: r.Priority,
			Status: OK, CacheHit: true,
		})
	}
	if r.OnDone != nil {
		r.OnDone(now, now, OK)
	}
}
