// Package drive is a magnetic disk drive's mechanism with sector-accurate
// service times: a three-point calibrated seek curve, continuous rotation
// with track-skewed sector layout and multi-track transfers. Pricing one
// access is a pure function of the geometry, the head's cylinder, the
// start time and the sectors moved; queueing, scheduling and read-ahead
// belong to the caller. The default model is the IBM 0661 Model 370
// "Lightning" drive used by Holland and Gibson (Table 5-1 of the paper).
// The medium's one fault rule lives here too: Latent, the set of sectors
// that fail reads until next written, and Mix, the hash both fault
// injectors derive their draws from. The package imports only the standard
// library, so both the simulator and the real engine can link it.
package drive

import "fmt"

// Geometry describes the physical layout of a disk drive.
type Geometry struct {
	Cylinders       int     // number of seek positions
	TracksPerCyl    int     // surfaces (heads)
	SectorsPerTrack int     // sectors on each track
	BytesPerSector  int     // sector payload size
	TrackSkew       int     // sectors of offset between consecutive tracks
	RevolutionMS    float64 // time for one full rotation, in milliseconds

	MinSeekMS float64 // single-cylinder seek time
	AvgSeekMS float64 // average seek time over uniform random seeks
	MaxSeekMS float64 // full-stroke seek time
}

// IBM0661 returns the geometry of the IBM 0661 Model 370 (Lightning) drive:
// 949 cylinders x 14 tracks x 48 sectors of 512 bytes (~311 MB), 13.9 ms
// revolution (4316 RPM), seeks of 2 ms (min), 12.5 ms (avg), 25 ms (max),
// and a 4-sector track skew.
func IBM0661() Geometry {
	return Geometry{
		Cylinders:       949,
		TracksPerCyl:    14,
		SectorsPerTrack: 48,
		BytesPerSector:  512,
		TrackSkew:       4,
		RevolutionMS:    13.9,
		MinSeekMS:       2.0,
		AvgSeekMS:       12.5,
		MaxSeekMS:       25.0,
	}
}

// Scaled returns a copy of g with the cylinder count divided by den (at
// least 2 cylinders). Experiments use this to sweep smaller disks while
// keeping per-access behaviour identical; the seek curve is recalibrated to
// the same min/avg/max against the reduced stroke.
func (g Geometry) Scaled(den int) Geometry {
	if den <= 0 {
		panic(fmt.Sprintf("drive: invalid scale 1/%d", den))
	}
	s := g
	s.Cylinders = g.Cylinders / den
	if s.Cylinders < 2 {
		s.Cylinders = 2
	}
	return s
}

// AvgRandomAccessMS returns the model's expected service time for one
// random transfer of `sectors` sectors: average seek + half rotation +
// transfer. For the IBM 0661 and 8-sector (4 KB) transfers this is about
// 21.8 ms, i.e. ~46 accesses/second, matching the paper.
func (g Geometry) AvgRandomAccessMS(sectors int) float64 {
	return g.AvgSeekMS + g.RevolutionMS/2 +
		float64(sectors)/float64(g.SectorsPerTrack)*g.RevolutionMS
}

// Validate reports whether the geometry is internally consistent.
func (g Geometry) Validate() error {
	switch {
	case g.Cylinders < 2:
		return fmt.Errorf("drive: need at least 2 cylinders, have %d", g.Cylinders)
	case g.TracksPerCyl < 1:
		return fmt.Errorf("drive: need at least 1 track per cylinder, have %d", g.TracksPerCyl)
	case g.SectorsPerTrack < 1:
		return fmt.Errorf("drive: need at least 1 sector per track, have %d", g.SectorsPerTrack)
	case g.BytesPerSector < 1:
		return fmt.Errorf("drive: need positive sector size, have %d", g.BytesPerSector)
	case g.TrackSkew < 0 || g.TrackSkew >= g.SectorsPerTrack:
		return fmt.Errorf("drive: track skew %d out of range [0,%d)", g.TrackSkew, g.SectorsPerTrack)
	case g.RevolutionMS <= 0:
		return fmt.Errorf("drive: revolution time must be positive, have %v", g.RevolutionMS)
	case g.MinSeekMS < 0 || g.AvgSeekMS < g.MinSeekMS || g.MaxSeekMS < g.AvgSeekMS:
		return fmt.Errorf("drive: seek times must satisfy 0 <= min <= avg <= max, have %v/%v/%v",
			g.MinSeekMS, g.AvgSeekMS, g.MaxSeekMS)
	}
	return nil
}

// SectorsPerCylinder returns the number of sectors under all heads at one
// seek position.
func (g Geometry) SectorsPerCylinder() int64 {
	return int64(g.TracksPerCyl) * int64(g.SectorsPerTrack)
}

// TotalSectors returns the drive capacity in sectors.
func (g Geometry) TotalSectors() int64 {
	return int64(g.Cylinders) * g.SectorsPerCylinder()
}

// Chs is a cylinder/head/sector address.
type Chs struct {
	Cyl    int
	Track  int
	Sector int // logical sector index within the track
}

// Locate converts a logical block address to a cylinder/head/sector address.
func (g Geometry) Locate(lba int64) Chs {
	if lba < 0 || lba >= g.TotalSectors() {
		panic(fmt.Sprintf("drive: lba %d out of range [0,%d)", lba, g.TotalSectors()))
	}
	spc := g.SectorsPerCylinder()
	cyl := lba / spc
	rem := lba % spc
	return Chs{
		Cyl:    int(cyl),
		Track:  int(rem / int64(g.SectorsPerTrack)),
		Sector: int(rem % int64(g.SectorsPerTrack)),
	}
}

// PhysicalSector returns the angular slot (0..SectorsPerTrack-1) occupied by
// logical sector `sector` of global track index `globalTrack`. Consecutive
// tracks are skewed by TrackSkew slots so that a sequential transfer crossing
// a track boundary has time for a head switch without losing a revolution.
func (g Geometry) PhysicalSector(globalTrack int64, sector int) int {
	skew := (globalTrack * int64(g.TrackSkew)) % int64(g.SectorsPerTrack)
	return int((int64(sector) + skew) % int64(g.SectorsPerTrack))
}
