package drive

import "testing"

func TestIBM0661Capacity(t *testing.T) {
	g := IBM0661()
	mechanism(t, g) // valid, and its seek curve calibrates
	if got := g.TotalSectors(); got != 949*14*48 {
		t.Fatalf("TotalSectors = %d, want %d", got, 949*14*48)
	}
	// ~311 MB drive.
	if mb := g.TotalSectors() * int64(g.BytesPerSector) / (1 << 20); mb < 300 || mb > 320 {
		t.Fatalf("capacity = %d MiB, want ~311", mb)
	}
}

func TestLocateFields(t *testing.T) {
	g := IBM0661()
	cases := []struct {
		lba  int64
		want Chs
	}{
		{0, Chs{Cyl: 0, Track: 0, Sector: 0}},
		{47, Chs{Cyl: 0, Track: 0, Sector: 47}},
		{48, Chs{Cyl: 0, Track: 1, Sector: 0}},
		{14 * 48, Chs{Cyl: 1, Track: 0, Sector: 0}},
		{g.TotalSectors() - 1, Chs{Cyl: 948, Track: 13, Sector: 47}},
	}
	for _, c := range cases {
		if got := g.Locate(c.lba); got != c.want {
			t.Errorf("Locate(%d) = %+v, want %+v", c.lba, got, c.want)
		}
	}
}

func TestLocateOutOfRangePanics(t *testing.T) {
	g := IBM0661()
	for _, lba := range []int64{-1, g.TotalSectors()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for lba %d", lba)
				}
			}()
			g.Locate(lba)
		}()
	}
}

func TestPhysicalSectorSkew(t *testing.T) {
	g := IBM0661()
	// Track 0: identity mapping.
	if got := g.PhysicalSector(0, 5); got != 5 {
		t.Fatalf("track 0 sector 5 at slot %d, want 5", got)
	}
	// Track 1 is skewed by 4 slots.
	if got := g.PhysicalSector(1, 0); got != 4 {
		t.Fatalf("track 1 sector 0 at slot %d, want 4", got)
	}
	// Skew wraps modulo sectors per track: track 12 -> 48 mod 48 = 0.
	if got := g.PhysicalSector(12, 0); got != 0 {
		t.Fatalf("track 12 sector 0 at slot %d, want 0", got)
	}
}

func TestPhysicalSectorBijectivePerTrack(t *testing.T) {
	g := IBM0661()
	for _, track := range []int64{0, 1, 7, 13, 1000} {
		seen := make(map[int]bool)
		for s := 0; s < g.SectorsPerTrack; s++ {
			p := g.PhysicalSector(track, s)
			if seen[p] {
				t.Fatalf("track %d: slot %d used twice", track, p)
			}
			seen[p] = true
		}
	}
}

func TestScaled(t *testing.T) {
	g := IBM0661().Scaled(10)
	if g.Cylinders != 94 {
		t.Fatalf("scaled cylinders = %d, want 94", g.Cylinders)
	}
	mechanism(t, g)
	// Scaling never goes below 2 cylinders.
	tiny := IBM0661().Scaled(100000)
	if tiny.Cylinders != 2 {
		t.Fatalf("tiny cylinders = %d, want 2", tiny.Cylinders)
	}
}

func TestValidateRejectsBadGeometry(t *testing.T) {
	bad := []func(*Geometry){
		func(g *Geometry) { g.Cylinders = 1 },
		func(g *Geometry) { g.TracksPerCyl = 0 },
		func(g *Geometry) { g.SectorsPerTrack = 0 },
		func(g *Geometry) { g.BytesPerSector = 0 },
		func(g *Geometry) { g.TrackSkew = -1 },
		func(g *Geometry) { g.TrackSkew = 48 },
		func(g *Geometry) { g.RevolutionMS = 0 },
		func(g *Geometry) { g.AvgSeekMS = g.MinSeekMS - 1 },
		func(g *Geometry) { g.MaxSeekMS = g.AvgSeekMS - 1 },
	}
	for i, mutate := range bad {
		g := IBM0661()
		mutate(&g)
		if _, err := New(g); err == nil {
			t.Errorf("case %d: bad geometry accepted", i)
		}
	}
}
