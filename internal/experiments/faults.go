package experiments

import (
	"fmt"

	"declust/internal/array"
	"declust/internal/core"
	"declust/internal/drive"
	"declust/internal/sim"
)

// DoubleFailurePoint is one layout's damage report for a true double
// failure: disk 0 dies, and disk 1 dies before any of disk 0's units are
// recovered.
type DoubleFailurePoint struct {
	G     int
	Alpha float64
	// StripesAtRisk counts stripes exposed by the first failure;
	// StripesLost and UnitsLost count the damage the second one did.
	StripesAtRisk int64
	StripesLost   int64
	UnitsLost     int64
	// LostFraction is StripesLost/StripesAtRisk: declustering's balance
	// property pins it at α = (G−1)/(C−1), while RAID 5 (G = C) loses
	// every at-risk stripe.
	LostFraction float64
}

// DoubleFailureLoss enumerates, per parity stripe size, the damage of a
// second whole-disk failure at the worst moment (nothing yet rebuilt).
// This is the paper's partial-loss advantage made concrete: a declustered
// array loses only the stripes with units on both dead disks — the
// fraction α of the stripes at risk — where RAID 5 loses them all.
func DoubleFailureLoss(o Options) ([]DoubleFailurePoint, Table, error) {
	o = o.withDefaults()
	t := Table{ID: "double-failure",
		Title:  "Second whole-disk failure during rebuild: fraction of at-risk stripes lost (C=21)",
		Header: []string{"G", "α", "stripes at risk", "stripes lost", "units lost", "lost fraction"}}
	geom := drive.IBM0661()
	if o.Scale > 0 {
		geom = geom.Scaled(o.Scale)
	}
	gs := o.gs(true)
	pts, err := RunPoints(o.Workers, len(gs), func(i int) (DoubleFailurePoint, error) {
		g := gs[i]
		m, err := core.NewMapping(21, g, 0)
		if err != nil {
			return DoubleFailurePoint{}, fmt.Errorf("double-failure G=%d: %w", g, err)
		}
		df, lost, err := WorstSecondFailure(m, geom)
		if err != nil {
			return DoubleFailurePoint{}, fmt.Errorf("double-failure G=%d: %w", g, err)
		}
		p := DoubleFailurePoint{
			G: g, Alpha: m.Alpha(),
			StripesAtRisk: df.StripesAtRisk,
			StripesLost:   df.StripesLost,
			UnitsLost:     df.UnitsLost,
			LostFraction:  lost,
		}
		return p, nil
	})
	if err != nil {
		return nil, t, err
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(p.G), f2(p.Alpha),
			fmt.Sprint(p.StripesAtRisk), fmt.Sprint(p.StripesLost),
			fmt.Sprint(p.UnitsLost), f2(p.LostFraction),
		})
	}
	return pts, t, nil
}

// WorstSecondFailure enumerates the damage of a second whole-disk failure
// at the worst moment for mapping m: disk 0 fails, and disk 1 dies before
// any of disk 0's units are recovered. No workload runs and no simulated
// time passes. It returns the damage and the fraction of the stripes at
// risk that were lost (0 when none was at risk).
func WorstSecondFailure(m *core.Mapping, geom drive.Geometry) (array.DoubleFailure, float64, error) {
	arr, err := array.New(sim.New(), array.Config{
		Layout:      m.Layout,
		Geom:        geom,
		UnitSectors: 8,
	})
	if err != nil {
		return array.DoubleFailure{}, 0, err
	}
	if err := arr.Fail(0); err != nil {
		return array.DoubleFailure{}, 0, err
	}
	df, err := arr.SecondFail(1)
	if err != nil {
		return array.DoubleFailure{}, 0, err
	}
	lost := 0.0
	if df.StripesAtRisk > 0 {
		lost = float64(df.StripesLost) / float64(df.StripesAtRisk)
	}
	return df, lost, nil
}
