package array

import "testing"

// The tentpole claim at the simulator level: a true second whole-disk
// failure, which costs a single-parity declustered array α of its at-risk
// stripes, loses NOTHING under P+Q — every double-dead stripe decodes.
func TestPQSecondFailureLosesNothing(t *testing.T) {
	_, a := arrayOf(t, 5, 2, nil)
	if err := a.Fail(0); err != nil {
		t.Fatal(err)
	}
	df, err := a.SecondFail(1)
	if err != nil {
		t.Fatal(err)
	}
	if df.StripesAtRisk == 0 || df.StripesSurvived == 0 {
		t.Fatalf("double failure %+v: want at-risk and surviving stripes", df)
	}
	if df.StripesLost != 0 || df.UnitsLost != 0 {
		t.Fatalf("P+Q lost %d stripes / %d units to a double failure, want none: %+v",
			df.StripesLost, df.UnitsLost, df)
	}
	// The survivors are exactly the stripes single parity would have lost:
	// α = (G−1)/(C−1) of the at-risk stripes, by the layout's balance.
	l := a.Layout()
	alpha := float64(l.G()-1) / float64(l.Disks()-1)
	frac := float64(df.StripesSurvived) / float64(df.StripesAtRisk)
	if frac < alpha*0.8 || frac > alpha*1.2 {
		t.Fatalf("surviving fraction %.4f, want within 20%% of α=%.4f", frac, alpha)
	}
	if got := a.FaultStats().LostUnits; got != 0 {
		t.Fatalf("FaultStats.LostUnits = %d after a survivable double failure", got)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
