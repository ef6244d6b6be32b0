package drive

import "testing"

// TestLatentRule holds the set to the rule both injectors share: a latent
// sector fails every read that covers it until a write covering it heals it.
func TestLatentRule(t *testing.T) {
	var l Latent
	if l.Hit(0, 100) || l.Heal(0, 100) != 0 || l.Len() != 0 {
		t.Fatal("the zero Latent is not empty")
	}
	if !l.Add(10) || !l.Add(12) || l.Add(10) {
		t.Fatal("Add did not report which sectors were new")
	}
	for _, c := range []struct {
		start int64
		n     int
		hit   bool
	}{{10, 1, true}, {8, 3, true}, {11, 1, false}, {13, 5, false}, {0, 10, false}} {
		if got := l.Hit(c.start, c.n); got != c.hit {
			t.Errorf("Hit(%d, %d) = %v, want %v", c.start, c.n, got, c.hit)
		}
	}
	if got := l.Heal(11, 4); got != 1 || l.Len() != 1 || l.Hit(12, 1) || !l.Hit(10, 1) {
		t.Fatalf("Heal(11, 4) = %d leaving %d latent, want 1 leaving sector 10", got, l.Len())
	}
}

// TestMixIsSplitmix64 pins Mix to the published splitmix64 stream: fed the
// golden-gamma counter from seed 0, it must yield that generator's first
// outputs.
func TestMixIsSplitmix64(t *testing.T) {
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := Mix(uint64(i+1) * 0x9e3779b97f4a7c15); got != want {
			t.Errorf("Mix(%d·γ) = %#016x, want %#016x", i+1, got, want)
		}
	}
}
