package drive

// Latent is a set of latent sectors: a latent sector fails every read
// until it is next written, which remaps it (Thomasian, arXiv:1801.08873).
// A latent error is a property of the medium, so both fault injectors keep
// their damage here, whatever they call a sector (the simulator a 512-byte
// sector, the storage engine a unit). The zero value is empty. Not safe for
// concurrent use.
type Latent struct {
	m map[int64]struct{}
}

// Add makes sector s latent and reports whether it was not already.
func (l *Latent) Add(s int64) bool {
	if _, ok := l.m[s]; ok {
		return false
	}
	if l.m == nil {
		l.m = make(map[int64]struct{})
	}
	l.m[s] = struct{}{}
	return true
}

// Hit reports whether any of the n sectors from start is latent, that is,
// whether a read of them meets a media error.
func (l *Latent) Hit(start int64, n int) bool {
	if len(l.m) == 0 {
		return false
	}
	for s := start; s < start+int64(n); s++ {
		if _, ok := l.m[s]; ok {
			return true
		}
	}
	return false
}

// Heal remaps the latent sectors among the n from start, as a write of them
// does, and returns how many it cleared.
func (l *Latent) Heal(start int64, n int) int {
	if len(l.m) == 0 {
		return 0
	}
	healed := 0
	for s := start; s < start+int64(n); s++ {
		if _, ok := l.m[s]; ok {
			delete(l.m, s)
			healed++
		}
	}
	return healed
}

// Len returns the number of latent sectors.
func (l *Latent) Len() int { return len(l.m) }

// Mix is the splitmix64 finalizer (Steele, Lea and Flood, OOPSLA 2014): a
// bijection of 64-bit words whose every output bit depends on every input
// bit. Fed a counter, as Mix(seed + i·0x9e3779b97f4a7c15), it yields the
// splitmix64 stream; fed a key, it yields a draw that depends on nothing
// but the key — the counter-based generation of Salmon et al. (SC 2011).
func Mix(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
