package main

import (
	"slices"
)

// Every timing the benchmark reports is a quiet-tail figure. The host this
// runs on is shared: for seconds, sometimes minutes, at a time everything
// that touches memory runs up to a third slower (a plain loop of 4 KiB
// copies out of a large slice, no engine involved, shows the same swings),
// and those stretches come and go unpredictably, so a run's median moves by
// 20 % between runs of one commit while its best stretches repeat within a
// few percent. So each quantity is computed per short chunk of consecutive
// work — a segment of a client's ops, one rebuild, 1024 latency samples —
// and the value reported is a chunk near the good end: the one with ten
// chunks better than it, but never deeper than a tenth of the way in (few
// chunks) nor shallower than a hundredth (many). Interference only ever
// makes a chunk worse; a change to the engine moves every chunk, the good
// ones too.
const (
	quietBeyond             = 10
	quietDeepest, quietEdge = 0.10, 0.01
)

// quiet returns the quiet-tail value of vals, interpolated between ranks;
// 0 for no values.
func quiet(vals []float64, higherIsBetter bool) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	q := min(quietDeepest, max(quietEdge, quietBeyond/float64(len(s))))
	if higherIsBetter {
		q = 1 - q
	}
	return quantile(s, q)
}

// quantile interpolates the q-quantile of sorted between ranks.
func quantile[T uint32 | float64](sorted []T, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	v := float64(sorted[i])
	if i+1 < len(sorted) {
		v += (pos - float64(i)) * (float64(sorted[i+1]) - v)
	}
	return v
}

// median returns the middle of vals; 0 for none.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// latChunk is how many consecutive latency samples of one client and phase
// make a chunk: a hundred-odd reads and as many writes for each median.
const latChunk = 256

// medians cuts each client's samples (in issue order; writeFlag marks
// writes) into chunks of latChunk, takes the median read and the median
// write of each, and returns the quiet tail of both over all chunks, in µs.
// A client with fewer than two whole chunks counts as one chunk.
func medians(perClient [][]uint32) (readP50, writeP50 float64, chunks int) {
	var rd, wr []float64
	var reads, writes []uint32
	for _, samples := range perClient {
		size := latChunk
		if len(samples) < 2*latChunk {
			size = max(len(samples), 1)
		}
		for lo := 0; lo+size <= len(samples); lo += size {
			reads, writes = reads[:0], writes[:0]
			for _, s := range samples[lo : lo+size] {
				if s&writeFlag != 0 {
					writes = append(writes, s&^writeFlag)
				} else {
					reads = append(reads, s)
				}
			}
			if len(reads) == 0 || len(writes) == 0 {
				continue
			}
			slices.Sort(reads)
			slices.Sort(writes)
			rd = append(rd, quantile(reads, 0.5)/1e3)
			wr = append(wr, quantile(writes, 0.5)/1e3)
		}
	}
	return quiet(rd, false), quiet(wr, false), len(rd)
}

// tailUs returns the tail percentile of all the samples, reads and writes
// together, in µs, and the quantile it stands for: p99, or with fewer than
// a thousand samples the highest quantile that still has ten beyond it — a
// percentile with fewer is one or two ops' luck.
func tailUs(perClient [][]uint32) (us, q float64) {
	var all []uint32
	for _, samples := range perClient {
		for _, s := range samples {
			all = append(all, s&^writeFlag)
		}
	}
	if len(all) == 0 {
		return 0, 0.99
	}
	slices.Sort(all)
	q = min(0.99, max(0.5, 1-10/float64(len(all))))
	return quantile(all, q) / 1e3, q
}
