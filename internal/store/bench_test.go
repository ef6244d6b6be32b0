package store

import (
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkFanOutHandOff measures what overlapThreshold is set against:
// the cost of handing one item of a two-item batch to a helper goroutine
// and joining it, over the same batch run inline.
func BenchmarkFanOutHandOff(b *testing.B) {
	for _, v := range []struct {
		name      string
		threshold time.Duration
	}{{"inline", time.Hour}, {"handoff", 0}} {
		b.Run(v.name, func(b *testing.B) {
			old := overlapThreshold
			overlapThreshold = v.threshold
			defer func() { overlapThreshold = old }()
			s, err := New(Config{Layout: testLayout(b, 7, 4), UnitsPerDisk: 48, UnitSize: 512, IOWorkers: 4})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			var sink atomic.Int64
			item := func(i int) error { sink.Add(int64(i)); return nil }
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.fanOutFunc(2, item); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
