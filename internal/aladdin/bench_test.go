package aladdin

import (
	"testing"

	"accelwall/internal/cmos"
)

// reducedGridClasses returns the distinct schedule classes of the reduced
// Table III grid (partitions 1, 4, ..., 262144; simplification 1, 4, 7,
// 10, 13; 45, 22, 10 and 5 nm; fusion off and on) on c, in grid order.
func reducedGridClasses(c *Compiled) []schedKey {
	var keys []schedKey
	seen := make(map[schedKey]bool)
	for p := 1; p <= MaxPartition; p *= 4 {
		for _, s := range []int{1, 4, 7, 10, 13} {
			for _, node := range []float64{45, 22, 10, 5} {
				for _, fusion := range []bool{false, true} {
					d := Design{NodeNM: node, Partition: p, Simplification: s, Fusion: fusion, ClockGHz: 1}
					k := c.walkKey(d, cmos.MustLookup(node))
					if !seen[k] {
						seen[k] = true
						keys = append(keys, k)
					}
				}
			}
		}
	}
	return keys
}

// BenchmarkScheduleWalk times the list scheduler itself: cold walks over
// every schedule class of the reduced grid, bypassing the schedule-summary
// cache that answers repeated designs (Compiled.Simulate on a walked class
// pays only finishResult). ns/node is the time per graph vertex per walk,
// comparable across kernels of different sizes.
func BenchmarkScheduleWalk(b *testing.B) {
	for _, abbrev := range []string{"FFT", "KNN", "S3D"} {
		abbrev := abbrev
		b.Run(abbrev, func(b *testing.B) {
			c, err := Compile(mustBuild(b, abbrev, 0))
			if err != nil {
				b.Fatal(err)
			}
			keys := reducedGridClasses(c)
			s := c.pool.Get().(*scratch)
			for _, k := range keys { // build the priority classes
				c.walk(k, s, false)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, k := range keys {
					c.walk(k, s, false)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)*c.NumVertices()), "ns/node")
		})
	}
}
