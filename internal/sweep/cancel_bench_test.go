package sweep

import (
	"context"
	"testing"
	"time"

	"accelwall/internal/workloads"
)

// BenchmarkCancelLatency measures the time from cancelling a mid-grid
// Engine.RunContext to full pool quiescence (the call returning). The
// timer runs only across cancel() → return, so ns/op is the cancellation
// latency itself; scripts/bench.sh records it in BENCH_cancel.json.
func BenchmarkCancelLatency(b *testing.B) {
	spec, err := workloads.ByAbbrev("S3D")
	if err != nil {
		b.Fatal(err)
	}
	g, err := spec.Build(0)
	if err != nil {
		b.Fatal(err)
	}
	p := Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			runParallelContext(ctx, g, p, 0) //nolint:errcheck // cancelled on purpose
			close(done)
		}()
		time.Sleep(2 * time.Millisecond) // let the pool get mid-grid
		b.StartTimer()
		cancel()
		<-done
	}
}
