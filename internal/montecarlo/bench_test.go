package montecarlo

import (
	"context"
	"fmt"
	"testing"
)

// benchReplicates sizes the benchmark run; replicates/sec is reported
// against it.
const benchReplicates = 40

// BenchmarkUncertainty measures full Monte Carlo runs (resample + refit +
// jitter + 8 projections per replicate) at several pool widths. One engine
// is shared across iterations, so engine construction (corpus generation,
// compile, base fit and projections) is left out. The server does not
// share engines: a memo miss builds a fresh engine on every request,
// which BenchmarkUncertaintyServedMiss measures.
func BenchmarkUncertainty(b *testing.B) {
	e, err := New(1)
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := Config{Replicates: benchReplicates, Seed: 1, Workers: workers}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.RunContext(context.Background(), cfg); err != nil {
					b.Fatalf("Run: %v", err)
				}
			}
			b.ReportMetric(float64(b.N*benchReplicates)/b.Elapsed().Seconds(), "replicates/sec")
		})
	}
}

// BenchmarkUncertaintyServedMiss measures what POST /v1/uncertainty pays
// per memo miss: the one-shot RunCheckpointed, which builds a fresh
// engine (corpus generation, compile, base fit and projections) and then
// runs 10 replicates on a GOMAXPROCS-wide pool.
func BenchmarkUncertaintyServedMiss(b *testing.B) {
	cfg := Config{Replicates: 10, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunCheckpointed(context.Background(), cfg, nil); err != nil {
			b.Fatalf("RunCheckpointed: %v", err)
		}
	}
}
