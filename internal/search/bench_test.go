package search

import (
	"context"
	"testing"

	"accelwall/internal/sweep"
	"accelwall/internal/workloads"
)

func benchGraph(b *testing.B, abbrev string) *sweep.Engine {
	b.Helper()
	spec, err := workloads.ByAbbrev(abbrev)
	if err != nil {
		b.Fatal(err)
	}
	g, err := spec.Build(0)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := sweep.NewEngine(g)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkSearchTable3 runs the default NSGA-II search over the full
// Table III space on a cold engine each iteration and reports the three
// quantities BENCH_search.json records: raw evaluation throughput, how
// much of the exhaustive frontier the search recovers, and what fraction
// of the grid's unique evaluations it spent doing so.
func BenchmarkSearchTable3(b *testing.B) {
	// Exhaustive baseline, once: the grid's unique-point count and true
	// frontier under the default objectives.
	base := benchGraph(b, "S3D")
	cfg := Config{}.Normalized()
	st := newState(cfg, base)
	var gens []genotype
	lens := cfg.Space.axisLens()
	var g genotype
	var rec func(a int)
	rec = func(a int) {
		if a == numAxes {
			gens = append(gens, g)
			return
		}
		for i := 0; i < lens[a]; i++ {
			g[a] = i
			rec(a + 1)
		}
	}
	rec(0)
	if _, err := st.evalBatch(b.Context(), gens); err != nil {
		b.Fatal(err)
	}
	truth := st.frontier()
	gridEvals := len(st.entries)

	var evals, hits int
	var frac float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := benchGraph(b, "S3D") // cold engine: no cross-iteration memo
		b.StartTimer()
		res, err := RunContext(context.Background(), eng, Config{})
		if err != nil {
			b.Fatal(err)
		}
		evals += res.Evaluations
		b.StopTimer()
		have := make(map[string]bool, len(res.Frontier))
		for _, p := range res.Frontier {
			have[pointKey(p)] = true
		}
		hits = 0
		for _, p := range truth {
			if have[pointKey(p)] {
				hits++
			}
		}
		frac = float64(res.Evaluations) / float64(gridEvals)
		b.StartTimer()
	}
	b.ReportMetric(float64(evals)/b.Elapsed().Seconds(), "evals/sec")
	b.ReportMetric(100*float64(hits)/float64(len(truth)), "coverage-%")
	b.ReportMetric(100*frac, "grid-evals-%")
}
