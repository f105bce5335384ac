package search

import (
	"context"
	"testing"

	"accelwall/internal/sweep"
)

// The acceptance bar: on the paper's Table III space the search recovers
// the exhaustively computed Pareto frontier with >= 95% coverage while
// simulating <= 25% of the grid's unique design points — for both
// strategies, on several workload shapes. (BENCH_search.json records the
// same quantities for the benchmark host.)
func TestSearchCoverageTableIII(t *testing.T) {
	for _, wl := range []string{"S3D", "S2D", "FFT"} {
		eng := buildEngine(t, wl)
		truth, gridEvals := trueFrontier(t, eng, Config{})
		if len(truth) == 0 {
			t.Fatalf("%s: empty exhaustive frontier", wl)
		}
		for _, strat := range []Strategy{NSGA2, Halving} {
			// A fresh engine per run so memoization cannot hide the
			// search's own evaluation count.
			fresh, err := sweep.NewEngine(mustGraph(t, wl))
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunContext(context.Background(), fresh, Config{Strategy: strat})
			if err != nil {
				t.Fatal(err)
			}
			cov := coverage(truth, res.Frontier)
			frac := float64(res.Evaluations) / float64(gridEvals)
			t.Logf("%s %-8v coverage=%.1f%% evals=%d/%d (%.1f%%) frontier=%d/%d",
				wl, strat, 100*cov, res.Evaluations, gridEvals, 100*frac, len(res.Frontier), len(truth))
			if cov < 0.95 {
				t.Errorf("%s %v: coverage %.1f%%, want >= 95%%", wl, strat, 100*cov)
			}
			if frac > 0.25 {
				t.Errorf("%s %v: %d evaluations is %.1f%% of the %d-point grid, want <= 25%%",
					wl, strat, res.Evaluations, 100*frac, gridEvals)
			}
		}
	}
}
