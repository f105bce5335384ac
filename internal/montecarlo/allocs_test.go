package montecarlo

import (
	"context"
	"runtime"
	"testing"
)

// maxAllocsPerReplicate bounds the heap objects one replicate allocates:
// the refitted budget model, the jittered scaling table, the gains models
// and the eight projections. The compiled corpus and relation plan keep
// the resample, the refit's gather buffers and the GPU relation matrix
// off the per-replicate heap; a regression that copies chips or rebuilds
// string-keyed maps per replicate blows well past it.
const maxAllocsPerReplicate = 225

// maxBytesPerReplicate bounds the heap bytes one replicate allocates,
// the run's share of the worker's gather buffers included. A fit that
// builds a prediction slice per regression, or case-study tables rebuilt
// per projection, blows past it.
const maxBytesPerReplicate = 80 << 10

// replicateCost runs the gates' 10-replicate Engine.RunContext at one
// worker, reduction included, and returns its heap objects and bytes per
// replicate, averaged over five runs after a warm-up run (the method of
// testing.AllocsPerRun).
func replicateCost(t *testing.T) (allocs, bytes float64) {
	t.Helper()
	e, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Replicates: 10, Seed: 3, Workers: 1}
	run := func() {
		if _, err := e.RunContext(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run()
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	n := float64(runs * cfg.Replicates)
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

// TestReplicateAllocs is the Monte Carlo allocation gate: the run must
// stay within maxAllocsPerReplicate objects per replicate.
func TestReplicateAllocs(t *testing.T) {
	per, _ := replicateCost(t)
	t.Logf("%.0f allocations per replicate", per)
	if per > maxAllocsPerReplicate {
		t.Errorf("%.0f allocations per replicate, want <= %d", per, maxAllocsPerReplicate)
	}
}

// TestReplicateBytes is the Monte Carlo heap-bytes gate: the same run
// must stay within maxBytesPerReplicate bytes per replicate.
func TestReplicateBytes(t *testing.T) {
	_, per := replicateCost(t)
	t.Logf("%.0f bytes per replicate", per)
	if per > maxBytesPerReplicate {
		t.Errorf("%.0f bytes per replicate, want <= %d", per, maxBytesPerReplicate)
	}
}
