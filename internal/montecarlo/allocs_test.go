package montecarlo

import (
	"context"
	"testing"
)

// maxAllocsPerReplicate bounds the heap objects one replicate allocates:
// the refitted budget model, the jittered scaling table, the gains models
// and the eight projections. The compiled corpus and relation plan keep
// the resample, the refit's gather buffers and the GPU relation matrix
// off the per-replicate heap; a regression that copies chips or rebuilds
// string-keyed maps per replicate blows well past it.
const maxAllocsPerReplicate = 350

// TestReplicateAllocs is the Monte Carlo allocation gate: a 10-replicate
// Engine.RunContext at one worker, reduction included, must stay within
// maxAllocsPerReplicate objects per replicate.
func TestReplicateAllocs(t *testing.T) {
	e, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Replicates: 10, Seed: 3, Workers: 1}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := e.RunContext(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	})
	per := avg / float64(cfg.Replicates)
	t.Logf("%.0f allocations per replicate", per)
	if per > maxAllocsPerReplicate {
		t.Errorf("%.0f allocations per replicate, want <= %d", per, maxAllocsPerReplicate)
	}
}
