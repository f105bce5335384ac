package aladdin

import (
	"testing"

	"accelwall/internal/workloads"
)

// TestSimulateSteadyStateAllocs is the allocs-per-op regression gate on
// the per-design path the sweep pool runs: once the schedule-class cache
// and scratch pool are warm, Simulate must not grow the heap at all.
func TestSimulateSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse")
	}
	spec, err := workloads.ByAbbrev("FFT")
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	designs := equivalenceDesigns()[:8]
	for _, d := range designs { // warm cache + pool
		if _, err := c.Simulate(d); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(50, func() {
		for _, d := range designs {
			c.Simulate(d)
		}
	}); avg != 0 {
		t.Errorf("warm Simulate allocates %.1f objects per %d designs, want 0", avg, len(designs))
	}
}
