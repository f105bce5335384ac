package sweep

import (
	"context"
	"testing"

	"accelwall/internal/aladdin"
)

// TestEvaluateWarmAllocs is the serving-path allocation gate: once a
// design's normalized key is memoized, Engine.EvaluateContext must answer without
// growing the heap at all — the hot path of a warm server is a read-locked
// map lookup and a value copy.
func TestEvaluateWarmAllocs(t *testing.T) {
	g := buildApp(t, "FFT", 0)
	eng, err := NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	d := aladdin.Design{NodeNM: 45, Partition: 16, Simplification: 3, Fusion: true}
	if _, err := eng.EvaluateContext(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := eng.EvaluateContext(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("warm Evaluate allocates %.1f objects per call, want 0", avg)
	}
}

// TestWarmGridSecondPassAllocs bounds the whole warm sweep path: a second
// grid run over an already-resident grid must run no simulations and allocate
// only the bounded bookkeeping of the scan itself (dedup map + key list),
// never per-point simulation state.
func TestWarmGridSecondPassAllocs(t *testing.T) {
	g := buildApp(t, "FFT", 0)
	eng, err := NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	p := tiny()
	if _, err := warm(context.Background(), eng, p, 2); err != nil {
		t.Fatal(err)
	}
	fresh, err := warm(context.Background(), eng, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fresh != 0 {
		t.Fatalf("second Warm ran %d simulations over a resident grid", fresh)
	}
}
