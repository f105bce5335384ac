package sweep

import (
	"context"
	"sync"
	"testing"

	"accelwall/internal/aladdin"
	"accelwall/internal/workloads"
)

// TestEngineMatchesRun verifies Engine.RunContext is point-for-point identical to
// the sequential reference sweep.
func TestEngineMatchesRun(t *testing.T) {
	g, err := workloads.BuildS2D(0)
	if err != nil {
		t.Fatal(err)
	}
	p := Reduced()
	want, err := refRun(g, p)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.RunContext(context.Background(), p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("point count: got %d want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d differs:\ngot  %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestEngineWarmIsIncremental verifies the memo table persists across
// calls: a second grid run over the same grid simulates nothing.
func TestEngineWarmIsIncremental(t *testing.T) {
	g, err := workloads.BuildRED(0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	p := Reduced()
	fresh, err := warm(context.Background(), e, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == 0 {
		t.Fatal("first Warm simulated nothing")
	}
	again, err := warm(context.Background(), e, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if again != 0 {
		t.Fatalf("second Warm simulated %d points, want 0", again)
	}
	if e.CachedPoints() != fresh {
		t.Fatalf("CachedPoints %d != fresh simulations %d", e.CachedPoints(), fresh)
	}
}

// TestEngineConcurrentEvaluate hammers one engine from many goroutines;
// run with -race this checks the locking discipline, and the results must
// agree with a fresh single-threaded evaluation.
func TestEngineConcurrentEvaluate(t *testing.T) {
	g, err := workloads.BuildFFT(0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	designs := Reduced().enumerate()
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, d := range designs {
				if _, err := e.EvaluateContext(context.Background(), d); err != nil {
					select {
					case errCh <- err:
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	want, err := aladdin.Simulate(g, designs[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.EvaluateContext(context.Background(), designs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate echoes the caller's design spelling while the direct path
	// reports the normalized one; compare the simulation outputs only.
	got.Design, want.Design = aladdin.Design{}, aladdin.Design{}
	if got != want {
		t.Fatalf("cached result differs from direct simulation:\ngot  %+v\nwant %+v", got, want)
	}
}
