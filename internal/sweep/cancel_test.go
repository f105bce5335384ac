package sweep

import (
	"context"
	"errors"
	"testing"
	"time"

	"accelwall/internal/faultinject"
	"accelwall/internal/leakcheck"
)

// waitHits blocks until the injector has observed at least n hits at the
// site, so tests can cancel a pool mid-grid at a known progress point.
func waitHits(t *testing.T, inj *faultinject.Injector, site string, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for inj.Hits(site) < n {
		if time.Now().After(deadline) {
			t.Fatalf("pool made no progress: %d hits at %s", inj.Hits(site), site)
		}
		time.Sleep(time.Millisecond)
	}
}

// pace arms a delay at the simulation seam so every design point takes at
// least d, giving cancellation tests a window to fire mid-grid.
func pace(t *testing.T, d time.Duration) *faultinject.Injector {
	t.Helper()
	inj := faultinject.New(1).Set(SiteSimulate, faultinject.Rule{
		Mode: faultinject.ModeDelay, Every: 1, Delay: d,
	})
	faultinject.Enable(inj)
	t.Cleanup(faultinject.Disable)
	return inj
}

func TestRunParallelContextPreCancelled(t *testing.T) {
	g := buildApp(t, "FFT", 0)
	for _, workers := range []int{1, 4, 8} {
		leakcheck.Check(t)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		pts, err := runParallelContext(ctx, g, tiny(), workers)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if pts != nil {
			t.Fatalf("workers=%d: got %d points from a cancelled run", workers, len(pts))
		}
	}
}

// TestCancelMidGridStopsWithinOneChunk cancels a paced sweep mid-grid and
// asserts (a) ctx.Err() surfaces, (b) the pool quiesces quickly — it may
// finish at most one in-flight design per worker, far less than the
// remaining grid — and (c) no goroutines leak.
func TestCancelMidGridStopsWithinOneChunk(t *testing.T) {
	g := buildApp(t, "S3D", 0)
	const perPoint = 2 * time.Millisecond
	for _, workers := range []int{1, 4, 8} {
		t.Run(string(rune('0'+workers)), func(t *testing.T) {
			leakcheck.Check(t)
			inj := pace(t, perPoint)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() {
				_, err := runParallelContext(ctx, g, tiny(), workers)
				done <- err
			}()
			waitHits(t, inj, SiteSimulate, 5)
			cancel()
			start := time.Now()
			err := <-done
			quiesce := time.Since(start)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			// A worker checks ctx between designs, so quiescence is at most
			// one paced design per worker plus scheduling noise; the full
			// grid would take tens of chunks more.
			if quiesce > time.Duration(workers)*perPoint+500*time.Millisecond {
				t.Fatalf("pool took %s to quiesce after cancel", quiesce)
			}
		})
	}
}

// TestWarmContextKeepsBitIdenticalPrefix cancels Engine.RunContext
// mid-grid and asserts every design point that did complete is
// bit-identical to the same point from an uncancelled engine.
func TestWarmContextKeepsBitIdenticalPrefix(t *testing.T) {
	g := buildApp(t, "S3D", 0)
	ref, err := NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm(context.Background(), ref, tiny(), 0); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		t.Run(string(rune('0'+workers)), func(t *testing.T) {
			leakcheck.Check(t)
			inj := pace(t, time.Millisecond)
			eng, err := NewEngine(g)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() {
				_, err := eng.RunContext(ctx, tiny(), workers)
				done <- err
			}()
			waitHits(t, inj, SiteSimulate, 8)
			cancel()
			if err := <-done; !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			faultinject.Disable()

			// EvaluateContext on the cancelled ctx serves memoized points
			// only, so it walks exactly the completed prefix.
			completed := 0
			for _, d := range tiny().enumerate() {
				got, err := eng.EvaluateContext(ctx, d)
				if err != nil {
					continue
				}
				want, err := ref.EvaluateContext(context.Background(), d)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("workers=%d: completed point %+v diverged:\n got %+v\nwant %+v", workers, d, got, want)
				}
				completed++
			}
			if completed == 0 {
				t.Fatalf("workers=%d: cancelled warm retained no completed points", workers)
			}
			if completed == len(tiny().enumerate()) {
				t.Logf("workers=%d: grid finished before cancel; prefix check vacuous", workers)
			}
		})
	}
}

func TestAttributeContextCancelled(t *testing.T) {
	g := buildApp(t, "FFT", 0)
	leakcheck.Check(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng, err := NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Attribute(ctx, "FFT", tiny(), Performance, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("Attribute (1 worker) err = %v, want context.Canceled", err)
	}
	if _, err := eng.Attribute(ctx, "FFT", tiny(), Performance, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("Attribute (4 workers) err = %v, want context.Canceled", err)
	}
	if _, _, _, err := eng.Fig13(ctx, tiny(), 4, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Fig13 err = %v, want context.Canceled", err)
	}
	if _, err := eng.RunContext(ctx, tiny(), 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext err = %v, want context.Canceled", err)
	}
}
