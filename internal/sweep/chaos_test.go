package sweep

import (
	"context"
	"errors"
	"testing"
	"time"

	"accelwall/internal/faultinject"
	"accelwall/internal/leakcheck"
)

// TestChaosSweepPool arms the simulation seam with every fault mode at
// several pool widths and asserts the pool's contracts hold under fire:
// it never deadlocks, never leaks a goroutine, recovers panicking
// workers, reports injected errors, and — once the injector is removed —
// produces bit-identical results again.
func TestChaosSweepPool(t *testing.T) {
	g := buildApp(t, "FFT", 0)
	ref, err := refRun(g, tiny())
	if err != nil {
		t.Fatal(err)
	}
	modes := []faultinject.Mode{faultinject.ModeError, faultinject.ModePanic, faultinject.ModeDelay}
	for _, workers := range []int{1, 4, 8} {
		for _, mode := range modes {
			t.Run(mode.String()+"/w"+string(rune('0'+workers)), func(t *testing.T) {
				leakcheck.Check(t)
				inj := faultinject.New(11).Set(SiteSimulate, faultinject.Rule{
					Mode: mode, P: 0.2, Delay: 100 * time.Microsecond,
				})
				faultinject.Enable(inj)
				defer faultinject.Disable()

				pts, err := runParallel(g, tiny(), workers)
				if inj.Fired(SiteSimulate) == 0 {
					t.Fatalf("injector never fired over %d hits", inj.Hits(SiteSimulate))
				}
				switch mode {
				case faultinject.ModeDelay:
					if err != nil {
						t.Fatalf("delayed sweep failed: %v", err)
					}
					if len(pts) != len(ref) {
						t.Fatalf("delayed sweep returned %d points, want %d", len(pts), len(ref))
					}
					for i := range pts {
						if pts[i] != ref[i] {
							t.Fatalf("delay changed results at %d:\n got %+v\nwant %+v", i, pts[i], ref[i])
						}
					}
				default:
					// Errors and recovered panics surface as a run error;
					// the pool must still have drained every design (no
					// deadlock, no early exit) before reporting it.
					if err == nil {
						t.Fatal("injected faults produced no error")
					}
					if mode == faultinject.ModeError && !errors.Is(err, faultinject.ErrInjected) {
						t.Fatalf("error does not wrap ErrInjected: %v", err)
					}
					if pts != nil {
						t.Fatalf("faulted sweep returned %d points alongside error", len(pts))
					}
				}

				// The engine is not poisoned: with the injector gone the
				// same pool produces the reference results.
				faultinject.Disable()
				again, err := runParallel(g, tiny(), workers)
				if err != nil {
					t.Fatalf("post-chaos sweep failed: %v", err)
				}
				for i := range again {
					if again[i] != ref[i] {
						t.Fatalf("post-chaos results diverged at %d", i)
					}
				}
			})
		}
	}
}

// TestChaosEngineReleasesNothing verifies a panicking design point inside
// Engine.EvaluateContext is contained: the call errors, later calls succeed, and
// the memo table never caches a poisoned result.
func TestChaosEngineEvaluateRecovers(t *testing.T) {
	g := buildApp(t, "FFT", 0)
	eng, err := NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	leakcheck.Check(t)
	d := tiny().enumerate()[0]

	faultinject.Enable(faultinject.New(1).Set(SiteSimulate, faultinject.Rule{
		Mode: faultinject.ModePanic, Every: 1,
	}))
	if _, err := eng.EvaluateContext(context.Background(), d); err == nil {
		t.Fatal("Evaluate swallowed an injected panic")
	}
	if n := eng.CachedPoints(); n != 0 {
		t.Fatalf("poisoned evaluation left %d cached points", n)
	}
	faultinject.Disable()

	got, err := eng.EvaluateContext(context.Background(), d)
	if err != nil {
		t.Fatalf("post-chaos Evaluate failed: %v", err)
	}
	ref, err := NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.EvaluateContext(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("post-chaos Evaluate diverged: got %+v want %+v", got, want)
	}
}

// TestChaosCancelDuringFaults mixes cancellation with injected panics:
// the combination must neither deadlock nor leak, and must surface an
// error (either the cancellation or an injected fault).
func TestChaosCancelDuringFaults(t *testing.T) {
	g := buildApp(t, "S3D", 0)
	for _, workers := range []int{1, 4, 8} {
		leakcheck.Check(t)
		inj := faultinject.New(5).Set(SiteSimulate, faultinject.Rule{
			Mode: faultinject.ModePanic, P: 0.3, Delay: 0,
		})
		faultinject.Enable(inj)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := runParallelContext(ctx, g, Default(), workers)
			done <- err
		}()
		waitHits(t, inj, SiteSimulate, 3)
		cancel()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("workers=%d: cancelled chaos run reported success", workers)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: pool deadlocked under cancel+panic chaos", workers)
		}
		faultinject.Disable()
	}
}
