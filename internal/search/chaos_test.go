package search

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"accelwall/internal/faultinject"
	"accelwall/internal/leakcheck"
	"accelwall/internal/sweep"
)

// TestChaosSearchPool arms the simulation seam under a running search and
// asserts the search's contracts hold: injected faults surface as errors
// without deadlock or goroutine leaks, delays never change results, and
// once the injector is gone the same config reproduces the reference
// bit for bit.
func TestChaosSearchPool(t *testing.T) {
	ref, err := RunContext(context.Background(), buildEngine(t, "FFT"), searchCfg())
	if err != nil {
		t.Fatal(err)
	}
	modes := []faultinject.Mode{faultinject.ModeError, faultinject.ModePanic, faultinject.ModeDelay}
	for _, workers := range []int{1, 4} {
		for _, mode := range modes {
			t.Run(mode.String()+"/w"+string(rune('0'+workers)), func(t *testing.T) {
				leakcheck.Check(t)
				inj := faultinject.New(13).Set(sweep.SiteSimulate, faultinject.Rule{
					Mode: mode, P: 0.1, Delay: 50 * time.Microsecond,
				})
				faultinject.Enable(inj)
				defer faultinject.Disable()

				cfg := searchCfg()
				cfg.Workers = workers
				res, err := RunContext(context.Background(), buildEngine(t, "FFT"), cfg)
				if inj.Fired(sweep.SiteSimulate) == 0 {
					t.Fatalf("injector never fired over %d hits", inj.Hits(sweep.SiteSimulate))
				}
				switch mode {
				case faultinject.ModeDelay:
					if err != nil {
						t.Fatalf("delayed search failed: %v", err)
					}
					if !reflect.DeepEqual(ref, res) {
						t.Fatal("delays changed the search result")
					}
				default:
					if err == nil {
						t.Fatal("injected faults produced no error")
					}
					if mode == faultinject.ModeError && !errors.Is(err, faultinject.ErrInjected) {
						t.Fatalf("error does not wrap ErrInjected: %v", err)
					}
					if res != nil {
						t.Fatal("faulted search returned a result alongside its error")
					}
				}

				faultinject.Disable()
				again, err := RunContext(context.Background(), buildEngine(t, "FFT"), cfg)
				if err != nil {
					t.Fatalf("post-chaos search failed: %v", err)
				}
				if !reflect.DeepEqual(ref, again) {
					t.Fatal("post-chaos result diverged from reference")
				}
			})
		}
	}
}

// TestChaosSearchCancel cancels a search mid-flight at several worker
// counts: it must return ctx.Err() promptly, leak nothing, and leave the
// engine reusable.
func TestChaosSearchCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run("w"+string(rune('0'+workers)), func(t *testing.T) {
			leakcheck.Check(t)
			eng := buildEngine(t, "FFT")
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			cfg := searchCfg()
			cfg.Workers = workers
			if _, err := RunContext(ctx, eng, cfg); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-cancelled search: err = %v, want context.Canceled", err)
			}
			res, err := RunContext(context.Background(), eng, cfg)
			if err != nil || len(res.Frontier) == 0 {
				t.Fatalf("engine unusable after cancellation: %v", err)
			}
		})
	}
}
