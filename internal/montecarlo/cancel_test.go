package montecarlo

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"accelwall/internal/faultinject"
	"accelwall/internal/leakcheck"
)

// testConfig is a small, fast run shared by the cancellation suite.
func testConfig(workers int) Config {
	return Config{Replicates: 48, Seed: 7, CorpusSeed: 7, Workers: workers}.withDefaults()
}

// runFresh builds an engine over cfg's corpus and runs cfg on it — the
// one-shot call the tests compare engines against.
func runFresh(ctx context.Context, cfg Config) (*Result, error) {
	e, err := New(cfg.CorpusSeed)
	if err != nil {
		return nil, err
	}
	return e.RunContext(ctx, cfg)
}

// runReplicates executes the replicate pool and returns the raw slots;
// cancelled runs return early with whatever completed, so the tests can
// assert the completed slots are bit-identical to an uncancelled run's.
func (e *Engine) runReplicates(ctx context.Context, cfg Config) []replicateOut {
	outs := make([]replicateOut, cfg.Replicates)
	e.runReplicatesInto(ctx, cfg, outs, 0, nil)
	return outs
}

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

func TestRunContextPreCancelled(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		leakcheck.Check(t)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := runFresh(ctx, testConfig(workers))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if res != nil {
			t.Fatalf("workers=%d: cancelled run returned a result", workers)
		}
	}
}

// TestCancelMidRunPrefixBitIdentical cancels a paced run mid-way and
// asserts every replicate slot that completed before quiescence is
// bit-identical to the same slot of an uncancelled run — the substream
// discipline means a replicate's output cannot depend on when (or
// whether) its siblings ran.
func TestCancelMidRunPrefixBitIdentical(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		t.Run(string(rune('0'+workers)), func(t *testing.T) {
			leakcheck.Check(t)
			cfg := testConfig(workers)
			e, err := New(cfg.CorpusSeed)
			if err != nil {
				t.Fatal(err)
			}
			full := e.runReplicates(context.Background(), cfg)

			inj := faultinject.New(1).Set(SiteReplicate, faultinject.Rule{
				Mode: faultinject.ModeDelay, Every: 1, Delay: 2 * time.Millisecond,
			})
			faultinject.Enable(inj)
			defer faultinject.Disable()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			type res struct{ outs []replicateOut }
			done := make(chan res, 1)
			go func() {
				done <- res{e.runReplicates(ctx, cfg)}
			}()
			waitHits(t, inj, SiteReplicate, 5)
			cancel()
			start := time.Now()
			partial := (<-done).outs
			quiesce := time.Since(start)
			faultinject.Disable()

			if quiesce > time.Duration(workers)*10*time.Millisecond+500*time.Millisecond {
				t.Fatalf("pool took %s to quiesce after cancel", quiesce)
			}
			completed := 0
			for i := range partial {
				if !partial[i].ok {
					continue
				}
				if !reflect.DeepEqual(partial[i], full[i]) {
					t.Fatalf("workers=%d: replicate %d diverged from uncancelled run", workers, i)
				}
				completed++
			}
			if completed == 0 {
				t.Fatalf("workers=%d: cancelled run completed no replicates", workers)
			}
			if completed == cfg.Replicates {
				t.Logf("workers=%d: run finished before cancel; prefix check vacuous", workers)
			}
		})
	}
}

// TestRunContextCancelSurfaces asserts the public entry point returns
// ctx.Err() promptly when cancelled mid-run.
func TestRunContextCancelSurfaces(t *testing.T) {
	leakcheck.Check(t)
	inj := faultinject.New(1).Set(SiteReplicate, faultinject.Rule{
		Mode: faultinject.ModeDelay, Every: 1, Delay: 2 * time.Millisecond,
	})
	faultinject.Enable(inj)
	defer faultinject.Disable()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := runFresh(ctx, testConfig(4))
		done <- err
	}()
	waitHits(t, inj, SiteReplicate, 4)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
