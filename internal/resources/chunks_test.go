package resources

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"accelwall/internal/faultinject"
	"accelwall/internal/leakcheck"
)

// TestRunChunksCommitsEachIndexOnce: every index in [start, n) is computed
// and committed exactly once with its own result, and nothing below start
// is touched, for chunk-aligned and unaligned bounds at every pool width.
func TestRunChunksCommitsEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 100} {
		for _, start := range []int{0, 5, n} {
			if start > n {
				continue
			}
			for _, workers := range []int{0, 1, 2, 8} {
				t.Run(fmt.Sprintf("n%d/start%d/w%d", n, start, workers), func(t *testing.T) {
					commits := make([]atomic.Int32, n)
					var bad atomic.Int32
					RunChunks(context.Background(), n, start, workers,
						func(i int, _ *struct{}) int { return i * i },
						func(i, r int) {
							if r != i*i {
								bad.Add(1)
							}
							commits[i].Add(1)
						})
					if bad.Load() != 0 {
						t.Fatalf("%d commits carried another index's result", bad.Load())
					}
					for i := range commits {
						want := int32(0)
						if i >= start {
							want = 1
						}
						if got := commits[i].Load(); got != want {
							t.Fatalf("index %d committed %d times, want %d", i, got, want)
						}
					}
				})
			}
		}
	}
}

// TestRunChunksCancelCommitsComputedPrefixes: after a mid-run cancel,
// only computed items are committed, and within each chunk the committed
// items form a prefix of the chunk.
func TestRunChunksCancelCommitsComputedPrefixes(t *testing.T) {
	const n = 200
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			computed := make([]atomic.Bool, n)
			committed := make([]atomic.Bool, n)
			var calls atomic.Int32
			RunChunks(ctx, n, 0, workers,
				func(i int, _ *struct{}) int {
					computed[i].Store(true)
					if calls.Add(1) == 37 {
						cancel()
					}
					return i
				},
				func(i, _ int) { committed[i].Store(true) })
			total := 0
			for c := 0; c*chunkSize < n; c++ {
				gap := false
				for i := c * chunkSize; i < min((c+1)*chunkSize, n); i++ {
					if !committed[i].Load() {
						gap = true
						continue
					}
					total++
					if !computed[i].Load() {
						t.Fatalf("index %d committed without being computed", i)
					}
					if gap {
						t.Fatalf("chunk %d commits index %d after a gap: not a prefix", c, i)
					}
				}
			}
			if total == 0 || total == n {
				t.Fatalf("%d of %d committed; the cancel should land mid-run", total, n)
			}
		})
	}
}

// TestRunChunksWaitsOutStalledItem: one item stalled by an injected
// delay holds the run until it is computed; nothing rescues or re-runs it,
// so every index is still committed exactly once and no worker outlives
// the run.
func TestRunChunksWaitsOutStalledItem(t *testing.T) {
	const n, stalled, delay = 40, 19, 100 * time.Millisecond
	leakcheck.Check(t)
	const site = "resources.test.stall"
	inj := faultinject.New(1).Set(site, faultinject.Rule{Mode: faultinject.ModeDelay, Every: 1, Delay: delay})
	faultinject.Enable(inj)
	t.Cleanup(faultinject.Disable)

	commits := make([]atomic.Int32, n)
	t0 := time.Now()
	RunChunks(context.Background(), n, 0, 2,
		func(i int, _ *struct{}) int {
			if i == stalled {
				if err := faultinject.Hit(site); err != nil {
					t.Error(err)
				}
			}
			return i
		},
		func(i, r int) {
			if r != i {
				t.Errorf("index %d committed result %d", i, r)
			}
			commits[i].Add(1)
		})
	if elapsed := time.Since(t0); elapsed < delay {
		t.Fatalf("RunChunks returned after %s, before the %s stall ended", elapsed, delay)
	}
	if got := inj.Fired(site); got != 1 {
		t.Fatalf("stall fired %d times, want 1", got)
	}
	for i := range commits {
		if got := commits[i].Load(); got != 1 {
			t.Fatalf("index %d committed %d times, want 1", i, got)
		}
	}
}
