package resources

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// TestRunChunksWatchdogRescueCommitsOnce: with the watchdog armed and one
// item wedged, the wedged chunk is rescued exactly once on a fresh scratch
// and every index is still committed exactly once — also after the wedged
// original wakes up and loses the claim. The rescue releases the original
// while it is still committing, so every worker exits before the rescue
// finishes: RunChunks must still wait for the rescue's commits.
func TestRunChunksWatchdogRescueCommitsOnce(t *testing.T) {
	const n, wedged = 40, 19
	commits := make([]atomic.Int32, n)
	// Cleanups run last-registered first: leakcheck waits for the woken
	// original worker to exit before the final commit counts are checked.
	t.Cleanup(func() {
		for i := range commits {
			if got := commits[i].Load(); got != 1 {
				t.Errorf("index %d committed %d times, want 1", i, got)
			}
		}
	})
	leakcheck.Check(t)
	armWatchdog(t, 20*time.Millisecond)

	type item struct{ rescued, fresh bool }
	release := make(chan struct{})
	var original atomic.Pointer[int] // the wedged worker's scratch
	var releaseOnce sync.Once
	RunChunks(context.Background(), n, 0, 2,
		func(i int, seen *int) item {
			*seen++
			if i/chunkSize != wedged/chunkSize {
				return item{}
			}
			// Once the original wedges, only the rescue computes this
			// chunk; a fresh scratch has seen exactly this chunk's items.
			if w := original.Load(); w != nil && w != seen {
				return item{rescued: true, fresh: *seen == i%chunkSize+1}
			}
			if i == wedged {
				original.Store(seen)
				select {
				case <-release:
				case <-time.After(10 * time.Second):
				}
			}
			return item{}
		},
		func(i int, r item) {
			if r.rescued {
				if !r.fresh {
					t.Errorf("rescue computed index %d on a reused scratch", i)
				}
				releaseOnce.Do(func() {
					close(release)
					// Let the original lose the claim and every worker
					// exit while this commit is still in flight.
					time.Sleep(50 * time.Millisecond)
				})
			}
			commits[i].Add(1)
		})
	select {
	case <-release:
	default:
		t.Fatal("the wedged chunk was not committed by the rescue")
	}
	for i := range commits {
		if commits[i].Load() != 1 {
			t.Fatalf("RunChunks returned before index %d was committed", i)
		}
	}
	if got := WatchdogRequeues(); got != 1 {
		t.Fatalf("requeues = %d, want exactly 1", got)
	}
}
