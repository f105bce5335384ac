// Package resources holds the chunked worker pool. RunChunks is the one
// pool under the sweep and Monte Carlo engines (and, through the sweep
// engine, the search):
// workers claim fixed chunks of consecutive items, compute each chunk
// into a chunk-local buffer, and commit it once the chunk ends.
package resources

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// chunkSize is how many consecutive items one worker claims per fetch.
// Chunking cuts the queue-coordination overhead from one atomic operation
// per item to one per chunk while staying small enough to balance load
// across uneven items (high-partition design points simulate much faster
// than partition-1 points). It is also the unit of commit.
const chunkSize = 8

// RunChunks computes items [start, n) on a pool of workers (workers <= 0
// selects GOMAXPROCS) and hands each result to commit, in index order
// within a chunk. Each worker owns one scratch value that compute may
// reuse across the items it runs; commit never runs concurrently for the
// same chunk but may for different ones, so it must only touch slot i.
//
// Cancellation is cooperative: ctx is checked before every item, so after
// a cancel the pool quiesces within one item per worker, and a chunk
// commits only the prefix of its items that was computed. Every item is
// computed into a chunk-local buffer that is committed once the chunk
// ends, so checkpoint trackers fed by commit advance a chunk at a time.
// RunChunks returns when every worker has exited.
func RunChunks[S, R any](ctx context.Context, n, start, workers int, compute func(i int, scratch *S) R, commit func(i int, r R)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	remaining := n - start
	if remaining <= 0 {
		return
	}
	workers = min(workers, remaining)
	numChunks := (remaining + chunkSize - 1) / chunkSize

	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch S
			var local [chunkSize]R
			for ctx.Err() == nil {
				chunk := int(next.Add(1)) - 1
				if chunk >= numChunks {
					return
				}
				lo := start + chunk*chunkSize
				hi := min(lo+chunkSize, n)
				k := 0
				for i := lo; i < hi && ctx.Err() == nil; i++ {
					local[k] = compute(i, &scratch)
					k++
				}
				for j := range k {
					commit(lo+j, local[j])
				}
			}
		}()
	}
	wg.Wait()
}
