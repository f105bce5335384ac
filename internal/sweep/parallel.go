package sweep

import (
	"context"
	"errors"
	"fmt"

	"accelwall/internal/aladdin"
	"accelwall/internal/checkpoint"
	"accelwall/internal/dfg"
	"accelwall/internal/faultinject"
	"accelwall/internal/resources"
)

// SiteSimulate is the fault-injection seam hit before every design-point
// simulation on the pool. Chaos tests arm it to prove the pool survives
// panicking, erroring, and stalling workers.
var SiteSimulate = faultinject.Register("sweep.simulate")

// simulateOne runs one design through the compiled simulator, converting
// a panic anywhere below (including an injected one) into an error so a
// single poisoned design point cannot take down the whole pool — the
// worker goroutine survives and moves on to its next chunk.
func simulateOne(c *aladdin.Compiled, d aladdin.Design) (res aladdin.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("sweep: simulation panic on %+v: %v", d, v)
		}
	}()
	if err := faultinject.Hit(SiteSimulate); err != nil {
		return aladdin.Result{}, fmt.Errorf("sweep: %w", err)
	}
	return c.Simulate(d)
}

// simulateDesigns fans the design list out over a worker pool and returns
// one result per design, in input order. All workers share the one
// *aladdin.Compiled, which is immutable and concurrency-safe. workers <= 0
// selects GOMAXPROCS.
//
// Cancellation is cooperative: each worker re-checks ctx between chunks
// (and between the designs of its current chunk), so after a cancel the
// pool quiesces within at most one design simulation per worker and
// simulateDesigns returns ctx.Err(). The results slice is still returned
// on cancellation — completed slots are valid and bit-identical to an
// uncancelled run's, which Engine.Warm exploits to keep partial work.
//
// With a live context, the first simulation error wins; remaining chunks
// still drain (errors do not cancel the pool) but the error is reported.
func simulateDesigns(ctx context.Context, c *aladdin.Compiled, designs []aladdin.Design, workers int) ([]aladdin.Result, []bool, error) {
	results := make([]aladdin.Result, len(designs))
	done := make([]bool, len(designs))
	errs := make([]error, len(designs))
	simulatePool(ctx, c, designs, results, errs, done, 0, workers, nil)
	if err := ctx.Err(); err != nil {
		return results, done, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return results, done, nil
}

// simulatePool is the shared worker pool under simulateDesigns and the
// checkpointed runs: it fills results/errs/done for designs[start:] on
// resources.RunChunks (slots below start must already hold restored
// results), and reports each successful slot to the (possibly nil)
// checkpoint tracker so resumable runs can persist their completed
// prefix as it grows. Only successful slots checkpoint: an errored
// design must be retried by the resumed run, so it pins the durable
// prefix behind it.
func simulatePool(ctx context.Context, c *aladdin.Compiled, designs []aladdin.Design,
	results []aladdin.Result, errs []error, done []bool, start, workers int, tr *checkpoint.Tracker) {
	type outcome struct {
		res aladdin.Result
		err error
	}
	resources.RunChunks(ctx, len(designs), start, workers,
		func(i int, _ *struct{}) outcome {
			res, err := simulateOne(c, designs[i])
			return outcome{res, err}
		},
		func(i int, o outcome) {
			results[i], errs[i], done[i] = o.res, o.err, o.err == nil
			if done[i] {
				tr.Complete(i)
			}
		})
}

// uniqueDesigns reduces the grid to its distinct cache keys in the
// deterministic enumeration order — the unit of work of every parallel
// sweep, and the identity a checkpoint snapshot is fingerprinted over.
func (r *runner) uniqueDesigns(p Params) []aladdin.Design {
	seen := make(map[aladdin.Design]bool)
	var uniques []aladdin.Design
	for _, d := range p.enumerate() {
		if k := r.keyOf(d); !seen[k] {
			seen[k] = true
			uniques = append(uniques, k)
		}
	}
	return uniques
}

// simulateGrid populates the runner's cache with every distinct cache key
// of the grid, distributing the unique simulations over a worker pool; only
// cache assembly happens on the calling goroutine.
func (r *runner) simulateGrid(ctx context.Context, p Params, workers int) error {
	uniques := r.uniqueDesigns(p)
	results, _, err := simulateDesigns(ctx, r.c, uniques, workers)
	if err != nil {
		return err
	}
	for i, k := range uniques {
		r.cache[k] = results[i]
	}
	return nil
}

// RunParallel simulates the grid like Run but distributes the distinct
// design points over a worker pool. Results are identical to Run — same
// points, same order — because the grid is deduplicated onto cache keys
// first, only unique simulations run concurrently, and assembly replays
// the deterministic Run order. workers <= 0 selects GOMAXPROCS.
//
// The full Table III grid is 3,640 design points per workload (many of
// which collapse onto the partition plateau); the workload graph is
// compiled once and shared read-only by every worker, so the pool scales
// without duplicating graph analysis.
func RunParallel(g *dfg.Graph, p Params, workers int) ([]Point, error) {
	return RunParallelContext(context.Background(), g, p, workers)
}

// RunParallelContext is RunParallel under a context: a cancelled ctx
// stops the worker pool within one chunk, leaks no goroutines, and
// surfaces ctx.Err().
func RunParallelContext(ctx context.Context, g *dfg.Graph, p Params, workers int) ([]Point, error) {
	if g == nil {
		return nil, errors.New("sweep: nil graph")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	r, err := newRunner(g)
	if err != nil {
		return nil, err
	}
	if err := r.simulateGrid(ctx, p, workers); err != nil {
		return nil, err
	}
	return r.points(ctx, p)
}
