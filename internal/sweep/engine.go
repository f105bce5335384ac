package sweep

import (
	"context"
	"errors"
	"sync"

	"accelwall/internal/aladdin"
	"accelwall/internal/dfg"
)

// Engine is a process-lifetime, concurrency-safe design-point evaluator
// over one compiled workload graph. It is the exported hook long-lived
// services build on: the graph is compiled exactly once, every simulation
// is memoized under the normalized cache key (partition plateau clamped,
// zero-value defaults spelled out), and any number of goroutines may call
// Evaluate, Warm, and Run concurrently — the memo table is guarded by a
// read-write lock while the underlying *aladdin.Compiled is immutable and
// shared by all workers.
//
// Unlike the per-call Run/RunParallel entry points, an Engine keeps its
// cache across calls, so repeated sweeps over overlapping grids (the
// serving workload) only simulate the points they have never seen.
type Engine struct {
	c    *aladdin.Compiled
	maxP int

	mu    sync.RWMutex
	cache map[aladdin.Design]aladdin.Result
}

// NewEngine compiles the graph and returns an empty-cache engine.
func NewEngine(g *dfg.Graph) (*Engine, error) {
	if g == nil {
		return nil, errors.New("sweep: nil graph")
	}
	c, err := aladdin.Compile(g)
	if err != nil {
		return nil, err
	}
	maxP := c.Stats().VCmp
	if maxP < 1 {
		maxP = 1
	}
	return &Engine{c: c, maxP: maxP, cache: make(map[aladdin.Design]aladdin.Result)}, nil
}

// Stats returns the compiled graph's structural statistics.
func (e *Engine) Stats() dfg.Stats { return e.c.Stats() }

// Name returns the compiled workload graph's name.
func (e *Engine) Name() string { return e.c.Name() }

// Normalize maps a design onto the engine's memo key: the partition
// plateau is clamped at the graph's compute width and zero-value knobs
// are spelled out (clock 1 GHz, banks = partition). Two designs with the
// same normalized key are guaranteed bit-identical results, which is what
// deduplicating callers (the design-space search) key their archives on.
func (e *Engine) Normalize(d aladdin.Design) aladdin.Design {
	return normalizeKey(e.maxP, d)
}

// ScheduleCacheStats reports the underlying compiled engine's schedule
// reuse counters: how many full scheduling walks ran and how many design
// evaluations were served from a cached or reused schedule summary.
func (e *Engine) ScheduleCacheStats() (walks, hits uint64) {
	return e.c.ScheduleCacheStats()
}

// CachedPoints reports how many distinct design points are memoized.
func (e *Engine) CachedPoints() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.cache)
}

// Evaluate simulates one design point, serving it from the memo table when
// its normalized key has been simulated before. The returned result carries
// the caller's design spelling (not the normalized key). Safe for
// concurrent use.
func (e *Engine) Evaluate(d aladdin.Design) (aladdin.Result, error) {
	return e.EvaluateContext(context.Background(), d)
}

// EvaluateContext is Evaluate under a context. Memoized points are served
// regardless of ctx (they cost nothing); a cache miss checks ctx before
// committing to the simulation.
func (e *Engine) EvaluateContext(ctx context.Context, d aladdin.Design) (aladdin.Result, error) {
	key := normalizeKey(e.maxP, d)
	e.mu.RLock()
	res, ok := e.cache[key]
	e.mu.RUnlock()
	if !ok {
		if err := ctx.Err(); err != nil {
			return aladdin.Result{}, err
		}
		var err error
		res, err = simulateOne(e.c, key)
		if err != nil {
			return aladdin.Result{}, err
		}
		e.mu.Lock()
		e.cache[key] = res
		e.mu.Unlock()
	}
	res.Design = d
	return res, nil
}

// Warm simulates every design of the grid whose normalized key is not yet
// cached, fanning the missing unique points over a worker pool
// (workers <= 0 selects GOMAXPROCS). It returns how many fresh simulations
// ran — zero means the grid was already fully resident.
func (e *Engine) Warm(p Params, workers int) (int, error) {
	return e.WarmContext(context.Background(), p, workers)
}

// WarmContext is Warm under a context. On cancellation it returns
// ctx.Err(), but the design points that completed before the pool
// quiesced are kept in the memo table — they are bit-identical to an
// uncancelled run's, so abandoned work still warms later requests.
func (e *Engine) WarmContext(ctx context.Context, p Params, workers int) (int, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	seen := make(map[aladdin.Design]bool)
	var missing []aladdin.Design
	e.mu.RLock()
	for _, d := range p.enumerate() {
		k := normalizeKey(e.maxP, d)
		if seen[k] {
			continue
		}
		seen[k] = true
		if _, ok := e.cache[k]; !ok {
			missing = append(missing, k)
		}
	}
	e.mu.RUnlock()
	if len(missing) == 0 {
		return 0, nil
	}
	results, completed, err := simulateDesigns(ctx, e.c, missing, workers)
	if err != nil {
		if ctx.Err() != nil && completed != nil {
			fresh := 0
			e.mu.Lock()
			for i, k := range missing {
				if completed[i] {
					e.cache[k] = results[i]
					fresh++
				}
			}
			e.mu.Unlock()
			return fresh, err
		}
		return 0, err
	}
	e.mu.Lock()
	for i, k := range missing {
		e.cache[k] = results[i]
	}
	e.mu.Unlock()
	return len(missing), nil
}

// EvaluateBatch simulates a population of design points in one pooled
// pass and returns results in input order. See EvaluateBatchContext.
func (e *Engine) EvaluateBatch(designs []aladdin.Design, workers int) ([]aladdin.Result, error) {
	return e.EvaluateBatchContext(context.Background(), designs, workers)
}

// EvaluateBatchContext simulates every design of the population whose
// normalized key is not yet memoized — deduplicated within the batch and
// against the memo table — as one cancellable, fault-isolated pool pass
// (the same chunked worker pool grid sweeps use), then assembles results
// in input order with each caller's design spelling. This is the population-evaluation seam the design-space
// search drives: one call per generation, memo hits costing a map lookup.
//
// On cancellation it returns ctx.Err(); the unique points that completed
// before the pool quiesced are kept in the memo table (bit-identical to an
// uncancelled run's), so an abandoned generation still warms its re-run.
func (e *Engine) EvaluateBatchContext(ctx context.Context, designs []aladdin.Design, workers int) ([]aladdin.Result, error) {
	seen := make(map[aladdin.Design]bool, len(designs))
	var missing []aladdin.Design
	e.mu.RLock()
	for _, d := range designs {
		k := normalizeKey(e.maxP, d)
		if seen[k] {
			continue
		}
		seen[k] = true
		if _, ok := e.cache[k]; !ok {
			missing = append(missing, k)
		}
	}
	e.mu.RUnlock()
	if len(missing) > 0 {
		results, completed, err := simulateDesigns(ctx, e.c, missing, workers)
		if completed != nil {
			e.mu.Lock()
			for i, k := range missing {
				if completed[i] {
					e.cache[k] = results[i]
				}
			}
			e.mu.Unlock()
		}
		if err != nil {
			return nil, err
		}
	}
	out := make([]aladdin.Result, len(designs))
	e.mu.RLock()
	for i, d := range designs {
		res, ok := e.cache[normalizeKey(e.maxP, d)]
		if !ok {
			e.mu.RUnlock()
			return nil, errors.New("sweep: batch result missing after simulation")
		}
		res.Design = d
		out[i] = res
	}
	e.mu.RUnlock()
	return out, nil
}

// Run sweeps the grid and returns every design point in the deterministic
// (node, fusion, simplification, partition) Run order — point-for-point
// identical to Run and RunParallel — warming the cache first so the unique
// simulations execute on the pool.
func (e *Engine) Run(p Params, workers int) ([]Point, error) {
	return e.RunContext(context.Background(), p, workers)
}

// RunContext is Run under a context: a cancelled ctx stops the warming
// pool within one chunk (keeping completed points in the memo table) and
// aborts assembly, returning ctx.Err().
func (e *Engine) RunContext(ctx context.Context, p Params, workers int) ([]Point, error) {
	if _, err := e.WarmContext(ctx, p, workers); err != nil {
		return nil, err
	}
	designs := p.enumerate()
	out := make([]Point, 0, len(designs))
	for _, d := range designs {
		res, err := e.EvaluateContext(ctx, d)
		if err != nil {
			return nil, err
		}
		out = append(out, Point{Design: d, Result: res})
	}
	return out, nil
}
