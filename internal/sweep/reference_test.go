package sweep

import (
	"context"
	"errors"

	"accelwall/internal/aladdin"
	"accelwall/internal/dfg"
)

// runner is the test-only sequential reference evaluator: the workload
// compiled once and a plain Simulate loop over the normalized keys, with
// none of the Engine's pool, lock, fault seam or checkpoint machinery.
// The equivalence tests hold every Engine path to it.
type runner struct {
	c     *aladdin.Compiled
	maxP  int
	cache map[aladdin.Design]aladdin.Result
}

func newRunner(g *dfg.Graph) (*runner, error) {
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
	return &runner{c: c, maxP: maxP, cache: make(map[aladdin.Design]aladdin.Result)}, nil
}

func (r *runner) keyOf(d aladdin.Design) aladdin.Design { return normalizeKey(r.maxP, d) }

func (r *runner) simulate(d aladdin.Design) (aladdin.Result, error) {
	key := r.keyOf(d)
	res, ok := r.cache[key]
	if !ok {
		var err error
		if res, err = r.c.Simulate(key); err != nil {
			return aladdin.Result{}, err
		}
		r.cache[key] = res
	}
	res.Design = d
	return res, nil
}

// uniqueDesigns reduces the grid to its distinct keys in enumeration order.
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

// simulateAll simulates keys in order, one at a time.
func (r *runner) simulateAll(keys []aladdin.Design) ([]aladdin.Result, error) {
	out := make([]aladdin.Result, len(keys))
	for i, k := range keys {
		res, err := r.simulate(k)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// refRun is the sequential reference sweep: every grid point in enumeration
// order, simulated one at a time.
func refRun(g *dfg.Graph, p Params) ([]Point, error) {
	r, err := newRunner(g)
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var out []Point
	for _, d := range p.enumerate() {
		res, err := r.simulate(d)
		if err != nil {
			return nil, err
		}
		out = append(out, Point{Design: d, Result: res})
	}
	return out, nil
}

// refAttribute is the sequential reference decomposition: the engine's
// cumulative-knob scan over the reference evaluator.
func refAttribute(app string, g *dfg.Graph, p Params, o Objective) (Attribution, error) {
	r, err := newRunner(g)
	if err != nil {
		return Attribution{}, err
	}
	if err := p.Validate(); err != nil {
		return Attribution{}, err
	}
	return attribute(context.Background(), app, r.simulate, p, o)
}

// runParallel is a one-shot grid run on a fresh Engine.
func runParallel(g *dfg.Graph, p Params, workers int) ([]Point, error) {
	return runParallelContext(context.Background(), g, p, workers)
}

// runParallelContext is runParallel under a context.
func runParallelContext(ctx context.Context, g *dfg.Graph, p Params, workers int) ([]Point, error) {
	e, err := NewEngine(g)
	if err != nil {
		return nil, err
	}
	return e.RunContext(ctx, p, workers)
}

// attributeParallel is a one-shot decomposition on a fresh Engine.
func attributeParallel(app string, g *dfg.Graph, p Params, o Objective, workers int) (Attribution, error) {
	e, err := NewEngine(g)
	if err != nil {
		return Attribution{}, err
	}
	return e.Attribute(context.Background(), app, p, o, workers)
}

// fig13Checkpointed is a one-shot Figure 13 cloud on a fresh Engine.
func fig13Checkpointed(ctx context.Context, g *dfg.Graph, p Params, workers int, ck *Checkpoint) ([]Fig13Row, Point, int, error) {
	e, err := NewEngine(g)
	if err != nil {
		return nil, Point{}, 0, err
	}
	return e.Fig13(ctx, p, workers, ck)
}

// fig13 is fig13Checkpointed without snapshots.
func fig13(g *dfg.Graph, p Params, workers int) ([]Fig13Row, Point, error) {
	rows, best, _, err := fig13Checkpointed(context.Background(), g, p, workers, nil)
	return rows, best, err
}

// warm runs the grid on e and reports how many simulations it ran. Every
// Simulate call either walks a schedule or reuses one, so the two
// counters' growth is the simulation count, memoized points included.
func warm(ctx context.Context, e *Engine, p Params, workers int) (int, error) {
	walks, hits := e.ScheduleCacheStats()
	_, err := e.RunContext(ctx, p, workers)
	w, h := e.ScheduleCacheStats()
	return int(w - walks + h - hits), err
}
