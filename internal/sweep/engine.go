package sweep

import (
	"context"
	"errors"
	"math"
	"sync"

	"accelwall/internal/aladdin"
	"accelwall/internal/dfg"
)

// Engine is the one design-point evaluator: a concurrency-safe memo over
// one compiled workload graph. The graph is compiled exactly once, every
// simulation is memoized under the normalized cache key (partition
// plateau clamped, zero-value defaults spelled out), and any number of
// goroutines may call its methods concurrently — the memo table is
// guarded by a read-write lock while the underlying *aladdin.Compiled is
// immutable and shared by all workers.
//
// Each operation is one ctx-taking method: EvaluateContext for a single
// point, EvaluateBatchContext for a population, RunCheckpointed (and
// RunContext) for a grid, Attribute for the Figure 14 decomposition and
// Fig13 for the Figure 13 cloud. The memo persists across calls, so
// repeated sweeps over overlapping grids (the serving workload) only
// simulate the points they have never seen; a one-shot sweep simply
// builds an engine and drops it.
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

// EvaluateContext simulates one design point, serving it from the memo
// table when its normalized key has been simulated before. The returned
// result carries the caller's design spelling (not the normalized key).
// Memoized points are served regardless of ctx (they cost nothing); a
// cache miss checks ctx before committing to the simulation.
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

// EvaluateBatchContext simulates every design of the population whose
// normalized key is not yet memoized — deduplicated within the batch and
// against the memo table — as one cancellable, fault-isolated pool pass
// (the same chunked worker pool grid sweeps use), then assembles results
// in input order with each caller's design spelling. This is the
// population-evaluation seam the design-space search drives: one call per
// generation, memo hits costing a map lookup. workers <= 0 selects
// GOMAXPROCS.
//
// On cancellation it returns ctx.Err(); the unique points that completed
// before the pool quiesced are kept in the memo table (bit-identical to an
// uncancelled run's), so an abandoned generation still warms its re-run.
func (e *Engine) EvaluateBatchContext(ctx context.Context, designs []aladdin.Design, workers int) ([]aladdin.Result, error) {
	if _, err := e.warm(ctx, designs, workers, nil); err != nil {
		return nil, err
	}
	out := make([]aladdin.Result, len(designs))
	e.mu.RLock()
	defer e.mu.RUnlock()
	for i, d := range designs {
		res, ok := e.cache[normalizeKey(e.maxP, d)]
		if !ok {
			return nil, errors.New("sweep: batch result missing after simulation")
		}
		res.Design = d
		out[i] = res
	}
	return out, nil
}

// RunContext is RunCheckpointed without snapshots.
func (e *Engine) RunContext(ctx context.Context, p Params, workers int) ([]Point, error) {
	pts, _, err := e.RunCheckpointed(ctx, p, workers, nil)
	return pts, err
}

// RunCheckpointed sweeps the grid and returns every design point in the
// deterministic (node, fusion, simplification, partition) order. The
// grid's unmemoized unique points are simulated on a worker pool first
// (workers <= 0 selects GOMAXPROCS); the assembly is then a pure memo
// walk, so results never depend on pool width or chunk order.
//
// A non-nil ck makes the sweep durable: the completed prefix of the grid's
// unique-design list is persisted through ck.Sink at the configured
// cadence, a cancelled sweep leaves one final snapshot behind, and
// ck.Resume restores a previous sweep's prefix instead of resimulating it.
// The second return is how many unique designs were restored rather than
// simulated (0 for cold runs). A checkpointed sweep snapshots the whole
// unique list, so it belongs on a fresh engine.
//
// A cancelled ctx stops the pool within one chunk and returns ctx.Err();
// the points that completed are kept in the memo table.
func (e *Engine) RunCheckpointed(ctx context.Context, p Params, workers int, ck *Checkpoint) ([]Point, int, error) {
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	designs := p.enumerate()
	resumed, err := e.warm(ctx, designs, workers, ck)
	if err != nil {
		return nil, 0, err
	}
	out := make([]Point, 0, len(designs))
	for _, d := range designs {
		res, err := e.EvaluateContext(ctx, d)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, Point{Design: d, Result: res})
	}
	return out, resumed, nil
}

// Fig13 reproduces the 3D-stencil design-space cloud of Figure 13 for the
// engine's workload: every grid point's runtime and power, plus the
// energy-efficiency optimum marked by Best. ck and the third return are
// RunCheckpointed's.
func (e *Engine) Fig13(ctx context.Context, p Params, workers int, ck *Checkpoint) ([]Fig13Row, Point, int, error) {
	points, resumed, err := e.RunCheckpointed(ctx, p, workers, ck)
	if err != nil {
		return nil, Point{}, 0, err
	}
	rows := make([]Fig13Row, 0, len(points))
	for _, pt := range points {
		rows = append(rows, Fig13Row{
			NodeNM:         pt.Design.NodeNM,
			Partition:      pt.Design.Partition,
			Simplification: pt.Design.Simplification,
			Fusion:         pt.Design.Fusion,
			RuntimeNS:      pt.Result.RuntimeNS,
			PowerW:         pt.Result.Power,
			EnergyEff:      pt.Result.EnergyEfficiency(),
		})
	}
	best, err := Best(points, Efficiency)
	if err != nil {
		return nil, Point{}, 0, err
	}
	return rows, best, resumed, nil
}

// Attribute runs the cumulative-knob decomposition of Figure 14 for the
// engine's workload. The grid's unique points are simulated on the worker
// pool first, so every stage of the scan reads the memo table; running
// both objectives on one engine simulates the grid once. A cancelled ctx
// stops the pool within one chunk and the scan between simulations.
func (e *Engine) Attribute(ctx context.Context, app string, p Params, o Objective, workers int) (Attribution, error) {
	if err := p.Validate(); err != nil {
		return Attribution{}, err
	}
	if _, err := e.warm(ctx, p.enumerate(), workers, nil); err != nil {
		return Attribution{}, err
	}
	return attribute(ctx, app, func(d aladdin.Design) (aladdin.Result, error) {
		return e.EvaluateContext(ctx, d)
	}, p, o)
}

// attribute is the cumulative-knob scan: the stages, in order, optimize
// (1) partitioning at the oldest node, (2) + heterogeneity, (3) +
// simplification, (4) + CMOS advancement over the full node list. Each
// stage searches a superset of the previous stage's space, so factors are
// >= 1 up to simulator determinism. The grid must already be validated.
func attribute(ctx context.Context, app string, eval func(aladdin.Design) (aladdin.Result, error), p Params, o Objective) (Attribution, error) {
	oldest := p.Nodes[0]
	for _, n := range p.Nodes[1:] {
		if n > oldest {
			oldest = n
		}
	}
	base, err := eval(aladdin.Design{NodeNM: oldest, Partition: 1, Simplification: 1})
	if err != nil {
		return Attribution{}, err
	}

	bestOver := func(nodes []float64, fusion []bool, simps []int) (aladdin.Result, error) {
		var best aladdin.Result
		bv := math.Inf(-1)
		for _, node := range nodes {
			for _, fu := range fusion {
				for _, s := range simps {
					if err := ctx.Err(); err != nil {
						return aladdin.Result{}, err
					}
					for _, f := range p.Partitions {
						res, err := eval(aladdin.Design{NodeNM: node, Partition: f, Simplification: s, Fusion: fu})
						if err != nil {
							return aladdin.Result{}, err
						}
						if v := o.value(res); v > bv {
							best, bv = res, v
						}
					}
				}
			}
		}
		return best, nil
	}

	d1, err := bestOver([]float64{oldest}, []bool{false}, []int{1})
	if err != nil {
		return Attribution{}, err
	}
	d2, err := bestOver([]float64{oldest}, p.Fusion, []int{1})
	if err != nil {
		return Attribution{}, err
	}
	d3, err := bestOver([]float64{oldest}, p.Fusion, p.Simplifications)
	if err != nil {
		return Attribution{}, err
	}
	d4, err := bestOver(p.Nodes, p.Fusion, p.Simplifications)
	if err != nil {
		return Attribution{}, err
	}

	v0, v1, v2, v3, v4 := o.value(base), o.value(d1), o.value(d2), o.value(d3), o.value(d4)
	a := Attribution{
		App:            app,
		Objective:      o,
		Partitioning:   v1 / v0,
		Heterogeneity:  v2 / v1,
		Simplification: v3 / v2,
		CMOS:           v4 / v3,
		Total:          v4 / v0,
		Baseline:       base,
		Best:           d4,
	}
	a.CSR = a.Heterogeneity * a.Simplification
	logTotal := math.Log(a.Total)
	if logTotal > 0 {
		a.PctPartitioning = 100 * math.Log(a.Partitioning) / logTotal
		a.PctHeterogeneity = 100 * math.Log(a.Heterogeneity) / logTotal
		a.PctSimplification = 100 * math.Log(a.Simplification) / logTotal
		a.PctCMOS = 100 * math.Log(a.CMOS) / logTotal
	}
	return a, nil
}
