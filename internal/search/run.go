package search

import (
	"context"
	"errors"
	"fmt"
	"math"

	"accelwall/internal/aladdin"
	"accelwall/internal/mix"
	"accelwall/internal/sweep"
)

// rng is a SplitMix64 stream.
type rng struct{ s uint64 }

// newRNG opens the (generation, slot) SplitMix64 substream of the root
// seed. Every random draw in a search comes from a stream derived purely
// from (seed, generation, slot), so no RNG state exists to checkpoint and
// results cannot depend on worker count or resume points.
func newRNG(seed int64, generation, slot int) *rng {
	return &rng{s: mix.Substream(uint64(seed), uint64(generation)<<32|uint64(uint32(slot)))}
}

func (r *rng) next() uint64 {
	r.s += mix.Gamma
	return mix.Mix64(r.s)
}

// intn returns a draw from [0, n). The modulo bias over axis-sized ranges
// (tens of values against 2^64) is immaterial here.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// entry is one archived evaluation: the first-seen design spelling, its
// genotype, the simulation result, and derived selection metadata.
type entry struct {
	design    aladdin.Design
	geno      genotype
	result    aladdin.Result
	values    []float64 // objective values, config order
	violation float64   // 0 = feasible
}

// state is the sequential coordinator: the archive of every evaluated
// point in first-seen order (the unit of checkpointing and the set the
// final frontier is computed over) plus the dedup index keyed by the
// evaluator's normalized designs.
type state struct {
	cfg     Config
	eval    Evaluator
	keys    map[aladdin.Design]int // normalized design -> archive index
	entries []entry

	// axisIndex inverts space values back to genotype indices (first
	// occurrence wins for duplicated axis values).
	axisIndex [numAxes]map[uint64]int
}

func newState(cfg Config, eval Evaluator) *state {
	st := &state{cfg: cfg, eval: eval, keys: make(map[aladdin.Design]int)}
	for a, vals := range cfg.Space.axisWords() {
		st.axisIndex[a] = make(map[uint64]int, len(vals))
		for i, v := range vals {
			if _, ok := st.axisIndex[a][v]; !ok {
				st.axisIndex[a][v] = i
			}
		}
	}
	return st
}

// axisWords returns each axis's values in genotype order, in the word form
// of sweep.DesignWords: genotypeOf and the snapshot digest key on it.
func (s Space) axisWords() [numAxes][]uint64 {
	return [numAxes][]uint64{
		floatKeys(s.Nodes), intKeys(s.Partitions), intKeys(s.Simplifications),
		boolKeys(s.Fusion), floatKeys(s.Clocks), intKeys(s.MemoryBanks),
	}
}

func floatKeys(vs []float64) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = math.Float64bits(v)
	}
	return out
}

func intKeys(vs []int) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = uint64(v)
	}
	return out
}

func boolKeys(vs []bool) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		if v {
			out[i] = 1
		}
	}
	return out
}

// genotypeOf inverts a design produced by Space.design.
func (st *state) genotypeOf(d aladdin.Design) (genotype, error) {
	raw := sweep.DesignWords(d)
	var g genotype
	for a := 0; a < numAxes; a++ {
		i, ok := st.axisIndex[a][raw[a]]
		if !ok {
			return genotype{}, fmt.Errorf("search: design %+v outside the space (axis %d)", d, a)
		}
		g[a] = i
	}
	return g, nil
}

// addEntry archives one evaluated design under its normalized key.
func (st *state) addEntry(d aladdin.Design, r aladdin.Result) error {
	g, err := st.genotypeOf(d)
	if err != nil {
		return err
	}
	vals := make([]float64, len(st.cfg.Objectives))
	for j, o := range st.cfg.Objectives {
		vals[j] = o.Value(r)
	}
	st.keys[st.eval.Normalize(d)] = len(st.entries)
	st.entries = append(st.entries, entry{
		design: d, geno: g, result: r, values: vals,
		violation: st.cfg.Constraints.violation(r),
	})
	return nil
}

// evalBatch evaluates one population in a single batched evaluator call
// and returns each genotype's archive index, in input order. Genotypes
// whose normalized key is already archived (or repeated within the batch)
// cost a map lookup; the rest are simulated together and archived in
// first-appearance order. On error nothing is archived, so a cancelled
// generation leaves the state at the previous generation boundary.
func (st *state) evalBatch(ctx context.Context, gens []genotype) ([]int, error) {
	ids := make([]int, len(gens))
	var pending []aladdin.Design
	pendingIdx := make(map[aladdin.Design]int)
	for i, g := range gens {
		d := st.cfg.Space.design(g)
		k := st.eval.Normalize(d)
		if id, ok := st.keys[k]; ok {
			ids[i] = id
			continue
		}
		if id, ok := pendingIdx[k]; ok {
			ids[i] = id
			continue
		}
		pendingIdx[k] = len(st.entries) + len(pending)
		ids[i] = pendingIdx[k]
		pending = append(pending, d)
	}
	if len(pending) > 0 {
		results, err := st.eval.EvaluateBatchContext(ctx, pending, st.cfg.Workers)
		if err != nil {
			return nil, err
		}
		for i, d := range pending {
			if err := st.addEntry(d, results[i]); err != nil {
				return nil, err
			}
		}
	}
	return ids, nil
}

// uniqueIDs deduplicates archive indices preserving first appearance.
func uniqueIDs(ids []int) []int {
	seen := make(map[int]bool, len(ids))
	out := ids[:0:0]
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// frontier computes the Pareto-optimal set of every feasible archived
// point, sorted deterministically, with exact objective-value ties
// collapsed onto the design-order-smallest representative.
func (st *state) frontier() []Point {
	var feasible []int
	for i := range st.entries {
		if st.entries[i].violation == 0 {
			feasible = append(feasible, i)
		}
	}
	var pts []Point
	for _, i := range feasible {
		dominated := false
		for _, j := range feasible {
			if j != i && dominates(st.cfg.Objectives, st.entries[j].values, st.entries[i].values) {
				dominated = true
				break
			}
		}
		if !dominated {
			e := &st.entries[i]
			vals := make([]float64, len(e.values))
			copy(vals, e.values)
			pts = append(pts, Point{Design: e.design, Result: e.result, Values: vals})
		}
	}
	sortFrontier(st.cfg.Objectives, pts)
	out := pts[:0]
	for i, p := range pts {
		if i > 0 && sameValues(pts[i-1].Values, p.Values) {
			continue
		}
		out = append(out, p)
	}
	return out
}

func sameValues(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RunContext executes the search to completion. Deterministic: the result
// is a pure function of the normalized config (and the evaluator's
// workload). A cancelled ctx stops the evaluation pool within one chunk
// and returns ctx.Err().
func RunContext(ctx context.Context, eval Evaluator, cfg Config) (*Result, error) {
	return RunCheckpointed(ctx, eval, cfg, nil)
}

// RunCheckpointed is RunContext with optional per-generation snapshots: a
// search of G generations runs G+1 steps (the coarse-lattice seeding plus
// G evolution generations or refinement rungs), snapshotting the archive
// and the live candidate set every ck.Every completed steps and — like the
// sweep and Monte Carlo engines — writing a parting snapshot on
// cancellation so an interrupted search resumes at its last completed
// generation, bit-identical to an uninterrupted run.
func RunCheckpointed(ctx context.Context, eval Evaluator, cfg Config, ck *Checkpoint) (*Result, error) {
	if eval == nil {
		return nil, errors.New("search: nil evaluator")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.Normalized()
	st := newState(cfg, eval)
	totalSteps := cfg.Generations + 1

	startStep := 0
	var current []int // live candidate set: population (NSGA2) or rung (Halving)
	resumed := 0
	sv := newSaver(st, ck, totalSteps)
	if ck != nil && ck.Resume != nil {
		var err error
		startStep, current, err = sv.restore(ck.Resume)
		if err != nil {
			return nil, err
		}
		resumed = len(st.entries)
	}

	for step := startStep; step < totalSteps; step++ {
		var next []int
		var err error
		switch cfg.Strategy {
		case Halving:
			next, err = st.halvingStep(ctx, step, current)
		default:
			next, err = st.nsga2Step(ctx, step, current)
		}
		if err != nil {
			if ctx.Err() != nil {
				// The parting snapshot: the archive and candidate set of
				// the last completed step are what a restarted process
				// resumes from.
				sv.parting(step, current)
			}
			return nil, err
		}
		current = next
		sv.step(step+1, current)
	}

	return &Result{
		Strategy:    cfg.Strategy,
		Objectives:  cfg.Objectives,
		Generations: cfg.Generations,
		Evaluations: len(st.entries),
		Resumed:     resumed,
		SpaceSize:   cfg.Space.Size(),
		Frontier:    st.frontier(),
	}, nil
}
