// Slice-range entry points: the hooks a coordinator uses to distribute a
// grid across processes. A grid's deduplicated normalized design list is
// a pure function of (grid, compiled workload), so every peer derives the
// same list in the same order, evaluates a contiguous index range of it,
// and ships the results back; the coordinator primes its own memo table
// with them and assembles the sweep through the ordinary RunContext path,
// bit-identical to a single-process run.
package sweep

import (
	"context"
	"fmt"
	"slices"

	"accelwall/internal/aladdin"
)

// UniqueDesigns returns the grid's deduplicated design list — normalized
// memo keys in enumeration order. This is the canonical slicing basis for
// distributing a grid: index ranges of this list are the unit peers
// evaluate independently, and the order is identical on every process
// compiling the same workload.
func (e *Engine) UniqueDesigns(p Params) ([]aladdin.Design, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return e.plan(p.enumerate()).keys, nil
}

// MissingFrom filters designs down to those whose normalized keys are not
// yet memoized, deduplicated, preserving first-seen order. Coordinators
// use it to scatter only the work their own memo table cannot serve.
func (e *Engine) MissingFrom(designs []aladdin.Design) []aladdin.Design {
	keys := e.plan(designs).keys
	e.mu.RLock()
	defer e.mu.RUnlock()
	return slices.DeleteFunc(keys, func(k aladdin.Design) bool {
		_, ok := e.cache[k]
		return ok
	})
}

// Prime inserts externally computed results into the memo table under
// their designs' normalized keys, without simulating anything, and never
// resets the memo: the run that assembles the scatter copies them out
// before it holds the bound (see MaxMemoPoints). Existing entries win: the simulator is deterministic, so a remote result for an
// already-memoized key is bit-identical and dropping it is safe. The
// caller vouches that results[i] is the simulation of designs[i] on this
// same workload — Prime is the trust boundary of distributed sweeps, and
// the equivalence tests are what hold it honest.
func (e *Engine) Prime(designs []aladdin.Design, results []aladdin.Result) error {
	if len(designs) != len(results) {
		return fmt.Errorf("sweep: prime got %d designs but %d results", len(designs), len(results))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, d := range designs {
		k := normalizeKey(e.maxP, d)
		if _, ok := e.cache[k]; ok {
			continue
		}
		r := results[i]
		r.Design = k
		e.cache[k] = r
	}
	return nil
}

// EvaluateRange evaluates the half-open index range [lo, hi) of the
// grid's unique-design list on the worker pool and returns the results in
// list order — the peer side of a distributed sweep.
func (e *Engine) EvaluateRange(ctx context.Context, p Params, lo, hi, workers int) ([]aladdin.Result, error) {
	uniques, err := e.UniqueDesigns(p)
	if err != nil {
		return nil, err
	}
	if lo < 0 || hi > len(uniques) || lo >= hi {
		return nil, fmt.Errorf("sweep: range [%d, %d) outside [0, %d)", lo, hi, len(uniques))
	}
	return e.EvaluateBatchContext(ctx, uniques[lo:hi], workers)
}
