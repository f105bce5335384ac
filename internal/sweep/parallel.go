package sweep

import (
	"context"
	"fmt"

	"accelwall/internal/aladdin"
	"accelwall/internal/checkpoint"
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

// plan is one run's view of its designs: their normalized keys,
// deduplicated in first-seen order, each key's slot, each design's slot,
// and one result per slot. A run assembles its output from its plan, never
// from the memo, so a concurrent memo reset cannot touch it.
type plan struct {
	keys    []aladdin.Design
	slot    map[aladdin.Design]int
	idx     []int32 // designs[i]'s slot
	results []aladdin.Result
}

// plan normalizes and deduplicates designs, leaving results to warm. It
// is the one scan every grid, batch and slice goes through.
func (e *Engine) plan(designs []aladdin.Design) *plan {
	pl := &plan{slot: make(map[aladdin.Design]int, len(designs)), idx: make([]int32, len(designs))}
	for i, d := range designs {
		k := normalizeKey(e.maxP, d)
		s, ok := pl.slot[k]
		if !ok {
			s = len(pl.keys)
			pl.slot[k] = s
			pl.keys = append(pl.keys, k)
		}
		pl.idx[i] = int32(s)
	}
	return pl
}

// result is designs[i]'s result in the caller's spelling d.
func (pl *plan) result(i int, d aladdin.Design) aladdin.Result {
	res := pl.results[pl.idx[i]]
	res.Design = d
	return res
}

// lookup starts a run: it copies the memoized results of pl's keys into
// pl and returns the slots it could not serve, then holds the memo bound
// for the points the run is about to add.
func (e *Engine) lookup(pl *plan) []int {
	var miss []int
	e.mu.RLock()
	for i, k := range pl.keys {
		if res, ok := e.cache[k]; ok {
			pl.results[i] = res
		} else {
			miss = append(miss, i)
		}
	}
	over := len(e.cache)+len(miss) > MaxMemoPoints
	e.mu.RUnlock()
	if over {
		e.mu.Lock()
		e.boundLocked(len(miss))
		e.mu.Unlock()
	}
	return miss
}

// boundLocked resets the memo when adding n points would take it past
// MaxMemoPoints. Callers hold e.mu for writing.
func (e *Engine) boundLocked(n int) {
	if len(e.cache) > 0 && len(e.cache)+n > MaxMemoPoints {
		e.cache = make(map[aladdin.Design]aladdin.Result)
		e.resets++
	}
}

// memoize stores every completed slot of keys.
func (e *Engine) memoize(keys []aladdin.Design, results []aladdin.Result, done []bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, k := range keys {
		if done[i] {
			e.cache[k] = results[i]
		}
	}
}

// warm plans designs and fills every slot of the plan, from the memo or
// on the worker pool, reporting how many unique designs were restored
// from ck.Resume. Without ck only the unmemoized keys are simulated. With
// ck the whole unique-design list is the unit of durable work — the
// identity a snapshot is fingerprinted over — so its completed prefix is
// snapshotted as it grows. Every slot that completed is memoized, also
// when ctx is cancelled or another slot failed, since a completed slot is
// bit-identical to an uncancelled run's.
func (e *Engine) warm(ctx context.Context, designs []aladdin.Design, workers int, ck *Checkpoint) (*plan, int, error) {
	pl := e.plan(designs)
	pl.results = make([]aladdin.Result, len(pl.keys))
	if ck == nil {
		miss := e.lookup(pl)
		if len(miss) == len(pl.keys) {
			done, err := e.fill(ctx, pl.keys, pl.results, 0, workers, nil)
			e.memoize(pl.keys, pl.results, done)
			return pl, 0, err
		}
		keys := make([]aladdin.Design, len(miss))
		for j, i := range miss {
			keys[j] = pl.keys[i]
		}
		results := make([]aladdin.Result, len(miss))
		done, err := e.fill(ctx, keys, results, 0, workers, nil)
		for j, i := range miss {
			pl.results[i] = results[j]
		}
		e.memoize(keys, results, done)
		return pl, 0, err
	}
	e.mu.Lock()
	e.boundLocked(len(pl.keys))
	e.mu.Unlock()
	digest := sweepDigest(e.c, pl.keys)
	start := 0
	if len(ck.Resume) > 0 {
		var err error
		if start, err = decodeSweepSnapshot(digest, pl.keys, pl.results, ck.Resume); err != nil {
			return nil, 0, err
		}
	}
	tr := ck.Tracker(len(pl.keys), start, func(n int) ([]byte, error) {
		return encodeSweepSnapshot(digest, len(pl.keys), pl.results, n), nil
	})
	done, err := e.fill(ctx, pl.keys, pl.results, start, workers, tr)
	e.memoize(pl.keys, pl.results, done)
	return pl, start, err
}

// fill simulates keys[start:] over resources.RunChunks into results
// (slots below start must already hold restored results) and reports
// which slots hold a result. All workers share the one immutable
// *aladdin.Compiled.
//
// Each successful slot is reported to the (possibly nil) checkpoint
// tracker; an errored design must be retried by a resumed run, so it pins
// the durable prefix behind it. A cancelled fill leaves one final
// snapshot and returns ctx.Err(); otherwise the first failed slot's error
// is returned, after the remaining chunks drained.
func (e *Engine) fill(ctx context.Context, keys []aladdin.Design, results []aladdin.Result, start, workers int, tr *checkpoint.Tracker) ([]bool, error) {
	type outcome struct {
		res aladdin.Result
		err error
	}
	done := make([]bool, len(keys))
	for i := 0; i < start; i++ {
		done[i] = true
	}
	errs := make([]error, len(keys))
	resources.RunChunks(ctx, len(keys), start, workers,
		func(i int, _ *struct{}) outcome {
			res, err := simulateOne(e.c, keys[i])
			return outcome{res, err}
		},
		func(i int, o outcome) {
			results[i], errs[i], done[i] = o.res, o.err, o.err == nil
			if done[i] {
				tr.Complete(i)
			}
		})
	if err := ctx.Err(); err != nil {
		// The parting snapshot: whatever prefix is complete right now is
		// what a restarted process (or a drained daemon) resumes from.
		tr.Final()
		return done, err
	}
	for _, err := range errs {
		if err != nil {
			return done, err
		}
	}
	return done, nil
}
