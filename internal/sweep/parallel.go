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

// keys normalizes designs onto memo keys, deduplicated in first-seen
// order; with onlyMissing it drops the keys already memoized. It is the
// one scan every grid, batch and slice goes through.
func (e *Engine) keys(designs []aladdin.Design, onlyMissing bool) []aladdin.Design {
	seen := make(map[aladdin.Design]bool, len(designs))
	var out []aladdin.Design
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, d := range designs {
		k := normalizeKey(e.maxP, d)
		if seen[k] {
			continue
		}
		seen[k] = true
		if onlyMissing {
			if _, ok := e.cache[k]; ok {
				continue
			}
		}
		out = append(out, k)
	}
	return out
}

// warm memoizes every design of the list on the worker pool and reports
// how many unique designs were restored from ck.Resume. Without ck only
// the unmemoized keys are simulated. With ck the whole unique-design list
// is the unit of durable work — the identity a snapshot is fingerprinted
// over — so its completed prefix is snapshotted as it grows.
func (e *Engine) warm(ctx context.Context, designs []aladdin.Design, workers int, ck *Checkpoint) (int, error) {
	if ck == nil {
		missing := e.keys(designs, true)
		if len(missing) == 0 {
			return 0, nil
		}
		return 0, e.fill(ctx, missing, make([]aladdin.Result, len(missing)), 0, workers, nil)
	}
	uniques := e.keys(designs, false)
	results := make([]aladdin.Result, len(uniques))
	digest := sweepDigest(e.c, uniques)
	start := 0
	if len(ck.Resume) > 0 {
		var err error
		if start, err = decodeSweepSnapshot(digest, uniques, results, ck.Resume); err != nil {
			return 0, err
		}
	}
	tr := ck.Tracker(len(uniques), start, func(n int) ([]byte, error) {
		return encodeSweepSnapshot(digest, len(uniques), results, n), nil
	})
	return start, e.fill(ctx, uniques, results, start, workers, tr)
}

// fill simulates keys[start:] over resources.RunChunks into results
// (slots below start must already hold restored results) and memoizes
// every slot that completed — also when ctx is cancelled or another slot
// failed, since a completed slot is bit-identical to an uncancelled
// run's. All workers share the one immutable *aladdin.Compiled.
//
// Each successful slot is reported to the (possibly nil) checkpoint
// tracker; an errored design must be retried by a resumed run, so it pins
// the durable prefix behind it. A cancelled fill leaves one final
// snapshot and returns ctx.Err(); otherwise the first failed slot's error
// is returned, after the remaining chunks drained.
func (e *Engine) fill(ctx context.Context, keys []aladdin.Design, results []aladdin.Result, start, workers int, tr *checkpoint.Tracker) error {
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
	e.mu.Lock()
	for i, k := range keys {
		if done[i] {
			e.cache[k] = results[i]
		}
	}
	e.mu.Unlock()
	if err := ctx.Err(); err != nil {
		// The parting snapshot: whatever prefix is complete right now is
		// what a restarted process (or a drained daemon) resumes from.
		tr.Final()
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
