// Package resilience provides bounded retries with seeded exponential
// backoff over an injectable sleeper, so every retry schedule is
// unit-testable without wall-clock sleeps.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"time"

	"accelwall/internal/mix"
)

// Policy is a bounded-retry schedule with deterministic exponential
// backoff. The jitter for (key, attempt) is a pure SplitMix64 hash of
// the seed, so a given policy retries at identical delays run after
// run — chaos suites can assert exact schedules.
type Policy struct {
	// Attempts is the total number of tries, first included (<= 0: 3).
	Attempts int
	// Base is the backoff before the second attempt (<= 0: 50ms); it
	// doubles per attempt.
	Base time.Duration
	// Max caps a single backoff (<= 0: 2s).
	Max time.Duration
	// Seed feeds the jitter hash.
	Seed uint64
	// Sleep waits between attempts; nil uses a timer honoring ctx.
	// Tests inject a recorder to run retry schedules without
	// wall-clock sleeps.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (p Policy) normalized() Policy {
	if p.Attempts <= 0 {
		p.Attempts = 3
	}
	if p.Base <= 0 {
		p.Base = 50 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 2 * time.Second
	}
	if p.Sleep == nil {
		p.Sleep = sleepCtx
	}
	return p
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Backoff returns the delay after attempt (1-based) for key:
// Base<<(attempt-1) capped at Max, jittered deterministically into
// [d/2, d) by hashing (Seed, key, attempt).
func (p Policy) Backoff(key string, attempt int) time.Duration {
	p = p.normalized()
	if attempt < 1 {
		attempt = 1
	}
	d := p.Base
	for i := 1; i < attempt && d < p.Max; i++ {
		d *= 2
	}
	if d > p.Max {
		d = p.Max
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	x := mix.Mix64(p.Seed ^ mix.Mix64(mix.FNV1a(key)+uint64(attempt)))
	return half + time.Duration(x%uint64(half))
}

// permanentError marks an error that must not be retried.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Do stops retrying and returns it immediately
// (e.g. a 4xx response that will never succeed on retry).
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// Do runs op up to Attempts times, sleeping Backoff(key, attempt)
// between tries. It stops early on success, a Permanent error
// (returned unwrapped), or ctx cancellation. The returned error is the
// last attempt's, annotated with the attempt count.
func (p Policy) Do(ctx context.Context, key string, op func(ctx context.Context) error) error {
	p = p.normalized()
	var lastErr error
	for attempt := 1; attempt <= p.Attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return fmt.Errorf("%w (after %d attempts: %w)", err, attempt-1, lastErr)
			}
			return err
		}
		err := op(ctx)
		if err == nil {
			return nil
		}
		var pe *permanentError
		if errors.As(err, &pe) {
			return pe.err
		}
		lastErr = err
		if attempt == p.Attempts {
			break
		}
		if serr := p.Sleep(ctx, p.Backoff(key, attempt)); serr != nil {
			return fmt.Errorf("%w (after %d attempts: %w)", serr, attempt, lastErr)
		}
	}
	return fmt.Errorf("resilience: %d attempts failed: %w", p.Attempts, lastErr)
}
