package resilience

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := Policy{Attempts: 5, Base: 100 * time.Millisecond, Max: 2 * time.Second, Seed: 42}
	for attempt := 1; attempt <= 5; attempt++ {
		d := p.Backoff("job-1", attempt)
		if d != p.Backoff("job-1", attempt) {
			t.Fatalf("attempt %d: backoff is not deterministic", attempt)
		}
		full := p.Base << (attempt - 1)
		if full > p.Max {
			full = p.Max
		}
		if d < full/2 || d >= full {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v)", attempt, d, full/2, full)
		}
	}
	if p.Backoff("job-1", 1) == p.Backoff("job-2", 1) {
		t.Fatal("different keys produced identical jitter (suspicious for SplitMix64)")
	}
	q := p
	q.Seed = 43
	if p.Backoff("job-1", 1) == q.Backoff("job-1", 1) {
		t.Fatal("different seeds produced identical jitter")
	}
}

func TestBackoffCapsAtMax(t *testing.T) {
	p := Policy{Attempts: 10, Base: time.Second, Max: 4 * time.Second, Seed: 1}
	for attempt := 3; attempt <= 10; attempt++ {
		d := p.Backoff("k", attempt)
		if d < 2*time.Second || d >= 4*time.Second {
			t.Fatalf("attempt %d: capped backoff %v outside [2s, 4s)", attempt, d)
		}
	}
}

// recordingSleep captures the retry schedule instead of sleeping.
func recordingSleep(delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(_ context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return nil
	}
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	var delays []time.Duration
	p := Policy{Attempts: 4, Base: 10 * time.Millisecond, Max: 100 * time.Millisecond, Seed: 7,
		Sleep: recordingSleep(&delays)}
	calls := 0
	err := p.Do(context.Background(), "k", func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Fatalf("op called %d times, want 3", calls)
	}
	want := []time.Duration{p.Backoff("k", 1), p.Backoff("k", 2)}
	if len(delays) != len(want) || delays[0] != want[0] || delays[1] != want[1] {
		t.Fatalf("slept %v, want %v", delays, want)
	}
}

func TestDoBoundedAttempts(t *testing.T) {
	var delays []time.Duration
	p := Policy{Attempts: 3, Sleep: recordingSleep(&delays)}
	calls := 0
	opErr := errors.New("still down")
	err := p.Do(context.Background(), "k", func(context.Context) error {
		calls++
		return opErr
	})
	if calls != 3 {
		t.Fatalf("op called %d times, want 3", calls)
	}
	if !errors.Is(err, opErr) {
		t.Fatalf("final error %v does not wrap the op error", err)
	}
	if len(delays) != 2 {
		t.Fatalf("slept %d times, want 2 (no sleep after the final attempt)", len(delays))
	}
}

func TestDoPermanentStopsImmediately(t *testing.T) {
	var delays []time.Duration
	p := Policy{Attempts: 5, Sleep: recordingSleep(&delays)}
	calls := 0
	inner := errors.New("bad request")
	err := p.Do(context.Background(), "k", func(context.Context) error {
		calls++
		return Permanent(fmt.Errorf("peer rejected: %w", inner))
	})
	if calls != 1 {
		t.Fatalf("op called %d times after Permanent, want 1", calls)
	}
	if !errors.Is(err, inner) {
		t.Fatalf("error %v lost the permanent cause", err)
	}
	if len(delays) != 0 {
		t.Fatalf("slept %d times after a permanent error", len(delays))
	}
}

func TestDoHonorsContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{Attempts: 5, Sleep: func(ctx context.Context, _ time.Duration) error {
		cancel()
		return ctx.Err()
	}}
	calls := 0
	err := p.Do(ctx, "k", func(context.Context) error {
		calls++
		return errors.New("transient")
	})
	if calls != 1 {
		t.Fatalf("op called %d times, want 1 (cancelled during first backoff)", calls)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}

func TestDoNilPermanent(t *testing.T) {
	if Permanent(nil) != nil {
		t.Fatal("Permanent(nil) != nil")
	}
}

// TestBackoffJitterPinned pins the jittered delays for fixed keys, so a
// change to the jitter hash cannot silently move a recorded retry
// schedule.
func TestBackoffJitterPinned(t *testing.T) {
	p := Policy{Base: time.Second, Max: time.Hour, Seed: 7}
	var got []string
	for _, key := range []string{"job-000001", "http://127.0.0.1:9001/v1/internal/slice", ""} {
		for attempt := 1; attempt <= 3; attempt++ {
			got = append(got, fmt.Sprint(int64(p.Backoff(key, attempt))))
		}
	}
	want := "532182645,1760853127,3719894427,757020703,1957171712,2531989746,683044008,1092378321,2977424080"
	if s := strings.Join(got, ","); s != want {
		t.Errorf("backoffs %s, want %s", s, want)
	}
}
