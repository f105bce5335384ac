package checkpoint

import "sync"

// Options configures durable progress snapshots for one engine run; the
// sweep, Monte Carlo and search packages each name it their Checkpoint.
// The zero value (and a nil pointer) disables checkpointing entirely.
type Options struct {
	// Sink receives encoded snapshots (typically a *Log).
	Sink Sink
	// Every is the snapshot cadence in completed work units — unique
	// design points, replicates, or search steps (<= 0: the engine's
	// default).
	Every int
	// Resume, when non-nil, is a snapshot payload from a previous run of
	// the SAME computation; its work is restored instead of recomputed. A
	// mismatched or corrupt payload errors — resuming the wrong run must
	// never silently blend results.
	Resume []byte
	// OnError receives the save failure that stopped further snapshots;
	// the run itself continues. nil discards it.
	OnError func(error)
}

// Tracker builds the prefix tracker for a run over total slots of which
// [0, start) were restored from o.Resume; nil (a no-op tracker) when o is
// nil or has no Sink.
func (o *Options) Tracker(total, start int, encode func(prefix int) ([]byte, error)) *Tracker {
	if o == nil {
		return nil
	}
	return NewTracker(o.Sink, total, start, o.Every, encode, o.OnError)
}

// Tracker turns out-of-order slot completions from a worker pool into
// periodic contiguous-prefix snapshots. Workers call Complete(i) after
// slot i's output is final; whenever the contiguous completed prefix
// [0, n) has advanced by at least the cadence since the last snapshot,
// the completing worker encodes and saves a snapshot of that prefix.
// Prefix slots are finalized before Complete returns them, so the encode
// callback may read them without locking; at most one save is in flight
// at a time, and a save failure disables further snapshots (the run
// continues — checkpointing is an optimization, never a correctness
// dependency).
//
// All methods are safe on a nil *Tracker (no-ops), so engines can thread
// one unconditionally and pay a single pointer test when checkpointing is
// off.
type Tracker struct {
	sink    Sink
	every   int
	encode  func(prefix int) ([]byte, error)
	onError func(error)

	mu       sync.Mutex
	done     []bool
	prefix   int // slots [0, prefix) are all complete
	saved    int // prefix covered by the newest durable snapshot
	saving   bool
	disabled bool
	err      error
}

// DefaultEvery is the snapshot cadence (in completed-prefix slots) when
// the caller passes every <= 0.
const DefaultEvery = 32

// NewTracker builds a tracker over total slots of which [0, start) are
// already complete (restored from a resume snapshot). encode must render
// the first prefix slots into a snapshot payload; onError (optional)
// receives the save failure that disabled checkpointing.
func NewTracker(sink Sink, total, start, every int, encode func(prefix int) ([]byte, error), onError func(error)) *Tracker {
	if sink == nil {
		return nil
	}
	if every <= 0 {
		every = DefaultEvery
	}
	if start < 0 {
		start = 0
	}
	if start > total {
		start = total
	}
	t := &Tracker{sink: sink, every: every, encode: encode, onError: onError,
		done: make([]bool, total), prefix: start, saved: start}
	for i := 0; i < start; i++ {
		t.done[i] = true
	}
	return t
}

// Complete marks slot i final and snapshots the contiguous prefix if it
// has advanced a full cadence past the last durable snapshot.
func (t *Tracker) Complete(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if i >= 0 && i < len(t.done) {
		t.done[i] = true
	}
	for t.prefix < len(t.done) && t.done[t.prefix] {
		t.prefix++
	}
	fire := !t.disabled && !t.saving && t.prefix-t.saved >= t.every
	n := t.prefix
	if fire {
		t.saving = true
	}
	t.mu.Unlock()
	if fire {
		t.save(n)
	}
}

// Final forces a snapshot of the current prefix regardless of cadence —
// the durable parting shot a cancelled or draining run leaves for its
// successor. Call only after the worker pool has quiesced.
func (t *Tracker) Final() {
	if t == nil {
		return
	}
	t.mu.Lock()
	n := t.prefix
	skip := t.disabled || n <= t.saved
	if !skip {
		t.saving = true
	}
	t.mu.Unlock()
	if !skip {
		t.save(n)
	}
}

// save encodes and persists the prefix [0, n), updating the durable
// watermark or disabling the tracker on failure.
func (t *Tracker) save(n int) {
	payload, err := t.encode(n)
	if err == nil {
		err = t.sink.Save(payload)
	}
	t.mu.Lock()
	t.saving = false
	if err != nil {
		t.disabled = true
		t.err = err
	} else if n > t.saved {
		t.saved = n
	}
	t.mu.Unlock()
	if err != nil && t.onError != nil {
		t.onError(err)
	}
}

// Prefix reports the current contiguous completed prefix.
func (t *Tracker) Prefix() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.prefix
}

// Err returns the save failure that disabled checkpointing, if any.
func (t *Tracker) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}
