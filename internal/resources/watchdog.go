// The chunked worker pool and its stuck-work watchdog. RunChunks is the
// one pool under the sweep and Monte Carlo engines (and, through the
// sweep engine, the search): workers claim fixed chunks of consecutive
// items and heartbeat each chunk they run. A chunk that stays in flight
// past the configured deadline is presumed wedged (a pathological
// schedule, a hung syscall, an injected delay in chaos runs). The
// watchdog then logs a full goroutine stack dump for the post-mortem and
// requeues the chunk exactly once on a rescue goroutine. Rescue and
// original race to a per-chunk claim; the winner commits, the loser
// discards, so a wedged worker that eventually wakes cannot double-write
// results.
package resources

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// chunkSize is how many consecutive items one worker claims per fetch.
// Chunking cuts the queue-coordination overhead from one atomic operation
// per item to one per chunk while staying small enough to balance load
// across uneven items (high-partition design points simulate much faster
// than partition-1 points). It is also the unit of watchdog rescue.
const chunkSize = 8

// RunChunks computes items [start, n) on a pool of workers (workers <= 0
// selects GOMAXPROCS) and hands each result to commit, in index order
// within a chunk. Each worker owns one scratch value that compute may
// reuse across the items it runs; commit never runs concurrently for the
// same chunk but may for different ones, so it must only touch slot i.
//
// Cancellation is cooperative: ctx is checked before every item, so after
// a cancel the pool quiesces within one item per worker, and a chunk
// commits only the prefix of its items that was computed. Every item is
// computed into a chunk-local buffer and committed only after winning the
// chunk's claim. When the watchdog is armed, a chunk wedged past the
// deadline is re-executed once on a rescue goroutine with a fresh
// scratch; the first of rescue and original to finish commits, the other
// discards. RunChunks returns once every chunk is committed or every
// worker has exited, whichever is first, so one wedged worker cannot hold
// the run hostage after its chunk was rescued; it never returns while a
// rescue can still commit.
func RunChunks[S, R any](ctx context.Context, n, start, workers int, compute func(i int, scratch *S) R, commit func(i int, r R)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	remaining := n - start
	if remaining <= 0 {
		return
	}
	workers = min(workers, remaining)
	numChunks := (remaining + chunkSize - 1) / chunkSize
	claims := make([]atomic.Bool, numChunks)
	var committed atomic.Int64
	allCommitted := make(chan struct{})

	runChunk := func(chunk int, scratch *S) {
		lo := start + chunk*chunkSize
		hi := min(lo+chunkSize, n)
		var local [chunkSize]R
		k := 0
		for i := lo; i < hi && ctx.Err() == nil; i++ {
			local[k] = compute(i, scratch)
			k++
		}
		if !claims[chunk].CompareAndSwap(false, true) {
			return // a rescue (or the rescued original) already committed
		}
		for j := 0; j < k; j++ {
			commit(lo+j, local[j])
		}
		if committed.Add(1) == int64(numChunks) {
			close(allCommitted)
		}
	}

	w := watch(func(chunk int) {
		var scratch S
		runChunk(chunk, &scratch)
	})
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch S
			for ctx.Err() == nil {
				chunk := int(next.Add(1)) - 1
				if chunk >= numChunks {
					return
				}
				w.begin(chunk)
				runChunk(chunk, &scratch)
				w.end(chunk)
			}
		}()
	}
	workersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(workersDone)
	}()
	select {
	case <-workersDone:
	case <-allCommitted:
	}
	// After stop no rescue goroutine can commit; a still-wedged original
	// only ever writes its own locals once it loses the claim.
	w.stop()
}

// watchdogCfg is the process-wide watchdog arming, installed like a
// faultinject plan: a single atomic pointer, nil meaning disabled, so
// the per-chunk heartbeats cost one atomic load when off.
type watchdogCfg struct {
	deadline time.Duration
	logf     func(format string, args ...any)
}

var wdActive atomic.Pointer[watchdogCfg]

var (
	wdFires    atomic.Int64
	wdRequeues atomic.Int64
)

// EnableWatchdog arms the process-wide watchdog: any pool chunk in
// flight longer than deadline is stack-dumped through logf (nil
// discards the dump) and requeued once. A non-positive deadline
// disables it.
func EnableWatchdog(deadline time.Duration, logf func(format string, args ...any)) {
	if deadline <= 0 {
		DisableWatchdog()
		return
	}
	wdActive.Store(&watchdogCfg{deadline: deadline, logf: logf})
}

// DisableWatchdog removes the arming. Pools already running keep the
// config they started with.
func DisableWatchdog() { wdActive.Store(nil) }

// WatchdogDeadline reports the armed deadline, 0 when disabled.
func WatchdogDeadline() time.Duration {
	cfg := wdActive.Load()
	if cfg == nil {
		return 0
	}
	return cfg.deadline
}

// WatchdogFires reports how many chunks have been declared wedged.
func WatchdogFires() int64 { return wdFires.Load() }

// WatchdogRequeues reports how many wedged chunks were requeued.
func WatchdogRequeues() int64 { return wdRequeues.Load() }

// ResetWatchdogCounters zeroes the fire/requeue counters (tests).
func ResetWatchdogCounters() {
	wdFires.Store(0)
	wdRequeues.Store(0)
}

// poolWatch monitors one pool run. A nil *poolWatch (watchdog disabled)
// makes every method a no-op, so the pool calls begin/end/stop
// unconditionally.
type poolWatch struct {
	cfg   *watchdogCfg
	rerun func(chunk int)

	mu      sync.Mutex
	started map[int]time.Time
	fired   map[int]bool

	stopping chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	rescues  sync.WaitGroup
}

// watch starts monitoring a pool run, returning nil when the watchdog
// is disabled. rerun re-executes one wedged chunk; it runs on a rescue
// goroutine concurrently with the (possibly still wedged) original
// worker, so it must commit through the pool's per-chunk claim.
func watch(rerun func(chunk int)) *poolWatch {
	cfg := wdActive.Load()
	if cfg == nil {
		return nil
	}
	w := &poolWatch{
		cfg:      cfg,
		rerun:    rerun,
		started:  make(map[int]time.Time),
		fired:    make(map[int]bool),
		stopping: make(chan struct{}),
		done:     make(chan struct{}),
	}
	go w.monitor()
	return w
}

// begin heartbeats that chunk is now in flight on a worker.
func (w *poolWatch) begin(chunk int) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.started[chunk] = time.Now()
	w.mu.Unlock()
}

// end heartbeats that chunk left the worker (committed or discarded).
func (w *poolWatch) end(chunk int) {
	if w == nil {
		return
	}
	w.mu.Lock()
	delete(w.started, chunk)
	w.mu.Unlock()
}

// stop shuts the monitor down and waits for any in-flight rescues, so
// after stop returns no watchdog goroutine can touch the pool's arrays.
// Idempotent.
func (w *poolWatch) stop() {
	if w == nil {
		return
	}
	w.stopOnce.Do(func() { close(w.stopping) })
	<-w.done
	w.rescues.Wait()
}

// firedOn reports whether chunk was ever declared wedged (tests).
func (w *poolWatch) firedOn(chunk int) bool {
	if w == nil {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fired[chunk]
}

// monitor scans the in-flight chunks at a quarter of the deadline, so a
// wedged chunk is declared within deadline..1.25*deadline of Begin.
func (w *poolWatch) monitor() {
	defer close(w.done)
	period := w.cfg.deadline / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-w.stopping:
			return
		case <-t.C:
			w.scan()
		}
	}
}

// scan declares overdue chunks wedged: stack-dump, count, requeue once.
func (w *poolWatch) scan() {
	now := time.Now()
	w.mu.Lock()
	var wedged []int
	for chunk, t0 := range w.started {
		if w.fired[chunk] || now.Sub(t0) < w.cfg.deadline {
			continue
		}
		w.fired[chunk] = true
		delete(w.started, chunk)
		wedged = append(wedged, chunk)
	}
	w.mu.Unlock()
	for _, chunk := range wedged {
		wdFires.Add(1)
		w.dump(chunk)
		wdRequeues.Add(1)
		w.rescues.Add(1)
		go func(chunk int) {
			defer w.rescues.Done()
			w.rerun(chunk)
		}(chunk)
	}
}

// dump logs the wedged-chunk diagnosis with a full goroutine stack dump
// — the one artifact that explains where the original worker is stuck.
func (w *poolWatch) dump(chunk int) {
	if w.cfg.logf == nil {
		return
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	w.cfg.logf("resources: watchdog fired: chunk %d wedged past %s; requeueing once; goroutine dump:\n%s",
		chunk, w.cfg.deadline, buf[:n])
}
