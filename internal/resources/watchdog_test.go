package resources

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// logRecorder captures watchdog output for assertions.
type logRecorder struct {
	mu   sync.Mutex
	logs []string
}

func (l *logRecorder) logf(format string, args ...any) {
	l.mu.Lock()
	l.logs = append(l.logs, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *logRecorder) joined() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.logs, "\n")
}

func armWatchdog(t *testing.T, deadline time.Duration) *logRecorder {
	t.Helper()
	rec := &logRecorder{}
	EnableWatchdog(deadline, rec.logf)
	ResetWatchdogCounters()
	t.Cleanup(func() {
		DisableWatchdog()
		ResetWatchdogCounters()
	})
	return rec
}

func TestWatchdogDisabledIsNil(t *testing.T) {
	DisableWatchdog()
	w := watch(func(int) { t.Fatal("rerun called with watchdog disabled") })
	if w != nil {
		t.Fatal("watch returned a live monitor with the watchdog disabled")
	}
	// All methods must be nil-safe.
	w.begin(0)
	w.end(0)
	if w.firedOn(0) {
		t.Fatal("nil watch reported a fire")
	}
	w.stop()
}

func TestWatchdogFiresOnWedgedChunk(t *testing.T) {
	rec := armWatchdog(t, 20*time.Millisecond)

	var reran atomic.Int64
	var rerunChunk atomic.Int64
	w := watch(func(chunk int) {
		reran.Add(1)
		rerunChunk.Store(int64(chunk))
	})
	if w == nil {
		t.Fatal("watch returned nil with the watchdog armed")
	}
	defer w.stop()

	w.begin(3)
	deadline := time.Now().Add(5 * time.Second)
	for !w.firedOn(3) {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never fired on a wedged chunk")
		}
		time.Sleep(time.Millisecond)
	}
	w.stop() // waits out the rescue

	if got := reran.Load(); got != 1 {
		t.Fatalf("rerun called %d times, want exactly 1", got)
	}
	if got := rerunChunk.Load(); got != 3 {
		t.Fatalf("rerun got chunk %d, want 3", got)
	}
	if WatchdogFires() != 1 || WatchdogRequeues() != 1 {
		t.Fatalf("counters fires=%d requeues=%d, want 1/1", WatchdogFires(), WatchdogRequeues())
	}
	logs := rec.joined()
	if !strings.Contains(logs, "watchdog fired") {
		t.Fatalf("log missing fire notice:\n%s", logs)
	}
	if !strings.Contains(logs, "goroutine") {
		t.Fatalf("log missing goroutine stack dump:\n%s", logs)
	}
}

// TestWatchdogRequeuesOnlyOnce pins the exactly-once contract: a chunk
// that stays wedged across many scan periods is still rescued a single
// time.
func TestWatchdogRequeuesOnlyOnce(t *testing.T) {
	armWatchdog(t, 10*time.Millisecond)

	var reran atomic.Int64
	w := watch(func(int) { reran.Add(1) })
	defer w.stop()
	w.begin(7)
	time.Sleep(150 * time.Millisecond) // many scan periods past the deadline
	w.stop()
	if got := reran.Load(); got != 1 {
		t.Fatalf("wedged chunk rescued %d times, want exactly 1", got)
	}
	if WatchdogRequeues() != 1 {
		t.Fatalf("requeues = %d, want 1", WatchdogRequeues())
	}
}

// TestWatchdogHealthyChunkNeverFires: a chunk that heartbeats End before
// the deadline is never declared wedged.
func TestWatchdogHealthyChunkNeverFires(t *testing.T) {
	armWatchdog(t, 50*time.Millisecond)

	w := watch(func(int) { t.Error("healthy chunk was rescued") })
	w.begin(1)
	time.Sleep(5 * time.Millisecond)
	w.end(1)
	time.Sleep(120 * time.Millisecond)
	w.stop()
	if WatchdogFires() != 0 {
		t.Fatalf("fires = %d, want 0", WatchdogFires())
	}
}

// TestWatchdogStopAwaitsRescues: after stop returns, the rescue function
// has completed — pools rely on this to let rescues touch shared arrays.
func TestWatchdogStopAwaitsRescues(t *testing.T) {
	armWatchdog(t, 10*time.Millisecond)

	var done atomic.Bool
	w := watch(func(int) {
		time.Sleep(50 * time.Millisecond)
		done.Store(true)
	})
	w.begin(0)
	deadline := time.Now().Add(5 * time.Second)
	for !w.firedOn(0) {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never fired")
		}
		time.Sleep(time.Millisecond)
	}
	w.stop()
	if !done.Load() {
		t.Fatal("stop returned before the rescue finished")
	}
}
