package montecarlo

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"accelwall/internal/faultinject"
	"accelwall/internal/leakcheck"
	"accelwall/internal/resources"
)

// wdLog captures watchdog output across goroutines.
type wdLog struct {
	mu   sync.Mutex
	logs []string
}

func (l *wdLog) logf(format string, args ...any) {
	l.mu.Lock()
	l.logs = append(l.logs, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *wdLog) joined() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.logs, "\n")
}

// TestWatchdogReplicateRescuesWedgedChunk wedges exactly one replicate
// with an injected delay past the watchdog deadline: the run must finish
// with output identical to an unwedged reference (replicates are a pure
// function of their substream, so the rescue recomputes the same
// numbers), the wedged chunk requeued exactly once, no leaks.
func TestWatchdogReplicateRescuesWedgedChunk(t *testing.T) {
	ref, err := runFresh(context.Background(), testConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	total := uint64(testConfig(0).Replicates) // one SiteReplicate hit per replicate

	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			leakcheck.Check(t)
			rec := &wdLog{}
			// A healthy chunk here is real work — 8 corpus resamples and
			// refits, a few hundred ms under the race detector — so the
			// deadline must sit well above that while staying far under
			// the injected wedge.
			resources.EnableWatchdog(time.Second, rec.logf)
			resources.ResetWatchdogCounters()
			defer func() {
				resources.DisableWatchdog()
				resources.ResetWatchdogCounters()
			}()
			faultinject.Enable(faultinject.New(1).Set(SiteReplicate, faultinject.Rule{
				Mode: faultinject.ModeDelay, Every: total, Delay: 4 * time.Second,
			}))
			defer faultinject.Disable()

			res, err := runFresh(context.Background(), testConfig(workers))
			if err != nil {
				t.Fatalf("wedged run failed: %v", err)
			}
			if !sameOutput(res, ref) {
				t.Fatal("rescue changed the reduced result")
			}
			if fires := resources.WatchdogFires(); fires != 1 {
				t.Fatalf("watchdog fired %d times, want exactly 1", fires)
			}
			if req := resources.WatchdogRequeues(); req != 1 {
				t.Fatalf("watchdog requeued %d chunks, want exactly 1", req)
			}
			logs := rec.joined()
			if !strings.Contains(logs, "watchdog fired") || !strings.Contains(logs, "goroutine") {
				t.Fatalf("watchdog log missing fire notice or stack dump:\n%.500s", logs)
			}
			// The wedged original wakes within leakcheck's polling grace
			// and discards against the committed claim; no explicit wait.
		})
	}
}
