package sweep

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"accelwall/internal/faultinject"
	"accelwall/internal/leakcheck"
	"accelwall/internal/resources"
)

// wdRecorder captures watchdog log output across goroutines.
type wdRecorder struct {
	mu   sync.Mutex
	logs []string
}

func (l *wdRecorder) logf(format string, args ...any) {
	l.mu.Lock()
	l.logs = append(l.logs, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *wdRecorder) joined() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.logs, "\n")
}

// TestWatchdogSweepRescuesWedgedChunk wedges exactly one design-point
// admission with an injected delay far past the watchdog deadline and
// asserts the rescue contract at several pool widths: the sweep still
// completes with results byte-identical to an unwedged run, the wedged
// chunk is requeued exactly once (with a goroutine dump in the log), and
// nothing leaks.
func TestWatchdogSweepRescuesWedgedChunk(t *testing.T) {
	g := buildApp(t, "FFT", 0)
	ref, err := refRun(g, tiny())
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	// One SiteSimulate hit per unique design: Every = total hits wedges
	// exactly the last admission (the rescue re-admits at most one chunk
	// more, staying short of a second firing).
	total := uint64(len(r.uniqueDesigns(tiny())))
	if total < 16 {
		t.Fatalf("grid too small to isolate one wedge: %d designs", total)
	}

	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			leakcheck.Check(t)
			rec := &wdRecorder{}
			// The deadline must sit well above a healthy chunk, which
			// under the race detector on a loaded host can take tens of
			// milliseconds, while staying far under the injected wedge.
			resources.EnableWatchdog(time.Second, rec.logf)
			resources.ResetWatchdogCounters()
			defer func() {
				resources.DisableWatchdog()
				resources.ResetWatchdogCounters()
			}()
			faultinject.Enable(faultinject.New(1).Set(SiteSimulate, faultinject.Rule{
				Mode: faultinject.ModeDelay, Every: total, Delay: 4 * time.Second,
			}))
			defer faultinject.Disable()

			pts, err := runParallel(g, tiny(), workers)
			if err != nil {
				t.Fatalf("wedged sweep failed: %v", err)
			}
			if len(pts) != len(ref) {
				t.Fatalf("wedged sweep returned %d points, want %d", len(pts), len(ref))
			}
			for i := range pts {
				if pts[i] != ref[i] {
					t.Fatalf("rescue changed results at %d:\n got %+v\nwant %+v", i, pts[i], ref[i])
				}
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

// TestWatchdogSweepDisabledNoOverhead: with the watchdog disarmed the
// pool takes the nil-watch path and results stay identical.
func TestWatchdogSweepDisabledNoOverhead(t *testing.T) {
	leakcheck.Check(t)
	resources.DisableWatchdog()
	g := buildApp(t, "FFT", 0)
	ref, err := refRun(g, tiny())
	if err != nil {
		t.Fatal(err)
	}
	pts, err := runParallel(g, tiny(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if pts[i] != ref[i] {
			t.Fatalf("results diverged at %d", i)
		}
	}
}
