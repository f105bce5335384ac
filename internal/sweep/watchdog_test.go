package sweep

import (
	"testing"

	"accelwall/internal/leakcheck"
	"accelwall/internal/resources"
)

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
