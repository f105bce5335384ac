package faultinject

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDisabledHitIsNil(t *testing.T) {
	Disable()
	if err := Hit("nowhere"); err != nil {
		t.Fatalf("disabled Hit returned %v", err)
	}
}

func TestUnarmedSiteIsNil(t *testing.T) {
	Enable(New(1).Set("armed", Rule{Mode: ModeError, P: 1}))
	defer Disable()
	if err := Hit("other"); err != nil {
		t.Fatalf("unarmed site returned %v", err)
	}
}

func TestEveryFiresDeterministically(t *testing.T) {
	inj := New(7).Set("s", Rule{Mode: ModeError, Every: 3})
	Enable(inj)
	defer Disable()
	var errs int
	for i := 0; i < 9; i++ {
		if err := Hit("s"); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("injected error not wrapped: %v", err)
			}
			errs++
		}
	}
	if errs != 3 {
		t.Fatalf("Every=3 fired %d times in 9 hits, want 3", errs)
	}
	if inj.Hits("s") != 9 || inj.Fired("s") != 3 {
		t.Fatalf("counters hits=%d fired=%d, want 9/3", inj.Hits("s"), inj.Fired("s"))
	}
}

// TestProbabilisticFireCountIsScheduleInvariant drives the same hit count
// through one injector serially and another concurrently: the number of
// fires must match exactly, because firing depends only on (seed, site,
// hit index), and the set of hit indices {1..N} is the same either way.
func TestProbabilisticFireCountIsScheduleInvariant(t *testing.T) {
	const hits = 1000
	serial := New(42).Set("s", Rule{Mode: ModeError, P: 0.25})
	Enable(serial)
	for i := 0; i < hits; i++ {
		Hit("s") //nolint:errcheck
	}
	Disable()

	conc := New(42).Set("s", Rule{Mode: ModeError, P: 0.25})
	Enable(conc)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < hits/8; i++ {
				Hit("s") //nolint:errcheck
			}
		}()
	}
	wg.Wait()
	Disable()

	if serial.Fired("s") != conc.Fired("s") {
		t.Fatalf("fire count depends on schedule: serial %d, concurrent %d",
			serial.Fired("s"), conc.Fired("s"))
	}
	if f := serial.Fired("s"); f < hits/8 || f > hits/2 {
		t.Fatalf("P=0.25 fired %d of %d hits, far from expectation", f, hits)
	}
}

func TestPanicMode(t *testing.T) {
	Enable(New(1).Set("s", Rule{Mode: ModePanic, Every: 1}))
	defer Disable()
	defer func() {
		if recover() == nil {
			t.Fatal("ModePanic did not panic")
		}
	}()
	Hit("s") //nolint:errcheck
}

func TestDelayMode(t *testing.T) {
	Enable(New(1).Set("s", Rule{Mode: ModeDelay, Every: 1, Delay: 20 * time.Millisecond}))
	defer Disable()
	start := time.Now()
	if err := Hit("s"); err != nil {
		t.Fatalf("delay returned error: %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("delay slept only %s", d)
	}
}

func TestRegistry(t *testing.T) {
	name := Register("faultinject.test.site")
	if name != "faultinject.test.site" {
		t.Fatalf("Register returned %q", name)
	}
	found := false
	for _, s := range Sites() {
		if s == name {
			found = true
		}
	}
	if !found {
		t.Fatalf("registered site missing from Sites(): %v", Sites())
	}
}

// TestFireSchedulePinned pins which hits of a probabilistic rule fire for
// a fixed seed and site, so a change to the firing hash cannot silently
// reshuffle a recorded chaos run.
func TestFireSchedulePinned(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		site string
		want string
	}{
		{7, "sweep.worker", "3,22,30,33,34,35,37,40,47,52,64"},
		{424242, "fs.fsync", "1,4,5,6,7,12,13,14,17,19,23,24,25,27,32,34,40,43,44,49,52,57,62,63"},
	} {
		inj := New(tc.seed).Set(tc.site, Rule{Mode: ModeDelay, P: 0.25})
		var fired []string
		for n := 1; n <= 64; n++ {
			if inj.hit(tc.site); inj.Fired(tc.site) > uint64(len(fired)) {
				fired = append(fired, fmt.Sprint(n))
			}
		}
		if got := strings.Join(fired, ","); got != tc.want {
			t.Errorf("seed %d site %s: fired at %s, want %s", tc.seed, tc.site, got, tc.want)
		}
	}
}
