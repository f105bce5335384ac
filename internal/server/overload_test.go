package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"accelwall/internal/core"
	"accelwall/internal/faultinject"
	"accelwall/internal/montecarlo"
	"accelwall/internal/sweep"
)

// occupySlots fills every execution slot directly, simulating a server
// whose workers are all pinned on long sweeps, and returns an idempotent
// drain func (safe to call eagerly and again via defer).
func occupySlots(t *testing.T, a *admission) func() {
	t.Helper()
	for i := 0; i < a.capacity; i++ {
		select {
		case a.slots <- struct{}{}:
		default:
			t.Fatal("could not occupy an execution slot")
		}
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			for i := 0; i < a.capacity; i++ {
				<-a.slots
			}
		})
	}
}

// TestAdmitIdleServerIgnoresStaleEWMA checks one historical slow request
// cannot poison admission: with free slots, even a huge smoothed service
// time must not shed a short-deadline request.
func TestAdmitIdleServerIgnoresStaleEWMA(t *testing.T) {
	a := newAdmission(2, 4)
	a.setServiceEWMA(time.Hour)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	v := a.admit(ctx)
	if v.kind != admitOK {
		t.Fatalf("idle server shed a request (verdict %d)", v.kind)
	}
	a.release(time.Millisecond)
}

// TestAdmitDeadlineShed checks the 429 path: all slots busy and an
// expected wait beyond the request deadline sheds immediately with a
// positive retry hint.
func TestAdmitDeadlineShed(t *testing.T) {
	a := newAdmission(1, 8)
	drain := occupySlots(t, a)
	defer drain()
	a.setServiceEWMA(10 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	v := a.admit(ctx)
	if v.kind != admitShedDeadline {
		t.Fatalf("verdict %d, want admitShedDeadline", v.kind)
	}
	if v.retryAfter < 10*time.Second {
		t.Errorf("retryAfter %s, want >= the 10s expected wait", v.retryAfter)
	}
}

// TestAdmitSaturationShed checks the 503 path: with the wait queue full,
// arrivals are rejected without blocking, Retry-After at least one second.
func TestAdmitSaturationShed(t *testing.T) {
	a := newAdmission(1, 0) // no queueing beyond the single slot
	drain := occupySlots(t, a)
	defer drain()
	v := a.admit(context.Background())
	if v.kind != admitShedSaturated {
		t.Fatalf("verdict %d, want admitShedSaturated", v.kind)
	}
	if v.retryAfter < time.Second {
		t.Errorf("retryAfter %s, want >= 1s floor", v.retryAfter)
	}
}

// TestAdmitAbandoned checks a queued client that goes away yields
// admitAbandoned rather than blocking forever or taking a slot.
func TestAdmitAbandoned(t *testing.T) {
	a := newAdmission(1, 8)
	drain := occupySlots(t, a)
	defer drain()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	v := a.admit(ctx)
	if v.kind != admitAbandoned {
		t.Fatalf("verdict %d, want admitAbandoned", v.kind)
	}
	if len(a.slots) != 1 {
		t.Errorf("abandoned admit changed slot occupancy: %d", len(a.slots))
	}
}

// TestLimitReleasesSlotOnPanic checks the middleware contract that makes
// the chaos suite meaningful at the HTTP layer: a panicking handler must
// still return its admission slot.
func TestLimitReleasesSlotOnPanic(t *testing.T) {
	s := newTestServer(t, Options{MaxInflight: 1})
	h := s.instrument("GET /panic", s.limit("GET /panic", http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) { panic("boom") })))
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/panic", nil))
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("iteration %d: status %d, want 500", i, rec.Code)
		}
	}
	if got := len(s.adm.slots); got != 0 {
		t.Fatalf("%d slots still held after panics", got)
	}
	if s.metrics.Panics.Value() != 3 {
		t.Errorf("recorded %d panics, want 3", s.metrics.Panics.Value())
	}
}

// TestShedResponsesOverHTTP drives the full middleware stack: with every
// slot pinned, a deadline-doomed request gets 429 and a saturating
// arrival gets 503, both carrying parseable Retry-After headers, and both
// land in the overload metrics per route. A shed request is shed even
// when its answer already sits in a cache: every 200 is a fresh answer.
func TestShedResponsesOverHTTP(t *testing.T) {
	s := newTestServer(t, Options{MaxInflight: 1, MaxQueue: 1, RequestTimeout: 200 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const warm = `{"workload": "FFT", "preset": "reduced"}`
	if code, body := post(t, ts.URL+"/v1/sweep", warm); code != http.StatusOK {
		t.Fatalf("warming sweep: status %d: %s", code, body)
	}
	drain := occupySlots(t, s.adm)
	defer drain()

	// Expected wait (10s for the one waiter) dwarfs the 200ms deadline.
	s.adm.setServiceEWMA(10 * time.Second)
	resp, err := http.Get(ts.URL + "/v1/cmos")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("deadline-doomed request: status %d, want 429", resp.StatusCode)
	}
	if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || sec < 1 {
		t.Errorf("429 Retry-After %q, want whole seconds >= 1", resp.Header.Get("Retry-After"))
	}

	// Saturate: one request parks in the queue (EWMA cleared so it is
	// not deadline-shed), then the next arrival overflows MaxQueue.
	s.adm.setServiceEWMA(0)
	queued := make(chan struct{})
	go func() {
		defer close(queued)
		resp, err := http.Get(ts.URL + "/v1/cmos")
		if err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.adm.queued.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queued request never reached admission")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err = http.Get(ts.URL + "/v1/cmos")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturating request: status %d, want 503", resp.StatusCode)
	}
	if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || sec < 1 {
		t.Errorf("503 Retry-After %q, want whole seconds >= 1", resp.Header.Get("Retry-After"))
	}

	// The warm sweep body is shed like any other: no stale 200.
	resp, err = http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(warm))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturating warm sweep: status %d, want 503", resp.StatusCode)
	}
	if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || sec < 1 {
		t.Errorf("warm 503 Retry-After %q, want whole seconds >= 1", resp.Header.Get("Retry-After"))
	}
	for _, h := range []string{"Warning", "X-Accelwall-Degraded"} {
		if v := resp.Header.Get(h); v != "" {
			t.Errorf("warm 503 carries %s: %q", h, v)
		}
	}
	drain() // free the slot so the parked request completes
	<-queued

	if got := s.metrics.Shed429.Value(); got != 1 {
		t.Errorf("shed_429 = %d, want 1", got)
	}
	if got := s.metrics.Shed503.Value(); got != 2 {
		t.Errorf("shed_503 = %d, want 2", got)
	}
	snap := s.metrics.Snapshot()
	over := snap["overload"].(map[string]any)
	perShed := over["per_route_shed"].(map[string]int64)
	if perShed["GET /v1/cmos"] != 2 {
		t.Errorf("per-route shed for GET /v1/cmos = %d, want 2", perShed["GET /v1/cmos"])
	}
	if perShed["POST /v1/sweep"] != 1 {
		t.Errorf("per-route shed for POST /v1/sweep = %d, want 1", perShed["POST /v1/sweep"])
	}
}

// pinSweep arms a delay injector on the sweep simulation seam so every
// design point stalls, making "mid-compute" a window the test controls.
func pinSweep(t *testing.T, delay time.Duration) *faultinject.Injector {
	t.Helper()
	inj := faultinject.New(1).Set(sweep.SiteSimulate, faultinject.Rule{
		Mode: faultinject.ModeDelay, Every: 1, Delay: delay,
	})
	faultinject.Enable(inj)
	t.Cleanup(faultinject.Disable)
	return inj
}

// TestSweepClientCancelStopsCompute checks cancellation propagates from a
// dropped connection through the handler into the sweep pool: the cancel
// metric fires and the engine stops issuing simulations within one chunk.
func TestSweepClientCancelStopsCompute(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2, RequestTimeout: time.Minute})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	inj := pinSweep(t, 5*time.Millisecond)

	body := `{"workload": "S3D", "preset": "full"}`
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/sweep", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()

	// Wait until the pool is demonstrably simulating, then yank the client.
	deadline := time.Now().Add(10 * time.Second)
	for inj.Hits(sweep.SiteSimulate) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sweep never started simulating")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err == nil {
		t.Fatal("client saw a response despite cancelling")
	}

	// The handler notices the dead context and records the cancel; the
	// pool must quiesce — hits stop growing — well before the full grid
	// (3,640 points) would have finished.
	deadline = time.Now().Add(10 * time.Second)
	for s.metrics.Cancels.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cancel metric never recorded")
		}
		time.Sleep(time.Millisecond)
	}
	settle := func() uint64 {
		h := inj.Hits(sweep.SiteSimulate)
		for {
			time.Sleep(50 * time.Millisecond)
			if n := inj.Hits(sweep.SiteSimulate); n == h {
				return n
			} else {
				h = n
			}
		}
	}
	if n := settle(); n >= 3640 {
		t.Errorf("pool simulated all %d points despite cancellation", n)
	}
	snap := s.metrics.Snapshot()
	perCancel := snap["overload"].(map[string]any)["per_route_cancelled"].(map[string]int64)
	if perCancel["POST /v1/sweep"] == 0 {
		t.Error("per-route cancel metric missing for POST /v1/sweep")
	}
}

// TestUncertaintyRefcountedCancel checks the singleflight cache's
// cancellation policy: one waiter leaving does not kill a shared run, but
// the last waiter leaving does, and an abandoned run is not cached.
func TestUncertaintyRefcountedCancel(t *testing.T) {
	inj := faultinject.New(1).Set(montecarlo.SiteReplicate, faultinject.Rule{
		Mode: faultinject.ModeDelay, Every: 1, Delay: 2 * time.Millisecond,
	})
	faultinject.Enable(inj)
	t.Cleanup(faultinject.Disable)

	m := NewMetrics()
	c := newMemo[montecarlo.Config, core.UncertaintyJSON](4, &m.UncertaintyHits, &m.UncertaintyRuns, nil)
	cfg := montecarlo.Config{Replicates: 64, Seed: 5}.Normalized()

	// Two waiters on one run; the first leaves early.
	ctx1, cancel1 := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	errs := make(chan error, 2)
	go func() {
		defer wg.Done()
		_, err := c.get(ctx1, cfg, localUncertaintyRun(cfg, 2))
		errs <- err
	}()
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel1()
	}()
	out, err := c.get(context.Background(), cfg, localUncertaintyRun(cfg, 2))
	errs <- err
	wg.Wait()
	if err != nil {
		t.Fatalf("surviving waiter failed: %v", err)
	}
	if out.Replicates == 0 {
		t.Error("surviving waiter got an empty payload")
	}
	if runs := m.UncertaintyRuns.Value(); runs != 1 {
		t.Errorf("%d runs for one shared config, want 1", runs)
	}

	// Sole waiter abandons: the run is cancelled and not cached, so the
	// next request re-runs it.
	cfg2 := montecarlo.Config{Replicates: 256, Seed: 6}.Normalized()
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		for inj.Hits(montecarlo.SiteReplicate) < 70 { // past cfg's 64: cfg2 is running
			time.Sleep(time.Millisecond)
		}
		cancel2()
	}()
	if _, err := c.get(ctx2, cfg2, localUncertaintyRun(cfg2, 2)); err == nil {
		t.Fatal("abandoned waiter got a result, want context error")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		_, resident := c.entries[cfg2]
		c.mu.Unlock()
		if !resident {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned entry still resident")
		}
		time.Sleep(time.Millisecond)
	}
	runsBefore := m.UncertaintyRuns.Value()
	if _, err := c.get(context.Background(), cfg2, localUncertaintyRun(cfg2, 2)); err != nil {
		t.Fatalf("re-request after abandonment: %v", err)
	}
	if m.UncertaintyRuns.Value() != runsBefore+1 {
		t.Error("abandoned run was served from cache instead of re-running")
	}
}
