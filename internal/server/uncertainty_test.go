package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"accelwall/internal/core"
	"accelwall/internal/montecarlo"
)

// uncertaintyBody is a small request that keeps handler tests fast.
const uncertaintyBody = `{"replicates": 16, "seed": 3}`

// TestUncertaintyMatchesEngine checks the endpoint serves exactly what a
// direct montecarlo run produces for the same configuration — the CLI/server
// parity guarantee.
func TestUncertaintyMatchesEngine(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, Options{}).Handler())
	defer ts.Close()
	status, body := post(t, ts.URL+"/v1/uncertainty", uncertaintyBody)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}

	res, err := montecarlo.RunCheckpointed(context.Background(), montecarlo.Config{Replicates: 16, Seed: 3}, nil)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	want, err := json.Marshal(core.NewUncertaintyJSON(res))
	if err != nil {
		t.Fatal(err)
	}
	var gotCompact bytes.Buffer
	if err := json.Compact(&gotCompact, body); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	if gotCompact.String() != string(want) {
		t.Errorf("endpoint payload differs from direct engine run\n got: %.200s\nwant: %.200s", gotCompact.String(), want)
	}
}

// TestUncertaintyMemoized checks a repeated identical request is served
// from the cache — one run, one hit — with an identical body.
func TestUncertaintyMemoized(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, first := post(t, ts.URL+"/v1/uncertainty", uncertaintyBody)
	runs := s.metrics.UncertaintyRuns.Value()
	hits := s.metrics.UncertaintyHits.Value()
	if runs != 1 || hits != 0 {
		t.Fatalf("after first request: runs=%d hits=%d, want 1/0", runs, hits)
	}

	// Same normalized config, different worker count: must hit.
	status, second := post(t, ts.URL+"/v1/uncertainty", `{"replicates": 16, "seed": 3, "workers": 2}`)
	if status != http.StatusOK {
		t.Fatalf("second request: %d %s", status, second)
	}
	if s.metrics.UncertaintyRuns.Value() != 1 || s.metrics.UncertaintyHits.Value() != 1 {
		t.Fatalf("after second request: runs=%d hits=%d, want 1/1",
			s.metrics.UncertaintyRuns.Value(), s.metrics.UncertaintyHits.Value())
	}
	if !bytes.Equal(first, second) {
		t.Errorf("cached response differs from original")
	}
}

// TestUncertaintyConcurrentSingleflight checks concurrent identical
// requests run the engine exactly once.
func TestUncertaintyConcurrentSingleflight(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 8
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body := post(t, ts.URL+"/v1/uncertainty", uncertaintyBody)
			if status != http.StatusOK {
				t.Errorf("request %d: status %d", i, status)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	if runs := s.metrics.UncertaintyRuns.Value(); runs != 1 {
		t.Errorf("engine ran %d times for %d identical requests, want 1", runs, n)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d body differs from request 0", i)
		}
	}
}

// TestUncertaintyBadRequests checks every malformed request gets a 400
// before any Monte Carlo work starts.
func TestUncertaintyBadRequests(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, body string
	}{
		{"not json", `{`},
		{"unknown field", `{"replicate_count": 50}`},
		{"too few replicates", `{"replicates": 5}`},
		{"over served cap", fmt.Sprintf(`{"replicates": %d}`, maxServedReplicates+1)},
		{"bad confidence", `{"replicates": 16, "confidence": 1.5}`},
		{"bad jitter", `{"replicates": 16, "cmos_jitter": 0.9}`},
	}
	for _, tc := range cases {
		status, body := post(t, ts.URL+"/v1/uncertainty", tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400): %s", tc.name, status, body)
		}
	}
	if runs := s.metrics.UncertaintyRuns.Value(); runs != 0 {
		t.Errorf("bad requests started %d Monte Carlo runs", runs)
	}
}

// TestUncertaintyEvictionBound checks the memo bound holds: distinct
// configs beyond it evict the least-recent completed entry.
func TestUncertaintyEvictionBound(t *testing.T) {
	m := NewMetrics()
	c := newMemo[montecarlo.Config, core.UncertaintyJSON](2, &m.UncertaintyHits, &m.UncertaintyRuns, nil)
	get := func(seed int64) error {
		key := montecarlo.Config{Replicates: 10, Seed: seed}.Normalized()
		_, err := c.get(context.Background(), key, localUncertaintyRun(key, 2))
		return err
	}
	for seed := int64(1); seed <= 3; seed++ {
		if err := get(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	if n != 2 {
		t.Errorf("cache holds %d entries, want 2 after eviction", n)
	}
	// The evicted seed re-runs, the resident ones hit.
	runsBefore := m.UncertaintyRuns.Value()
	if err := get(1); err != nil {
		t.Fatal(err)
	}
	if m.UncertaintyRuns.Value() != runsBefore+1 {
		t.Errorf("evicted config did not re-run")
	}
}
