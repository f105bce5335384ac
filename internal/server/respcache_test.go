package server

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"testing"
)

// TestSweepResponseCacheHit: the second identical grid sweep is served
// from the marshaled-response cache, byte-for-byte identical to the first
// render, while the engine-cache telemetry still observes both requests.
func TestSweepResponseCacheHit(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := `{"workload": "RED", "preset": "reduced"}`
	status, first := post(t, ts.URL+"/v1/sweep", req)
	if status != 200 {
		t.Fatalf("first sweep: %d %s", status, first)
	}
	if got := s.metrics.SweepRespMisses.Value(); got != 1 {
		t.Fatalf("response misses = %d, want 1", got)
	}
	status, second := post(t, ts.URL+"/v1/sweep", req)
	if status != 200 {
		t.Fatalf("second sweep: %d %s", status, second)
	}
	if got := s.metrics.SweepRespHits.Value(); got != 1 {
		t.Fatalf("response hits = %d, want 1", got)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("cached response differs from the first render")
	}
	if got := s.metrics.EngineHits.Value(); got != 1 {
		t.Fatalf("engine hits = %d, want 1 (response cache must sit behind the engine lookup)", got)
	}
}

// TestSweepResponseCacheKeying: objective, include_points, workload, and
// grid all partition the cache; a design-list request never populates it.
func TestSweepResponseCacheKeying(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	variants := []string{
		`{"workload": "RED", "preset": "reduced"}`,
		`{"workload": "RED", "preset": "reduced", "objective": "performance"}`,
		`{"workload": "RED", "preset": "reduced", "include_points": true}`,
		`{"workload": "TRD", "preset": "reduced"}`,
	}
	for _, v := range variants {
		if status, body := post(t, ts.URL+"/v1/sweep", v); status != 200 {
			t.Fatalf("sweep %s: %d %s", v, status, body)
		}
	}
	if got := s.metrics.SweepRespHits.Value(); got != 0 {
		t.Fatalf("distinct requests shared a cached body (%d hits)", got)
	}
	if got := s.responses.len(); got != len(variants) {
		t.Fatalf("resident bodies = %d, want %d", got, len(variants))
	}

	n := s.responses.len()
	designReq := `{"workload": "RED", "designs": [{"node_nm": 45, "partition": 1, "simplification": 1}]}`
	if status, body := post(t, ts.URL+"/v1/sweep", designReq); status != 200 {
		t.Fatalf("design sweep: %d %s", status, body)
	}
	if got := s.responses.len(); got != n {
		t.Fatalf("design-list request was cached: %d -> %d bodies", n, got)
	}
}

// TestRespCacheLRU exercises the response memo's bound and eviction
// order directly.
func TestRespCacheLRU(t *testing.T) {
	c := newMemo[respKey, []byte](2, nil, nil, nil)
	k := func(i int) respKey { return respKey{engine: fmt.Sprintf("e%d", i)} }
	has := func(i int) bool { _, ok := c.peek(k(i)); return ok }
	c.put(k(1), []byte("one"))
	c.put(k(2), []byte("two"))
	if !has(1) { // touch 1: 2 becomes LRU
		t.Fatal("entry 1 missing")
	}
	c.put(k(3), []byte("three"))
	if has(2) {
		t.Fatal("LRU entry 2 survived eviction")
	}
	if !has(1) || !has(3) {
		t.Fatal("recent entries evicted")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

// TestSweepOversizedResponseNotCached: a grid-sweep body past
// maxCachedRespBytes is served but never enters the response memo, so a
// repeat misses again.
func TestSweepOversizedResponseNotCached(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := `{"workload": "RED", "preset": "full", "include_points": true}`
	for i := 0; i < 2; i++ {
		status, body := post(t, ts.URL+"/v1/sweep", req)
		if status != 200 {
			t.Fatalf("sweep %d: %d %.200s", i, status, body)
		}
		if len(body) <= maxCachedRespBytes {
			t.Fatalf("body is %d bytes, not past the %d-byte cap", len(body), maxCachedRespBytes)
		}
	}
	if got := s.responses.len(); got != 0 {
		t.Fatalf("resident bodies = %d, want 0", got)
	}
	if hits, misses := s.metrics.SweepRespHits.Value(), s.metrics.SweepRespMisses.Value(); hits != 0 || misses != 2 {
		t.Fatalf("response hits/misses = %d/%d, want 0/2", hits, misses)
	}
}
