package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"accelwall/internal/core"
	"accelwall/internal/leakcheck"
	"accelwall/internal/search"
	"accelwall/internal/sweep"
)

// searchBody is a small request that keeps handler tests fast.
const searchBody = `{"workload": "FFT", "population": 12, "generations": 4, "seed": 5}`

// directSearch runs the search engine the way the handler would for the
// same request, for parity checks.
func directSearch(t *testing.T, workload string, cfg search.Config) ([]byte, *search.Result) {
	t.Helper()
	g, err := buildWorkload(workload, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sweep.NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.Normalized()
	res, err := search.RunContext(context.Background(), eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(core.NewSearchJSON(workload, cfg, res))
	if err != nil {
		t.Fatal(err)
	}
	return payload, res
}

// TestSearchMatchesEngine checks the endpoint serves exactly what a direct
// search run produces for the same configuration — the CLI/server parity
// guarantee (accelwall -search -json emits the same payload).
func TestSearchMatchesEngine(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, Options{}).Handler())
	defer ts.Close()
	status, body := post(t, ts.URL+"/v1/search", searchBody)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	want, _ := directSearch(t, "FFT", search.Config{Population: 12, Generations: 4, Seed: 5})
	var gotCompact bytes.Buffer
	if err := json.Compact(&gotCompact, body); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	if gotCompact.String() != string(want) {
		t.Errorf("endpoint payload differs from direct engine run\n got: %.300s\nwant: %.300s", gotCompact.String(), want)
	}
}

// TestSearchMemoized checks a repeated identical request is served from
// the response cache — one run, one hit — and that worker count is not
// part of the key (searches are bit-identical at any pool width).
func TestSearchMemoized(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, first := post(t, ts.URL+"/v1/search", searchBody)
	if runs, hits := s.metrics.SearchRuns.Value(), s.metrics.SearchHits.Value(); runs != 1 || hits != 0 {
		t.Fatalf("after first request: runs=%d hits=%d, want 1/0", runs, hits)
	}
	status, second := post(t, ts.URL+"/v1/search", `{"workload": "FFT", "population": 12, "generations": 4, "seed": 5, "workers": 2}`)
	if status != http.StatusOK {
		t.Fatalf("second request: %d %s", status, second)
	}
	if runs, hits := s.metrics.SearchRuns.Value(), s.metrics.SearchHits.Value(); runs != 1 || hits != 1 {
		t.Fatalf("after second request: runs=%d hits=%d, want 1/1", runs, hits)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("cached response differs from original")
	}
	// A different seed is a different key.
	post(t, ts.URL+"/v1/search", `{"workload": "FFT", "population": 12, "generations": 4, "seed": 6}`)
	if runs := s.metrics.SearchRuns.Value(); runs != 2 {
		t.Errorf("distinct seed did not start a fresh run: runs=%d", runs)
	}
}

// TestSearchConcurrentSingleflight checks concurrent identical requests
// share one run.
func TestSearchConcurrentSingleflight(t *testing.T) {
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
			status, body := post(t, ts.URL+"/v1/search", searchBody)
			if status != http.StatusOK {
				t.Errorf("request %d: status %d", i, status)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	if runs := s.metrics.SearchRuns.Value(); runs != 1 {
		t.Errorf("engine ran %d times for %d identical requests, want 1", runs, n)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d body differs from request 0", i)
		}
	}
}

// TestSearchCustomSpace checks an intensional space restricts the search
// and is reflected in the reported space size.
func TestSearchCustomSpace(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, Options{}).Handler())
	defer ts.Close()
	status, body := post(t, ts.URL+"/v1/search", `{"workload": "RED", "population": 4, "generations": 2,
		"space": {"nodes": [45], "partitions": [1, 2], "simplifications": [1, 2], "fusion": [false]}}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var out core.SearchJSON
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.SpaceSize != 4 {
		t.Errorf("space size %d, want 4", out.SpaceSize)
	}
	if out.Evaluations > 4 {
		t.Errorf("evaluated %d designs in a 4-point space", out.Evaluations)
	}
	for _, p := range out.Frontier {
		if p.Design.NodeNM != 45 {
			t.Errorf("frontier point at %gnm outside the restricted space", p.Design.NodeNM)
		}
	}
}

// TestSearchBadRequests checks every malformed request gets a 400 before
// any engine work starts.
func TestSearchBadRequests(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, body string
	}{
		{"not json", `{`},
		{"unknown field", `{"workload": "FFT", "generation_count": 3}`},
		{"missing workload", `{"population": 12}`},
		{"unknown workload", `{"workload": "NOPE"}`},
		{"bad strategy", `{"workload": "FFT", "strategy": "grid"}`},
		{"bad objective", `{"workload": "FFT", "objectives": ["speed"]}`},
		{"tiny population", `{"workload": "FFT", "population": 1}`},
		{"budget exceeded", `{"workload": "FFT", "population": 1000, "generations": 100}`},
		{"bad space node", `{"workload": "FFT", "space": {"nodes": [0], "partitions": [1], "simplifications": [1], "fusion": [false]}}`},
		{"nan constraint", `{"workload": "FFT", "max_power_w": 1e999}`},
		{"negative seed", `{"workload": "FFT", "seed": -4}`},
	}
	for _, tc := range cases {
		status, body := post(t, ts.URL+"/v1/search", tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400): %s", tc.name, status, body)
		}
	}
	if runs := s.metrics.SearchRuns.Value(); runs != 0 {
		t.Errorf("bad requests started %d search runs", runs)
	}
}

// TestMetricsEnginesBlock checks /v1/metrics carries the per-resident-
// engine schedule-cache stats once a search has warmed an engine.
func TestMetricsEnginesBlock(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if status, body := post(t, ts.URL+"/v1/search", searchBody); status != http.StatusOK {
		t.Fatalf("search: %d %s", status, body)
	}
	status, body := get(t, ts.URL+"/v1/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: %d", status)
	}
	var snap struct {
		Engines map[string]struct {
			ScheduleWalks int `json:"schedule_walks"`
			ScheduleHits  int `json:"schedule_hits"`
			CachedPoints  int `json:"cached_points"`
		} `json:"engines"`
		SearchCache map[string]int64 `json:"search_cache"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metrics body: %v", err)
	}
	e, ok := snap.Engines["FFT@0"]
	if !ok {
		t.Fatalf("metrics lack the FFT@0 engine block: %s", body)
	}
	if e.CachedPoints == 0 || e.ScheduleWalks == 0 {
		t.Errorf("engine stats empty after a search: %+v", e)
	}
	if snap.SearchCache["runs"] != 1 {
		t.Errorf("search_cache runs = %d, want 1", snap.SearchCache["runs"])
	}
}

// TestSearchJobLifecycle: a search job completes with a result identical
// (as a JSON value) to the synchronous endpoint for the same body, and
// step-granular progress accounting.
func TestSearchJobLifecycle(t *testing.T) {
	leakcheck.Check(t)
	s := newTestServer(t, Options{JobsDir: t.TempDir()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := submitJob(t, ts.URL, `{"kind": "search", "search": `+searchBody+`}`)
	j := waitForJob(t, ts.URL, id, terminal)
	if j.State != jobDone {
		t.Fatalf("search job failed: %+v", j)
	}
	if j.ProgressDone != 5 || j.ProgressTotal != 5 {
		t.Fatalf("progress %d/%d, want 5/5 (4 generations + seeding)", j.ProgressDone, j.ProgressTotal)
	}

	status, syncBody := post(t, ts.URL+"/v1/search", searchBody)
	if status != http.StatusOK {
		t.Fatalf("sync search: %d %s", status, syncBody)
	}
	var got, ref any
	if err := json.Unmarshal(j.Result, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(syncBody, &ref); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("job/sync search diverge:\n%s\nvs\n%s", j.Result, syncBody)
	}
}

// TestSearchJobCrashRecoveryResume: a daemon interrupted mid-search
// resumes the job from its last durable generation snapshot and finishes
// with output identical to an uninterrupted run.
func TestSearchJobCrashRecoveryResume(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	s1, err := New(Options{JobsDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())

	// Single worker + cadence 1 lands a snapshot after every step, so
	// there is always a generation boundary to resume from.
	body := `{"kind": "search", "checkpoint_every": 1,
		"search": {"workload": "S3D", "size": 10, "population": 32, "generations": 200, "seed": 7, "workers": 1}}`
	id := submitJob(t, ts1.URL, body)
	waitForJob(t, ts1.URL, id, func(j jobJSON) bool { return j.ProgressDone >= 2 })

	// "kill -9": interrupt the job subsystem without any orderly manifest
	// update, then drop the whole server.
	s1.Close()
	ts1.Close()

	s2, err := New(Options{JobsDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	j := waitForJob(t, ts2.URL, id, terminal)
	if j.State != jobDone {
		t.Fatalf("recovered job failed: %+v", j)
	}
	if j.Resumed == 0 {
		t.Fatal("recovered job reports no resumed work; it restarted cold")
	}

	g, err := buildWorkload("S3D", 10)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sweep.NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := search.Config{Population: 32, Generations: 200, Seed: 7, Workers: 1}.Normalized()
	res, err := search.RunContext(context.Background(), eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(core.NewSearchJSON("S3D", cfg, res))
	if err != nil {
		t.Fatal(err)
	}
	var got, ref any
	if err := json.Unmarshal(j.Result, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &ref); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("resumed search job result diverges from an uninterrupted run")
	}
}

// TestSearchJobValidation: search job bodies are rejected at submission
// with the same rigor as the synchronous endpoint.
func TestSearchJobValidation(t *testing.T) {
	s := newTestServer(t, Options{JobsDir: t.TempDir()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []string{
		`{"kind": "search"}`,
		`{"kind": "search", "search": {}}`,
		`{"kind": "search", "search": {"workload": "NOPE"}}`,
		`{"kind": "search", "search": {"workload": "FFT", "strategy": "grid"}}`,
		`{"kind": "search", "search": {"workload": "FFT"}, "sweep": {"workload": "FFT"}}`,
	}
	for _, body := range cases {
		if status, resp := post(t, ts.URL+"/v1/jobs", body); status != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400): %s", body, status, resp)
		}
	}
}
