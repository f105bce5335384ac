package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestServer builds a quiet server with test-friendly limits.
func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

// get fetches a URL and returns status + body.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// post sends a JSON body and returns status + body.
func post(t *testing.T, url string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestHealthz(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, Options{}).Handler())
	defer ts.Close()
	status, body := get(t, ts.URL+"/healthz")
	if status != http.StatusOK || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Fatalf("healthz: %d %s", status, body)
	}
}

func TestCMOSEndpoint(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, Options{}).Handler())
	defer ts.Close()

	status, body := get(t, ts.URL+"/v1/cmos")
	if status != http.StatusOK {
		t.Fatalf("cmos: %d %s", status, body)
	}
	var all struct {
		Nodes []struct {
			NodeNM float64 `json:"node_nm"`
			Freq   float64 `json:"freq"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(body, &all); err != nil {
		t.Fatal(err)
	}
	if len(all.Nodes) < 10 {
		t.Fatalf("want full node table, got %d nodes", len(all.Nodes))
	}

	// Interpolated single node.
	status, body = get(t, ts.URL+"/v1/cmos?node=8")
	if status != http.StatusOK || !bytes.Contains(body, []byte(`"node_nm": 8`)) {
		t.Fatalf("cmos?node=8: %d %s", status, body)
	}

	// Out-of-range node is a client error with the JSON envelope.
	status, body = get(t, ts.URL+"/v1/cmos?node=2")
	if status != http.StatusBadRequest || !bytes.Contains(body, []byte(`"error"`)) {
		t.Fatalf("cmos?node=2: %d %s", status, body)
	}
}

func TestCSREndpoint(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, Options{Published: true}).Handler())
	defer ts.Close()

	req := `{
		"target": "performance",
		"published": true,
		"observations": [
			{"name": "old", "gain": 1.0, "year": 2006, "chip": {"node_nm": 65, "die_mm2": 10, "tdp_w": 5, "freq_ghz": 0.35}},
			{"name": "new", "gain": 8.0, "year": 2012, "chip": {"node_nm": 28, "die_mm2": 10, "tdp_w": 5, "freq_ghz": 0.5}}
		]
	}`
	status, body := post(t, ts.URL+"/v1/csr", req)
	if status != http.StatusOK {
		t.Fatalf("csr: %d %s", status, body)
	}
	var resp struct {
		Target string `json:"target"`
		Rows   []struct {
			Name         string  `json:"name"`
			Gain         float64 `json:"gain"`
			PhysicalGain float64 `json:"physical_gain"`
			CSR          float64 `json:"csr"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 2 {
		t.Fatalf("want 2 rows, got %+v", resp)
	}
	if resp.Rows[0].CSR != 1 {
		t.Fatalf("baseline CSR must be 1, got %g", resp.Rows[0].CSR)
	}
	if resp.Rows[1].CSR <= 0 || resp.Rows[1].PhysicalGain <= 1 {
		t.Fatalf("implausible decomposition: %+v", resp.Rows[1])
	}

	// Error paths: empty observations, unknown field, unknown target.
	for _, bad := range []string{
		`{"target": "performance", "observations": []}`,
		`{"target": "performance", "nope": 1}`,
		`{"target": "sideways", "observations": [{"name": "x", "gain": 1, "chip": {"node_nm": 45, "die_mm2": 25, "tdp_w": 50, "freq_ghz": 1}}]}`,
	} {
		if status, body := post(t, ts.URL+"/v1/csr", bad); status != http.StatusBadRequest {
			t.Fatalf("bad body %s: want 400, got %d %s", bad, status, body)
		}
	}
}

// TestCSRStudyMemoBound: studies are keyed by the client's seed, so the
// study memo is bounded; seeds past the bound evict the least recent, and
// an evicted seed is fitted again.
func TestCSRStudyMemoBound(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	csr := func(seed int) {
		t.Helper()
		req := fmt.Sprintf(`{"target": "performance", "seed": %d, "observations": [
			{"name": "old", "gain": 1.0, "year": 2006, "chip": {"node_nm": 65, "die_mm2": 10, "tdp_w": 5, "freq_ghz": 0.35}},
			{"name": "new", "gain": 8.0, "year": 2012, "chip": {"node_nm": 28, "die_mm2": 10, "tdp_w": 5, "freq_ghz": 0.5}}]}`, seed)
		if status, body := post(t, ts.URL+"/v1/csr", req); status != http.StatusOK {
			t.Fatalf("csr seed %d: %d %s", seed, status, body)
		}
	}
	for seed := 1; seed <= memoBound+2; seed++ {
		csr(seed)
	}
	if got := s.studies.len(); got > memoBound {
		t.Fatalf("resident studies = %d, want at most %d", got, memoBound)
	}
	fits := s.metrics.StudyFits.Value()
	csr(1) // the least recent seed: evicted
	if got := s.metrics.StudyFits.Value(); got != fits+1 {
		t.Fatalf("re-requesting an evicted seed: fits %d -> %d, want one refit", fits, got)
	}
}

// TestEngineWorkloadNamesWithAt: a workload name that merely looks like an
// engine key ("FFT@bogus", "FFT@7") is an unknown workload on both the
// sweep and search endpoints, and compiles nothing.
func TestEngineWorkloadNamesWithAt(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, name := range []string{"FFT@bogus", "FFT@7"} {
		for path, body := range map[string]string{
			"/v1/sweep":  fmt.Sprintf(`{"workload": %q, "designs": [{"node_nm": 45, "partition": 1, "simplification": 1}]}`, name),
			"/v1/search": fmt.Sprintf(`{"workload": %q, "generations": 2, "population": 8}`, name),
		} {
			status, out := post(t, ts.URL+path, body)
			if status != http.StatusBadRequest || !bytes.Contains(out, []byte("unknown workload")) {
				t.Errorf("%s %s: %d %s, want 400 unknown workload", path, name, status, out)
			}
		}
	}
	if got := s.metrics.Compiles.Value(); got != 0 {
		t.Fatalf("compiles = %d, want 0", got)
	}
}

func TestProjectionEndpoint(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, Options{}).Handler())
	defer ts.Close()

	status, body := get(t, ts.URL+"/v1/projection")
	if status != http.StatusOK {
		t.Fatalf("projection: %d %s", status, body)
	}
	var resp struct {
		Projections []struct {
			Domain       string  `json:"domain"`
			Target       string  `json:"target"`
			RemainLog    float64 `json:"remain_log"`
			RemainLinear float64 `json:"remain_linear"`
		} `json:"projections"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Projections) != 8 { // 4 domains x 2 targets
		t.Fatalf("want 8 projections, got %d", len(resp.Projections))
	}

	status, body = get(t, ts.URL+"/v1/projection?target=efficiency")
	if status != http.StatusOK {
		t.Fatalf("projection?target=efficiency: %d %s", status, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Projections) != 4 {
		t.Fatalf("want 4 efficiency projections, got %d", len(resp.Projections))
	}
	for _, p := range resp.Projections {
		if p.Target != "efficiency" {
			t.Fatalf("unexpected target in %+v", p)
		}
	}

	if status, _ := get(t, ts.URL+"/v1/projection?target=nope"); status != http.StatusBadRequest {
		t.Fatalf("bad target: want 400, got %d", status)
	}
}

func TestCaseStudyEndpoints(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, Options{}).Handler())
	defer ts.Close()

	for name, wantFig := range map[string]string{
		"bitcoin":  `"fig1"`,
		"videodec": `"fig4a"`,
		"gpu":      `"fig5a"`,
		"fpgacnn":  `"fig8a"`,
	} {
		status, body := get(t, ts.URL+"/v1/casestudy/"+name)
		if status != http.StatusOK {
			t.Fatalf("casestudy/%s: %d %s", name, status, body)
		}
		if !bytes.Contains(body, []byte(wantFig)) {
			t.Fatalf("casestudy/%s missing %s", name, wantFig)
		}
	}
	if status, _ := get(t, ts.URL+"/v1/casestudy/tpu"); status != http.StatusNotFound {
		t.Fatalf("unknown case study: want 404, got %d", status)
	}
}

func TestExperimentEndpoints(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, Options{Published: true}).Handler())
	defer ts.Close()

	status, body := get(t, ts.URL+"/v1/experiments")
	if status != http.StatusOK || !bytes.Contains(body, []byte(`"fig15"`)) || !bytes.Contains(body, []byte(`"ext-dark"`)) {
		t.Fatalf("experiments list: %d %s", status, body)
	}

	status, body = get(t, ts.URL+"/v1/experiments/fig3a")
	if status != http.StatusOK || !bytes.Contains(body, []byte(`"rows"`)) {
		t.Fatalf("experiments/fig3a: %d %s", status, body)
	}

	if status, _ := get(t, ts.URL+"/v1/experiments/nope"); status != http.StatusNotFound {
		t.Fatalf("unknown experiment: want 404, got %d", status)
	}
}

func TestWorkloadsEndpoint(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, Options{}).Handler())
	defer ts.Close()
	status, body := get(t, ts.URL+"/v1/workloads")
	if status != http.StatusOK {
		t.Fatalf("workloads: %d %s", status, body)
	}
	for _, want := range []string{`"S3D"`, `"GMM/strassen"`, `"SHA256d"`} {
		if !bytes.Contains(body, []byte(want)) {
			t.Fatalf("workloads missing %s: %s", want, body)
		}
	}
}

func TestSweepDesignsAndValidation(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := `{
		"workload": "RED",
		"objective": "efficiency",
		"designs": [
			{"node_nm": 45, "partition": 1, "simplification": 1},
			{"node_nm": 5, "partition": 16, "simplification": 5, "fusion": true}
		]
	}`
	status, body := post(t, ts.URL+"/v1/sweep", req)
	if status != http.StatusOK {
		t.Fatalf("sweep designs: %d %s", status, body)
	}
	var resp struct {
		Evaluated int `json:"evaluated"`
		Points    []struct {
			Result struct {
				RuntimeNS float64 `json:"runtime_ns"`
			} `json:"result"`
		} `json:"points"`
		Best *struct {
			Design struct {
				NodeNM float64 `json:"node_nm"`
			} `json:"design"`
		} `json:"best"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Evaluated != 2 || len(resp.Points) != 2 || resp.Best == nil {
		t.Fatalf("sweep response: %s", body)
	}
	if resp.Best.Design.NodeNM != 5 {
		t.Fatalf("best should be the 5nm point: %s", body)
	}

	for name, bad := range map[string]string{
		"no workload":      `{"designs": [{"node_nm": 45, "partition": 1, "simplification": 1}]}`,
		"unknown workload": `{"workload": "NOPE", "preset": "reduced"}`,
		"no designs/grid":  `{"workload": "RED"}`,
		"both":             `{"workload": "RED", "preset": "reduced", "designs": [{"node_nm": 45, "partition": 1, "simplification": 1}]}`,
		"bad preset":       `{"workload": "RED", "preset": "huge"}`,
		"bad grid":         `{"workload": "RED", "grid": {"nodes": [45], "partitions": [3000000], "simplifications": [1], "fusion": [false]}}`,
	} {
		if status, body := post(t, ts.URL+"/v1/sweep", bad); status != http.StatusBadRequest {
			t.Fatalf("%s: want 400, got %d %s", name, status, body)
		}
	}

	// An invalid design is refused before any engine work, naming it.
	invalid := `{"workload": "RED", "designs": [{"node_nm": 45, "partition": 1, "simplification": 1},
		{"node_nm": 45, "partition": 0, "simplification": 1}]}`
	status, body = post(t, ts.URL+"/v1/sweep", invalid)
	if status != http.StatusBadRequest || !bytes.Contains(body, []byte(`designs[1]`)) {
		t.Fatalf("invalid design: want 400 naming designs[1], got %d %s", status, body)
	}
}

// TestSweepCacheHitMiss verifies the engine cache: the first sweep of a
// workload compiles (miss), the second request serves from the resident
// engine (hit) with its memo table intact.
func TestSweepCacheHitMiss(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := `{"workload": "RED", "preset": "reduced"}`
	status, body := post(t, ts.URL+"/v1/sweep", req)
	if status != http.StatusOK {
		t.Fatalf("first sweep: %d %s", status, body)
	}
	if got := s.metrics.EngineMisses.Value(); got != 1 {
		t.Fatalf("after first sweep: misses = %d, want 1", got)
	}
	var first struct {
		Cached int `json:"cached_points"`
	}
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached == 0 {
		t.Fatal("first sweep cached no points")
	}

	status, body = post(t, ts.URL+"/v1/sweep", req)
	if status != http.StatusOK {
		t.Fatalf("second sweep: %d %s", status, body)
	}
	if got := s.metrics.EngineHits.Value(); got != 1 {
		t.Fatalf("after second sweep: hits = %d, want 1", got)
	}
	if got := s.metrics.Compiles.Value(); got != 1 {
		t.Fatalf("compiles = %d, want 1 (engine must be reused)", got)
	}
	var second struct {
		Cached int `json:"cached_points"`
	}
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if second.Cached != first.Cached {
		t.Fatalf("memo table changed across identical sweeps: %d -> %d", first.Cached, second.Cached)
	}
}

// TestSweepLRUEviction verifies the engine cache evicts least-recent
// engines beyond capacity.
func TestSweepLRUEviction(t *testing.T) {
	s := newTestServer(t, Options{EngineCacheSize: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, wl := range []string{"RED", "TRD"} {
		req := fmt.Sprintf(`{"workload": %q, "designs": [{"node_nm": 45, "partition": 1, "simplification": 1}]}`, wl)
		if status, body := post(t, ts.URL+"/v1/sweep", req); status != http.StatusOK {
			t.Fatalf("sweep %s: %d %s", wl, status, body)
		}
	}
	if got := s.metrics.EngineEvicted.Value(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if got := s.engines.len(); got != 1 {
		t.Fatalf("resident engines = %d, want 1", got)
	}
}

// TestConcurrentSweepsCompileOnce is the singleflight contract: many
// concurrent identical sweep requests on a cold server compile the
// workload graph exactly once.
func TestConcurrentSweepsCompileOnce(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 8
	req := `{"workload": "FFT", "preset": "reduced"}`
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(req))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := s.metrics.Compiles.Value(); got != 1 {
		t.Fatalf("compiles = %d, want exactly 1 for %d concurrent identical sweeps", got, n)
	}
	if got := s.metrics.EngineMisses.Value(); got != 1 {
		t.Fatalf("engine misses = %d, want 1", got)
	}
	if got := s.metrics.EngineHits.Value(); got != n-1 {
		t.Fatalf("engine hits = %d, want %d", got, n-1)
	}
}

// TestRequestTimeout verifies the hard per-request deadline: with a
// vanishingly small timeout the sweep replies 503 with the JSON envelope.
func TestRequestTimeout(t *testing.T) {
	s := newTestServer(t, Options{RequestTimeout: time.Nanosecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, body := post(t, ts.URL+"/v1/sweep", `{"workload": "S3D", "preset": "reduced"}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("want 503, got %d %s", status, body)
	}
	if !bytes.Contains(body, []byte("timed out")) {
		t.Fatalf("timeout body: %s", body)
	}
	// The probe endpoints must not be subject to the API timeout.
	if status, _ := get(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Fatalf("healthz throttled by timeout: %d", status)
	}
	if status, _ := get(t, ts.URL+"/v1/metrics"); status != http.StatusOK {
		t.Fatalf("metrics throttled by timeout: %d", status)
	}
}

// TestGracefulShutdownDrains verifies Serve's drain contract: a request
// in flight when shutdown begins still completes with 200.
func TestGracefulShutdownDrains(t *testing.T) {
	s := newTestServer(t, Options{ShutdownTimeout: 30 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	// Confirm liveness before loading it.
	if status, _ := get(t, base+"/healthz"); status != http.StatusOK {
		t.Fatal("server not up")
	}

	// A full-grid single-worker sweep is slow enough to still be running
	// when we pull the plug.
	type result struct {
		status int
		body   []byte
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/v1/sweep", "application/json",
			strings.NewReader(`{"workload": "S3D", "preset": "full", "workers": 1}`))
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		resc <- result{status: resp.StatusCode, body: body}
	}()

	// Wait until the sweep is in flight, then start the shutdown.
	deadline := time.Now().Add(10 * time.Second)
	for s.metrics.InFlight.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sweep never went in flight")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()

	res := <-resc
	if res.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", res.err)
	}
	if res.status != http.StatusOK {
		t.Fatalf("in-flight request got %d during drain: %s", res.status, res.body)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v after drain", err)
	}
	// The listener must be closed: new connections are refused.
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestPanicRecovery verifies the instrument middleware converts handler
// panics into 500 responses and counts them.
func TestPanicRecovery(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.instrument("GET /boom", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()
	status, body := get(t, ts.URL+"/boom")
	if status != http.StatusInternalServerError {
		t.Fatalf("want 500, got %d %s", status, body)
	}
	if s.metrics.Panics.Value() != 1 {
		t.Fatalf("panics = %d, want 1", s.metrics.Panics.Value())
	}
}

// TestMetricsEndpoint verifies the counters move and render.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get(t, ts.URL+"/healthz")
	get(t, ts.URL+"/v1/cmos")
	status, body := get(t, ts.URL+"/v1/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: %d %s", status, body)
	}
	var snap struct {
		Requests    int64 `json:"requests"`
		EngineCache struct {
			Compiles int64 `json:"compiles"`
		} `json:"engine_cache"`
		LatencyMS struct {
			Buckets map[string]int64 `json:"buckets"`
		} `json:"latency_ms"`
		PerRoute map[string]int64 `json:"per_route"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Requests < 2 {
		t.Fatalf("requests = %d, want >= 2", snap.Requests)
	}
	if snap.PerRoute["GET /healthz"] != 1 || snap.PerRoute["GET /v1/cmos"] != 1 {
		t.Fatalf("per_route: %+v", snap.PerRoute)
	}
	var total int64
	for _, v := range snap.LatencyMS.Buckets {
		total += v
	}
	if total < 2 {
		t.Fatalf("latency buckets sum %d, want >= 2", total)
	}
}

// TestMetricsDocKeys: every key the docs/API.md examples show under
// "overload" is one a jobs-enabled server's /v1/metrics emits in that
// section, so a metric deleted without its doc line fails here.
func TestMetricsDocKeys(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "API.md"))
	if err != nil {
		t.Fatal(err)
	}
	var documented map[string]json.RawMessage
	for _, block := range regexp.MustCompile("(?s)```json\n(.*?)```").FindAllSubmatch(doc, -1) {
		var top struct{ Overload json.RawMessage }
		if json.Unmarshal(block[1], &top) != nil || top.Overload == nil {
			continue
		}
		if err := json.Unmarshal(top.Overload, &documented); err != nil {
			t.Fatalf("docs/API.md overload example: %v", err)
		}
	}
	if len(documented) == 0 {
		t.Fatal("docs/API.md has no overload metrics example")
	}

	ts := httptest.NewServer(newTestServer(t, Options{JobsDir: t.TempDir()}).Handler())
	defer ts.Close()
	status, body := get(t, ts.URL+"/v1/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: %d %s", status, body)
	}
	var live struct{ Overload map[string]json.RawMessage }
	if err := json.Unmarshal(body, &live); err != nil {
		t.Fatal(err)
	}
	for key := range documented {
		if _, ok := live.Overload[key]; !ok {
			t.Errorf("docs/API.md documents overload.%s; /v1/metrics does not emit it", key)
		}
	}
}
