package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"accelwall/internal/leakcheck"
)

const resourcesGridBody = `{"workload": "FFT", "objective": "efficiency",
	"grid": {"nodes": [45, 32], "partitions": [1, 2], "simplifications": [1], "fusion": [false]}}`

// postResp is post with access to the response headers.
func postResp(t *testing.T, url, body string) (*http.Response, []byte) {
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
	return resp, out
}

// fillBudget reserves the server's entire memory budget, so every
// subsequent costed request must refuse admission until the release.
func fillBudget(t *testing.T, s *Server) (release func()) {
	t.Helper()
	release, ok := s.budget.TryReserve(s.budget.Limit())
	if !ok {
		t.Fatal("could not fill the memory budget")
	}
	return release
}

// TestMemBudgetShedsWhenExhausted: with the ledger full, a sweep that has
// no warm cache entry sheds with 429 + Retry-After, the refusal shows up
// in /v1/metrics, and admission recovers the moment the bytes release.
func TestMemBudgetShedsWhenExhausted(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	release := fillBudget(t, s)
	resp, body := postResp(t, ts.URL+"/v1/sweep", resourcesGridBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("sweep with exhausted budget: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q, want 1", resp.Header.Get("Retry-After"))
	}
	if !bytes.Contains(body, []byte("memory budget exhausted")) {
		t.Fatalf("shed body does not name the cause: %s", body)
	}

	status, metricsBody := get(t, ts.URL+"/v1/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: %d", status)
	}
	var m struct {
		Resources struct {
			BudgetBytes   int64 `json:"mem_budget_bytes"`
			InFlightBytes int64 `json:"mem_inflight_bytes"`
			Sheds         int64 `json:"mem_sheds"`
		} `json:"resources"`
	}
	if err := json.Unmarshal(metricsBody, &m); err != nil {
		t.Fatalf("metrics body: %v", err)
	}
	if m.Resources.BudgetBytes <= 0 || m.Resources.InFlightBytes != m.Resources.BudgetBytes || m.Resources.Sheds < 1 {
		t.Fatalf("resources section inconsistent: %+v", m.Resources)
	}

	release()
	if status, body := post(t, ts.URL+"/v1/sweep", resourcesGridBody); status != http.StatusOK {
		t.Fatalf("sweep after release: %d %s", status, body)
	}
}

// TestMemBudgetShedsJobSubmit: queued jobs draw on the same ledger as
// synchronous requests; a full budget refuses the submit with the same
// 429 + Retry-After contract, and admission recovers after release.
func TestMemBudgetShedsJobSubmit(t *testing.T) {
	leakcheck.Check(t)
	s := newTestServer(t, Options{JobsDir: t.TempDir()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	jobBody := `{"kind": "uncertainty", "uncertainty": {"replicates": 10, "seed": 3, "corpus_seed": 3}}`
	release := fillBudget(t, s)
	resp, body := postResp(t, ts.URL+"/v1/jobs", jobBody)
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("job submit with exhausted budget: %d (Retry-After %q) %s",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	release()

	id := submitJob(t, ts.URL, jobBody)
	if j := waitForJob(t, ts.URL, id, terminal); j.State != jobDone {
		t.Fatalf("job after release: %+v", j)
	}
}

// TestMaxBodyLimit: a request body past -max-body is cut off with the
// named 413 before any decode work, while a normal body still serves.
func TestMaxBodyLimit(t *testing.T) {
	s := newTestServer(t, Options{MaxBodyBytes: 1024})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	huge := `{"workload": "FFT", "pad": "` + strings.Repeat("x", 4096) + `"}`
	status, body := post(t, ts.URL+"/v1/sweep", huge)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized sweep body: %d %s", status, body)
	}
	if !bytes.Contains(body, []byte("body_too_large")) || !bytes.Contains(body, []byte("1024")) {
		t.Fatalf("413 body does not name the limit: %s", body)
	}

	if status, body := post(t, ts.URL+"/v1/sweep", resourcesGridBody); status != http.StatusOK {
		t.Fatalf("normal body under the limit: %d %s", status, body)
	}
}
