package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"accelwall/internal/faultinject"
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

// TestMemBudgetServesStaleFromCache: a request the budget would shed is
// answered byte-identical from the warm response cache instead, marked
// stale — the degraded-serving contract extended to memory exhaustion.
func TestMemBudgetServesStaleFromCache(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, fresh := post(t, ts.URL+"/v1/sweep", resourcesGridBody)
	if status != http.StatusOK {
		t.Fatalf("warming sweep: %d %s", status, fresh)
	}

	release := fillBudget(t, s)
	defer release()
	resp, stale := postResp(t, ts.URL+"/v1/sweep", resourcesGridBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached sweep with exhausted budget: %d %s", resp.StatusCode, stale)
	}
	if h := resp.Header.Get("X-Accelwall-Degraded"); h != "stale" {
		t.Fatalf("X-Accelwall-Degraded = %q, want stale", h)
	}
	if resp.Header.Get("Warning") == "" {
		t.Fatal("stale response missing its Warning header")
	}
	if !bytes.Equal(fresh, stale) {
		t.Fatalf("stale body diverges from fresh:\n%s\nvs\n%s", stale, fresh)
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

// TestDiskFullJobRunsDegradedThenHeals is the end-to-end outage cycle:
// with every durable write refused (ENOSPC), a submitted job still runs
// to done with a result byte-identical to a healthy run, the outage is
// visible on the job, /readyz (still 200 — restarting would lose the
// in-memory snapshots), and /v1/metrics; once the disk returns, the
// server's heal loop flushes the stash and every surface recovers.
func TestDiskFullJobRunsDegradedThenHeals(t *testing.T) {
	leakcheck.Check(t)
	jobBody := `{"kind": "uncertainty", "uncertainty": {"replicates": 12, "seed": 11, "corpus_seed": 11}}`

	// Healthy reference run on its own store.
	refSrv := newTestServer(t, Options{JobsDir: t.TempDir()})
	refTS := httptest.NewServer(refSrv.Handler())
	refJob := waitForJob(t, refTS.URL, submitJob(t, refTS.URL, jobBody), terminal)
	refTS.Close()
	if refJob.State != jobDone {
		t.Fatalf("reference job: %+v", refJob)
	}

	s := newTestServer(t, Options{JobsDir: t.TempDir()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// Wait out recovery before arming, so the startup scan is not the
	// thing that trips the fault.
	if j := waitForReadyz(t, ts.URL, func(body []byte) bool { return bytes.Contains(body, []byte("ready")) }); j == nil {
		t.Fatal("server never became ready")
	}

	faultinject.Enable(faultinject.New(1).Set(faultinject.SiteFSWrite, faultinject.Rule{
		Mode: faultinject.ModeError, Every: 1, Err: syscall.ENOSPC,
	}))
	defer faultinject.Disable()

	id := submitJob(t, ts.URL, jobBody)
	j := waitForJob(t, ts.URL, id, terminal)
	if j.State != jobDone {
		t.Fatalf("disk-full job did not complete: %+v", j)
	}
	if j.Degraded != "disk" {
		t.Fatalf("job degraded = %q, want disk", j.Degraded)
	}
	var got, want any
	if err := json.Unmarshal(j.Result, &got); err != nil {
		t.Fatalf("result %s: %v", j.Result, err)
	}
	if err := json.Unmarshal(refJob.Result, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("disk-full result diverges from healthy run:\n%s\nvs\n%s", j.Result, refJob.Result)
	}

	// The outage is visible everywhere while the disk is down.
	if status, body := get(t, ts.URL+"/readyz"); status != http.StatusOK || !bytes.Contains(body, []byte(`"degraded": "disk"`)) {
		t.Fatalf("readyz during outage: %d %s", status, body)
	}
	_, metricsBody := get(t, ts.URL+"/v1/metrics")
	var m struct {
		Resources struct {
			DiskDegraded bool  `json:"disk_degraded"`
			MemSnapshots int64 `json:"disk_mem_snapshots"`
		} `json:"resources"`
	}
	if err := json.Unmarshal(metricsBody, &m); err != nil {
		t.Fatal(err)
	}
	if !m.Resources.DiskDegraded || m.Resources.MemSnapshots < 1 {
		t.Fatalf("metrics do not show the outage: %+v", m.Resources)
	}

	// Disk returns: the heal loop flushes the stash within a few ticks.
	faultinject.Disable()
	if b := waitForReadyz(t, ts.URL, func(body []byte) bool { return !bytes.Contains(body, []byte("degraded")) }); b == nil {
		t.Fatal("readyz never recovered after the disk healed")
	}
	// The stashed done record is now durable on disk and the job view is
	// clean.
	head, res := lastRecord(t, s.jobs.store.Dir(), id)
	if head.State != jobDone {
		t.Fatalf("healed record on disk: state %q", head.State)
	}
	var onDisk any
	if err := json.Unmarshal(res, &onDisk); err != nil {
		t.Fatalf("healed result %s: %v", res, err)
	}
	if !reflect.DeepEqual(onDisk, got) {
		t.Fatalf("healed disk result diverges from served result:\n%s\nvs\n%s", res, j.Result)
	}
	if after := waitForJob(t, ts.URL, id, func(v jobJSON) bool { return v.Degraded == "" }); after.Degraded != "" {
		t.Fatalf("job still marked degraded after heal: %+v", after)
	}
}

// waitForReadyz polls /readyz until pred accepts the body (10s bound),
// returning the last body or nil on timeout.
func waitForReadyz(t *testing.T, base string, pred func([]byte) bool) []byte {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, body := get(t, base+"/readyz"); pred(body) {
			return body
		}
		time.Sleep(25 * time.Millisecond)
	}
	return nil
}
