package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"accelwall/internal/checkpoint"
	"accelwall/internal/core"
	"accelwall/internal/faultinject"
	"accelwall/internal/leakcheck"
	"accelwall/internal/montecarlo"
)

// waitForJob polls GET /v1/jobs/{id} until pred is satisfied, returning
// the last observed view.
func waitForJob(t *testing.T, base, id string, pred func(jobJSON) bool) jobJSON {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		status, body := get(t, base+"/v1/jobs/"+id)
		if status != http.StatusOK {
			t.Fatalf("GET job %s: %d %s", id, status, body)
		}
		var j jobJSON
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatalf("job body %s: %v", body, err)
		}
		if pred(j) {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never satisfied predicate; last state %+v", id, j)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func terminal(j jobJSON) bool { return j.State == jobDone || j.State == jobFailed }

// submitJob posts a job body and returns the assigned id.
func submitJob(t *testing.T, base, body string) string {
	t.Helper()
	status, resp := post(t, base+"/v1/jobs", body)
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", status, resp)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(resp, &out); err != nil || out.ID == "" {
		t.Fatalf("submit response %s: %v", resp, err)
	}
	return out.ID
}

// TestJobsDisabled: without a jobs directory the endpoints answer 404
// with the JSON envelope, and readiness does not depend on them.
func TestJobsDisabled(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, Options{}).Handler())
	defer ts.Close()
	if status, body := post(t, ts.URL+"/v1/jobs", `{"kind":"uncertainty"}`); status != http.StatusNotFound || !bytes.Contains(body, []byte("disabled")) {
		t.Fatalf("submit on disabled jobs: %d %s", status, body)
	}
	if status, _ := get(t, ts.URL+"/v1/jobs"); status != http.StatusNotFound {
		t.Fatalf("list on disabled jobs: want 404, got %d", status)
	}
	if status, body := get(t, ts.URL+"/readyz"); status != http.StatusOK || !bytes.Contains(body, []byte("ready")) {
		t.Fatalf("readyz: %d %s", status, body)
	}
}

// TestJobUncertaintyLifecycle: submit → pending/running → done, with the
// result byte-equal (as JSON values) to a direct engine run of the same
// configuration, and the bookkeeping (list, metrics, files) consistent.
func TestJobUncertaintyLifecycle(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	s := newTestServer(t, Options{JobsDir: dir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"kind": "uncertainty", "uncertainty": {"replicates": 24, "seed": 7, "corpus_seed": 7}}`
	id := submitJob(t, ts.URL, body)
	j := waitForJob(t, ts.URL, id, terminal)
	if j.State != jobDone {
		t.Fatalf("job failed: %+v", j)
	}
	if j.ProgressDone != 24 || j.ProgressTotal != 24 {
		t.Fatalf("progress %d/%d, want 24/24", j.ProgressDone, j.ProgressTotal)
	}
	if j.Resumed != 0 {
		t.Fatalf("cold job reports resumed=%d", j.Resumed)
	}

	res, err := montecarlo.RunCheckpointed(context.Background(), montecarlo.Config{Replicates: 24, Seed: 7, CorpusSeed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(core.NewUncertaintyJSON(res))
	if err != nil {
		t.Fatal(err)
	}
	var got, ref any
	if err := json.Unmarshal(j.Result, &got); err != nil {
		t.Fatalf("result %s: %v", j.Result, err)
	}
	if err := json.Unmarshal(want, &ref); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("job result diverges from direct run:\n%s\nvs\n%s", j.Result, want)
	}

	// The list shows the job without carrying the payload.
	status, listBody := get(t, ts.URL+"/v1/jobs")
	if status != http.StatusOK {
		t.Fatalf("list: %d %s", status, listBody)
	}
	var list struct {
		Jobs []jobJSON `json:"jobs"`
	}
	if err := json.Unmarshal(listBody, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != id || list.Jobs[0].Result != nil {
		t.Fatalf("list: %s", listBody)
	}

	if got := s.metrics.JobsSubmitted.Value(); got != 1 {
		t.Fatalf("jobs submitted = %d, want 1", got)
	}
	if got := s.metrics.JobsCompleted.Value(); got != 1 {
		t.Fatalf("jobs completed = %d, want 1", got)
	}
	// A finished job is one file, whose newest record holds the result.
	if files := jobFiles(t, dir); !reflect.DeepEqual(files, []string{id + ".job.ckpt"}) {
		t.Fatalf("jobs directory holds %v, want only %s.job.ckpt", files, id)
	}
	m, payload := lastRecord(t, dir, id)
	var onDisk any
	if err := json.Unmarshal(payload, &onDisk); err != nil || m.State != jobDone || !reflect.DeepEqual(onDisk, got) {
		t.Fatalf("newest record: state %q, payload %.200s", m.State, payload)
	}
}

// jobFiles lists the regular files in a jobs directory.
func jobFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range ents {
		if !e.IsDir() {
			files = append(files, e.Name())
		}
	}
	return files
}

// lastRecord decodes the newest intact record of a job's log.
func lastRecord(t *testing.T, dir, id string) (jobManifest, []byte) {
	t.Helper()
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := store.ReadLast(logName(id))
	if err != nil {
		t.Fatalf("job log %s: %v", id, err)
	}
	m, payload, err := decodeRecord(rec)
	if err != nil {
		t.Fatalf("job log %s: %v", id, err)
	}
	return m, payload
}

// TestJobSweepLifecycle: a grid sweep job completes and matches the
// synchronous endpoint's evaluation of the same grid.
func TestJobSweepLifecycle(t *testing.T) {
	leakcheck.Check(t)
	s := newTestServer(t, Options{JobsDir: t.TempDir()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	grid := `{"workload": "RED", "objective": "efficiency", "include_points": true,
		"grid": {"nodes": [45, 32], "partitions": [1, 2], "simplifications": [1], "fusion": [false]}}`
	id := submitJob(t, ts.URL, `{"kind": "sweep", "sweep": `+grid+`}`)
	j := waitForJob(t, ts.URL, id, terminal)
	if j.State != jobDone {
		t.Fatalf("sweep job failed: %+v", j)
	}

	status, syncBody := post(t, ts.URL+"/v1/sweep", grid)
	if status != http.StatusOK {
		t.Fatalf("sync sweep: %d %s", status, syncBody)
	}
	var got, ref map[string]any
	if err := json.Unmarshal(j.Result, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(syncBody, &ref); err != nil {
		t.Fatal(err)
	}
	// cached_points is engine-cache telemetry the job path does not have;
	// every model output must agree exactly.
	for _, key := range []string{"evaluated", "points", "best", "frontier", "workload", "objective"} {
		if !reflect.DeepEqual(got[key], ref[key]) {
			t.Fatalf("job/sync sweep diverge on %q:\n%v\nvs\n%v", key, got[key], ref[key])
		}
	}
	if got["evaluated"].(float64) != 4 {
		t.Fatalf("evaluated %v, want 4", got["evaluated"])
	}
}

// TestJobCrashRecoveryResume is the headline robustness contract: a
// daemon interrupted mid-job re-lists the job on restart, resumes it from
// the last durable snapshot instead of starting over, and finishes with
// output identical to an uninterrupted run.
func TestJobCrashRecoveryResume(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	s1, err := New(Options{JobsDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())

	// Single worker + cadence 1 makes snapshots land deterministically
	// after every replicate, so there is always progress to resume.
	body := `{"kind": "uncertainty", "checkpoint_every": 1,
		"uncertainty": {"replicates": 600, "seed": 7, "corpus_seed": 7, "workers": 1}}`
	id := submitJob(t, ts1.URL, body)
	waitForJob(t, ts1.URL, id, func(j jobJSON) bool { return j.ProgressDone >= 3 })

	// "kill -9": interrupt the job subsystem without any orderly state
	// update, then drop the whole server.
	s1.Close()
	ts1.Close()
	// A crash mid-append leaves a torn tail; recovery falls back to the
	// record before it, which still holds a snapshot.
	path := filepath.Join(dir, id+".job.ckpt")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o600); err != nil {
		t.Fatal(err)
	}

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
	if got := s2.metrics.JobsResumed.Value(); got != 1 {
		t.Fatalf("jobs resumed = %d, want 1", got)
	}

	res, err := montecarlo.RunCheckpointed(context.Background(), montecarlo.Config{Replicates: 600, Seed: 7, CorpusSeed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(core.NewUncertaintyJSON(res))
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
		t.Fatal("resumed job result diverges from an uninterrupted run")
	}
}

// TestJobRecoveryColdOnCorruptSnapshot: a newest record whose snapshot
// fails to decode (intact CRC, garbage payload) falls back to a cold
// re-run instead of failing the job.
func TestJobRecoveryColdOnCorruptSnapshot(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	s1, err := New(Options{JobsDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	// Large enough that the run is still in flight — its newest record a
	// snapshot — when the server is torn down below.
	body := `{"kind": "uncertainty", "checkpoint_every": 1,
		"uncertainty": {"replicates": 600, "seed": 7, "corpus_seed": 7, "workers": 1}}`
	id := submitJob(t, ts1.URL, body)
	waitForJob(t, ts1.URL, id, func(j jobJSON) bool { return j.ProgressDone >= 3 })
	s1.Close()
	ts1.Close()

	// Append a record whose manifest is intact but whose snapshot has
	// every byte flipped: the log reads fine, the engine rejects the
	// snapshot, and the run starts cold.
	m, snapshot := lastRecord(t, dir, id)
	if m.State != jobRunning || len(snapshot) == 0 {
		t.Fatalf("newest record before the restart: state %q, %d snapshot bytes", m.State, len(snapshot))
	}
	for i := range snapshot {
		snapshot[i] ^= 0xff
	}
	manifest, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	log, err := store.OpenLog(logName(id))
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Save(encodeRecord(manifest, snapshot)); err != nil {
		t.Fatal(err)
	}
	log.Close()

	s2, err := New(Options{JobsDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	j := waitForJob(t, ts2.URL, id, terminal)
	if j.State != jobDone {
		t.Fatalf("job should complete cold after snapshot corruption: %+v", j)
	}
	if j.Resumed != 0 {
		t.Fatalf("corrupt snapshot cannot be resumed, yet resumed=%d", j.Resumed)
	}
}

// TestJobValidation: every malformed submission is a 400 with the JSON
// envelope, before anything is persisted.
func TestJobValidation(t *testing.T) {
	dir := t.TempDir()
	ts := httptest.NewServer(newTestServer(t, Options{JobsDir: dir}).Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"unknown kind":        `{"kind": "nope"}`,
		"missing kind":        `{}`,
		"mixed bodies":        `{"kind": "uncertainty", "sweep": {"workload": "RED", "preset": "reduced"}}`,
		"sweep without body":  `{"kind": "sweep"}`,
		"sweep with designs":  `{"kind": "sweep", "sweep": {"workload": "RED", "designs": [{"node_nm": 45, "partition": 1, "simplification": 1}]}}`,
		"sweep without grid":  `{"kind": "sweep", "sweep": {"workload": "RED"}}`,
		"unknown workload":    `{"kind": "sweep", "sweep": {"workload": "NOPE", "preset": "reduced"}}`,
		"grid and preset":     `{"kind": "sweep", "sweep": {"workload": "RED", "preset": "reduced", "grid": {"nodes": [45], "partitions": [1], "simplifications": [1], "fusion": [false]}}}`,
		"replicates over cap": fmt.Sprintf(`{"kind": "uncertainty", "uncertainty": {"replicates": %d}}`, maxServedReplicates+1),
		"NaN confidence":      `{"kind": "uncertainty", "uncertainty": {"confidence": 1e999}}`,
	} {
		status, resp := post(t, ts.URL+"/v1/jobs", body)
		if status != http.StatusBadRequest || !bytes.Contains(resp, []byte(`"error"`)) {
			t.Errorf("%s: want 400 envelope, got %d %s", name, status, resp)
		}
	}
	// Nothing may have been persisted by rejected submissions.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("rejected submissions left files behind: %v", ents)
	}
}

// TestJobTableFullAndEviction: at MaxJobs the server rejects submissions
// while every job is live (429) and evicts the oldest finished job
// (files included) once one is terminal.
func TestJobTableFullAndEviction(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	s := newTestServer(t, Options{JobsDir: dir, MaxJobs: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A finished job at the cap is evicted — files and all — to admit the
	// next submission.
	id1 := submitJob(t, ts.URL, `{"kind": "uncertainty", "uncertainty": {"replicates": 12, "workers": 1}}`)
	waitForJob(t, ts.URL, id1, terminal)
	id2 := submitJob(t, ts.URL, `{"kind": "uncertainty", "uncertainty": {"replicates": 3000, "workers": 1}}`)
	if id2 == id1 {
		t.Fatalf("second job reused id %s", id1)
	}
	if _, err := os.Stat(filepath.Join(dir, id1+".job.ckpt")); !os.IsNotExist(err) {
		t.Fatalf("evicted job %s still has a log: %v", id1, err)
	}
	status, listBody := get(t, ts.URL+"/v1/jobs")
	if status != http.StatusOK || !bytes.Contains(listBody, []byte(id2)) || bytes.Contains(listBody, []byte(id1)) {
		t.Fatalf("list after eviction: %d %s", status, listBody)
	}

	// With the big job still live, the full table sheds the next
	// submission with 429; the interrupt on server close leaves it
	// resumable rather than waiting it out.
	status, resp := post(t, ts.URL+"/v1/jobs", `{"kind": "uncertainty", "uncertainty": {"replicates": 12}}`)
	if status != http.StatusTooManyRequests || !bytes.Contains(resp, []byte(`"error"`)) {
		t.Fatalf("submit over a full live table: want 429 envelope, got %d %s", status, resp)
	}
}

// TestEvictionDoesNotBlockReads: evicting a finished job to admit a new
// one removes its files after releasing the job table, so a GET of
// another job is not held behind the unlinks and the directory fsync.
func TestEvictionDoesNotBlockReads(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Options{JobsDir: dir, MaxJobs: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	small := `{"kind": "uncertainty", "uncertainty": {"replicates": 12, "workers": 1}}`
	id1 := submitJob(t, ts.URL, small)
	waitForJob(t, ts.URL, id1, terminal)
	id2 := submitJob(t, ts.URL, small)
	waitForJob(t, ts.URL, id2, terminal)

	// Every fsync now stalls; the first one the at-cap submit reaches is
	// the eviction's directory fsync.
	const delay = time.Second
	inj := faultinject.New(1).Set(faultinject.SiteFSSync, faultinject.Rule{Mode: faultinject.ModeDelay, Every: 1, Delay: delay})
	faultinject.Enable(inj)
	defer faultinject.Disable()
	submitted := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(small))
		if err != nil {
			submitted <- 0
			return
		}
		resp.Body.Close()
		submitted <- resp.StatusCode
	}()
	for inj.Hits(faultinject.SiteFSSync) == 0 {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	status, body := get(t, ts.URL+"/v1/jobs/"+id2)
	elapsed := time.Since(start)
	faultinject.Disable()
	if status != http.StatusOK {
		t.Fatalf("GET %s during eviction: %d %s", id2, status, body)
	}
	if elapsed > delay/2 {
		t.Fatalf("GET %s took %v while the eviction's fsync stalled for %v", id2, elapsed, delay)
	}
	if code := <-submitted; code != http.StatusAccepted {
		t.Fatalf("at-cap submit: status %d, want 202", code)
	}
	if _, err := os.Stat(filepath.Join(dir, id1+".job.ckpt")); !os.IsNotExist(err) {
		t.Fatalf("evicted job %s still has a log: %v", id1, err)
	}
}

// TestJobsUnwritableDir: the server refuses to start when the jobs
// directory cannot be created, naming the path. The parent is a regular
// file so the failure holds even when the tests run as root.
func TestJobsUnwritableDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o600); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(file, "jobs")
	if _, err := New(Options{JobsDir: bad}); err == nil {
		t.Fatal("New accepted a jobs dir under a regular file")
	} else if !bytes.Contains([]byte(err.Error()), []byte("jobs directory")) {
		t.Fatalf("error should name the jobs directory: %v", err)
	}
}

// TestReadyzStates: ready when serving, 503 while job recovery is
// pending, 503 once draining.
func TestReadyzStates(t *testing.T) {
	s := newTestServer(t, Options{JobsDir: t.TempDir()})

	// Wait out the (fast) recovery scan so the swap below is race-free.
	deadline := time.Now().Add(10 * time.Second)
	for !s.jobs.ready() {
		if time.Now().After(deadline) {
			t.Fatal("recovery never finished")
		}
		time.Sleep(time.Millisecond)
	}

	probe := func() (int, string) {
		rec := httptest.NewRecorder()
		s.handleReadyz(rec, httptest.NewRequest("GET", "/readyz", nil))
		return rec.Code, rec.Body.String()
	}
	if code, body := probe(); code != http.StatusOK {
		t.Fatalf("ready server: %d %s", code, body)
	}

	// Recovery still pending → not ready.
	done := s.jobs.recovered
	s.jobs.recovered = make(chan struct{})
	if code, body := probe(); code != http.StatusServiceUnavailable || !bytes.Contains([]byte(body), []byte("recovering")) {
		t.Fatalf("recovering server: %d %s", code, body)
	}
	s.jobs.recovered = done

	// Draining → not ready, while liveness stays green.
	s.draining.Store(true)
	if code, body := probe(); code != http.StatusServiceUnavailable || !bytes.Contains([]byte(body), []byte("draining")) {
		t.Fatalf("draining server: %d %s", code, body)
	}
	rec := httptest.NewRecorder()
	s.handleHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz must stay 200 while draining, got %d", rec.Code)
	}
}

// TestJobRejectsWhatSyncRejects holds the two front ends to one check:
// every sweep, uncertainty and search body the synchronous endpoint
// answers 400 is a 400 on /v1/jobs too, before any manifest is written. Jobs may reject more (design lists are sync-only),
// never less.
func TestJobRejectsWhatSyncRejects(t *testing.T) {
	dir := t.TempDir()
	ts := httptest.NewServer(newTestServer(t, Options{JobsDir: dir, MaxGridPoints: 1000}).Handler())
	defer ts.Close()
	tinyGrid := `"grid": {"nodes": [45], "partitions": [1], "simplifications": [1], "fusion": [false]}`
	for kind, bodies := range map[string][]string{
		"sweep": {
			`{"workload": "FFT", "preset": "reduced", "objective": "bogus"}`,
			`{"preset": "reduced"}`,
			`{"workload": "NOPE", "preset": "reduced"}`,
			`{"workload": "FFT@bogus", "preset": "reduced"}`,
			`{"workload": "FFT"}`,
			`{"workload": "FFT", "preset": "huge"}`,
			`{"workload": "FFT", "preset": "reduced", ` + tinyGrid + `}`,
			`{"workload": "FFT", "preset": "full"}`,
			`{"workload": "FFT", "preset": "reduced", "workers": -1}`,
			`{"workload": "FFT", "preset": "reduced", "size": -1}`,
			`{"workload": "FFT", "grid": {"nodes": [], "partitions": [1], "simplifications": [1], "fusion": [false]}}`,
			`{"workload": "FFT", "grid": {"nodes": [45], "partitions": [3000000], "simplifications": [1], "fusion": [false]}}`,
			`{"workload": "FFT", "grid": {"nodes": [1e308], "partitions": [1], "simplifications": [1], "fusion": [false]}}`,
			`{"workload": "FFT", "preset": "reduced", "bogus": 1}`,
		},
		"uncertainty": {
			`{"replicates": -1}`,
			fmt.Sprintf(`{"replicates": %d}`, maxServedReplicates+1),
			`{"confidence": 1.5}`,
			`{"cmos_jitter": 2}`,
			`{"workers": -2}`,
			`{"bogus": 1}`,
		},
		"search": {
			`{"population": 12}`,
			`{"workload": "NOPE"}`,
			`{"workload": "FFT", "strategy": "annealing"}`,
			`{"workload": "FFT", "objectives": ["speed"]}`,
			`{"workload": "FFT", "population": 1000, "generations": 1000}`,
			`{"workload": "FFT", "seed": -1}`,
			`{"workload": "FFT", "max_power_w": -1}`,
		},
	} {
		for _, body := range bodies {
			if status, resp := post(t, ts.URL+"/v1/"+kind, body); status != http.StatusBadRequest {
				t.Fatalf("POST /v1/%s %s: want 400, got %d %s", kind, body, status, resp)
			}
			job := fmt.Sprintf(`{"kind": %q, %q: %s}`, kind, kind, body)
			if status, resp := post(t, ts.URL+"/v1/jobs", job); status != http.StatusBadRequest {
				t.Errorf("POST /v1/jobs %s: sync answers 400, job answered %d %s", job, status, resp)
			}
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.IsDir() {
			t.Errorf("rejected submissions persisted %s", e.Name())
		}
	}
}

// TestJobUsesPrivateEngine pins why durable jobs build their own engine
// instead of sharing the server's memo: a finished sweep or search job
// leaves the engine cache's hits, misses and compiles untouched, so no
// warmed engine stays resident on a job's behalf.
func TestJobUsesPrivateEngine(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, Options{JobsDir: t.TempDir()}).Handler())
	defer ts.Close()
	engineCache := func() map[string]int64 {
		status, body := get(t, ts.URL+"/v1/metrics")
		if status != http.StatusOK {
			t.Fatalf("metrics: %d %s", status, body)
		}
		var m struct {
			EngineCache map[string]int64 `json:"engine_cache"`
		}
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		return m.EngineCache
	}
	before := engineCache()
	for _, body := range []string{
		`{"kind": "sweep", "sweep": {"workload": "FFT", "preset": "reduced"}}`,
		`{"kind": "search", "search": {"workload": "FFT", "population": 12, "generations": 3}}`,
	} {
		id := submitJob(t, ts.URL, body)
		if j := waitForJob(t, ts.URL, id, terminal); j.State != jobDone {
			t.Fatalf("%s: %+v", body, j)
		}
	}
	after := engineCache()
	for _, k := range []string{"hits", "misses", "compiles"} {
		if _, ok := after[k]; !ok {
			t.Fatalf("metrics engine_cache lacks %q: %v", k, after)
		}
		if before[k] != after[k] {
			t.Errorf("engine_cache.%s moved %d -> %d: a job touched the shared engine memo", k, before[k], after[k])
		}
	}
}

// TestRecoveredJobsResolveTheirBodies: a manifest persists only the wire
// body, so a restarted server resolves it again. A sweep job that was
// still queued when the process died runs its grid, and finished sweep
// and search jobs report complete progress.
func TestRecoveredJobsResolveTheirBodies(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	s1, err := New(Options{JobsDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	sweepJob := `{"kind": "sweep", "sweep": {"workload": "RED",
		"grid": {"nodes": [45, 32], "partitions": [1, 2], "simplifications": [1], "fusion": [false]}}}`
	units := map[string]int{ // job id -> work units: grid points, or generations + 1
		submitJob(t, ts1.URL, sweepJob): 4,
		submitJob(t, ts1.URL, `{"kind": "search", "search": {"workload": "FFT", "population": 12, "generations": 3}}`): 4,
	}
	for id := range units {
		if j := waitForJob(t, ts1.URL, id, terminal); j.State != jobDone {
			t.Fatalf("job %s failed: %+v", id, j)
		}
	}
	// One job runs at a time: with a long run holding the slot, the next
	// sweep is still queued when the process dies.
	blocker := submitJob(t, ts1.URL, `{"kind": "uncertainty", "uncertainty": {"replicates": 3000, "workers": 1}}`)
	waitForJob(t, ts1.URL, blocker, func(j jobJSON) bool { return j.State == jobRunning })
	queued := submitJob(t, ts1.URL, sweepJob)
	units[queued] = 4
	s1.Close()
	ts1.Close()

	s2, err := New(Options{JobsDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	for id, n := range units {
		j := waitForJob(t, ts2.URL, id, terminal)
		if j.State != jobDone {
			t.Fatalf("job %s after restart: %+v", id, j)
		}
		if j.ProgressDone != n || j.ProgressTotal != n {
			t.Errorf("job %s after restart: progress %d/%d, want %d/%d", id, j.ProgressDone, j.ProgressTotal, n, n)
		}
	}
	var out struct {
		Evaluated int `json:"evaluated"`
	}
	if j := waitForJob(t, ts2.URL, queued, terminal); json.Unmarshal(j.Result, &out) != nil || out.Evaluated != 4 {
		t.Fatalf("recovered sweep job result %s, want 4 evaluated points", j.Result)
	}
}

// TestJobDiskOpsPerJob pins the disk operations one durable job costs
// beyond its snapshots, counted at the faultinject fs seams with rules
// that never fire: the submit, the eviction it makes room with, and the
// finish: the submit record's atomic write (write, fsync, rename,
// directory fsync), the eviction's directory fsync and the done record's
// append (write, fsync). Snapshots cost one write and one fsync each, and how many a run
// takes depends on worker order, so they are subtracted.
func TestJobDiskOpsPerJob(t *testing.T) {
	leakcheck.Check(t)
	s := newTestServer(t, Options{JobsDir: t.TempDir(), MaxJobs: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	inj := faultinject.New(1)
	sites := []string{faultinject.SiteFSSync, faultinject.SiteFSRename, faultinject.SiteFSWrite}
	for _, site := range sites {
		inj.Set(site, faultinject.Rule{})
	}
	faultinject.Enable(inj)
	defer faultinject.Disable()

	// run submits one job and returns the seam hits it cost, read once
	// the job's last write has landed: the completion counter moves after
	// every write finish makes.
	run := func(body string) (fsync, rename, write int64) {
		t.Helper()
		completed := s.metrics.JobsCompleted.Value()
		snaps := s.metrics.JobSnapshots.Value()
		var before [3]uint64
		for i, site := range sites {
			before[i] = inj.Hits(site)
		}
		id := submitJob(t, ts.URL, body)
		if j := waitForJob(t, ts.URL, id, terminal); j.State != jobDone {
			t.Fatalf("%s: %+v", body, j)
		}
		for deadline := time.Now().Add(10 * time.Second); s.metrics.JobsCompleted.Value() == completed; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: completion never counted", body)
			}
		}
		var d [3]int64
		for i, site := range sites {
			d[i] = int64(inj.Hits(site) - before[i])
		}
		snapshots := s.metrics.JobSnapshots.Value() - snaps
		return d[0] - snapshots, d[1], d[2] - snapshots
	}

	// A first job fills the one-slot table, so every measured submit
	// evicts its predecessor.
	run(`{"kind": "uncertainty", "uncertainty": {"replicates": 10, "seed": 3}}`)
	for _, body := range []string{
		`{"kind": "uncertainty", "checkpoint_every": 4, "uncertainty": {"replicates": 16, "seed": 5}}`,
		`{"kind": "sweep", "checkpoint_every": 64, "sweep": {"workload": "FFT", "preset": "reduced"}}`,
		`{"kind": "search", "checkpoint_every": 2, "search": {"workload": "FFT", "population": 24, "generations": 8, "seed": 5}}`,
	} {
		fsync, rename, write := run(body)
		t.Logf("%s: fsync-snapshots=%d rename=%d write-snapshots=%d", body, fsync, rename, write)
		if fsync != 4 || rename != 1 || write != 2 {
			t.Errorf("%s: fsync-snapshots=%d rename=%d write-snapshots=%d, want 4/1/2", body, fsync, rename, write)
		}
	}
}

// TestJobsRefuseLegacyLayout: a jobs directory holding a job in the old
// three-file layout is refused at startup with a named error that names
// the file, rather than read or silently ignored.
func TestJobsRefuseLegacyLayout(t *testing.T) {
	dir := t.TempDir()
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Write("job-000001.manifest", []byte(`{"id": "job-000001", "kind": "uncertainty", "state": "pending", "request": {"kind": "uncertainty"}}`)); err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{JobsDir: dir})
	if err == nil {
		s.Close()
		t.Fatal("New accepted a jobs directory in the old layout")
	}
	if !errors.Is(err, ErrLegacyJobLayout) || !strings.Contains(err.Error(), "job-000001.manifest.ckpt") {
		t.Fatalf("error %v: want ErrLegacyJobLayout naming job-000001.manifest.ckpt", err)
	}
}

// TestJobSubmitDrainingRetryAfter: a submission refused because the
// server is draining answers 503 with Retry-After, like every other 503.
func TestJobSubmitDrainingRetryAfter(t *testing.T) {
	s := newTestServer(t, Options{JobsDir: t.TempDir()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.jobs.cancel()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"kind": "uncertainty"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("submit while draining: %d, Retry-After %q; want 503 with Retry-After", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// waitLine signals once a server log line contains want.
type waitLine struct {
	want string
	seen chan struct{}
	once sync.Once
}

func (w *waitLine) Write(b []byte) (int, error) {
	if strings.Contains(string(b), w.want) {
		w.once.Do(func() { close(w.seen) })
	}
	return len(b), nil
}

// TestJobTerminalRecordWaitsForDisk: a job whose compute finishes on a
// full disk stays running, on GET and on its SSE stream, until its done
// record lands, and a submit meanwhile gets 503 with Retry-After. Once
// space returns the job turns done, and the done record is already on
// disk when the stream's terminal frame arrives.
func TestJobTerminalRecordWaitsForDisk(t *testing.T) {
	leakcheck.Check(t)
	waiting := &waitLine{want: "disk full, done record waiting", seen: make(chan struct{})}
	s := newTestServer(t, Options{JobsDir: t.TempDir(), Logger: log.New(waiting, "", 0)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// Slowed replicates keep the job computing until the disk is full.
	inj := faultinject.New(1).Set(montecarlo.SiteReplicate, faultinject.Rule{
		Mode: faultinject.ModeDelay, Every: 1, Delay: 10 * time.Millisecond,
	})
	faultinject.Enable(inj)
	defer faultinject.Disable()
	body := `{"kind": "uncertainty", "uncertainty": {"replicates": 10, "seed": 3, "workers": 1}}`
	id := submitJob(t, ts.URL, body)
	inj.Set(faultinject.SiteFSWrite, faultinject.Rule{Mode: faultinject.ModeError, Every: 1, Err: syscall.ENOSPC})

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := make(chan jobJSON, 64) // room for every frame one short job sends, so the reader never blocks
	go func() {
		defer close(frames)
		for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
			var f jobJSON
			if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok && json.Unmarshal([]byte(data), &f) == nil {
				frames <- f
			}
		}
	}()
	select {
	case <-waiting.seen:
	case <-time.After(60 * time.Second):
		t.Fatal("the done record never hit the full disk")
	}
	time.Sleep(3 * diskRetry) // a few retries the disk refuses
	if j := waitForJob(t, ts.URL, id, func(jobJSON) bool { return true }); j.State != jobRunning || j.Result != nil || j.ProgressDone != j.ProgressTotal {
		t.Fatalf("job whose done record waits for the disk: state %s, progress %d/%d, %d result bytes; want running, all work done, no result",
			j.State, j.ProgressDone, j.ProgressTotal, len(j.Result))
	}
	for pending := len(frames); pending > 0; pending-- {
		if f := <-frames; terminal(f) {
			t.Fatalf("SSE sent a terminal frame %+v while the done record waits for the disk", f)
		}
	}
	sub, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(sub.Body)
	sub.Body.Close()
	if sub.StatusCode != http.StatusServiceUnavailable || sub.Header.Get("Retry-After") == "" {
		t.Fatalf("submit on a full disk: %d %s, Retry-After %q; want 503 with Retry-After", sub.StatusCode, out, sub.Header.Get("Retry-After"))
	}

	faultinject.Disable()
	var last jobJSON
	for f := range frames {
		if last = f; terminal(f) {
			rec, err := s.jobs.store.ReadLast(logName(id))
			if m, _, derr := decodeRecord(rec); err != nil || derr != nil || m.State != jobDone {
				t.Fatalf("terminal frame %+v arrived before the done record landed: disk holds %q (%v, %v)", f, m.State, err, derr)
			}
		}
	}
	if last.State != jobDone {
		t.Fatalf("stream ended on %+v; want done", last)
	}
	if j := waitForJob(t, ts.URL, id, terminal); j.State != jobDone || j.Result == nil {
		t.Fatalf("job after space returned: %+v; want done with a result", j)
	}
}

// TestJobAdoptDiskFullDeferred: a replica whose record the full disk
// refuses is not adopted, so no peer lists a done job that only memory
// holds; once space returns the same replica is adopted done.
func TestJobAdoptDiskFullDeferred(t *testing.T) {
	s := newTestServer(t, Options{JobsDir: t.TempDir()})
	rep := jobReplica{
		Owner:    "http://127.0.0.1:1",
		Manifest: json.RawMessage(`{"id": "job-p1-000001", "kind": "uncertainty", "state": "done", "created": "2026-01-01T00:00:00Z", "request": {"kind": "uncertainty", "uncertainty": {"replicates": 10, "seed": 3}}}`),
		Result:   json.RawMessage(`{"replicates": 10}`),
	}
	faultinject.Enable(faultinject.New(1).Set(faultinject.SiteFSWrite,
		faultinject.Rule{Mode: faultinject.ModeError, Every: 1, Err: syscall.ENOSPC}))
	defer faultinject.Disable()
	if j := s.jobs.adopt("job-p1-000001", rep); j != nil || s.jobs.tracked("job-p1-000001") {
		t.Fatalf("adopted a job whose record the full disk refused: %+v", j)
	}
	faultinject.Disable()
	if j := s.jobs.adopt("job-p1-000001", rep); j == nil || j.json(false).State != jobDone {
		t.Fatalf("adopt after space returned: %+v; want the done job", j)
	}
	if rec, err := s.jobs.store.ReadLast(logName("job-p1-000001")); err != nil {
		t.Fatalf("adopted job has no record on disk: %v", err)
	} else if m, _, err := decodeRecord(rec); err != nil || m.State != jobDone {
		t.Fatalf("adopted job's record: state %q, %v; want done", m.State, err)
	}
}
