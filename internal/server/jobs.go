// Durable async jobs: long computations submitted with POST /v1/jobs,
// polled with GET /v1/jobs/{id}, and persisted well enough that a daemon
// killed at any instant re-lists every job on restart and resumes
// interrupted ones from their last durable snapshot.
//
// Each job is one append-only checkpoint.Log in the jobs directory,
// <id>.job.ckpt. Every record is self-contained: the job's manifest JSON
// (id, kind, state, created, request, error) behind a u32 length, then a
// payload — empty at submit, the engine snapshot in a progress record,
// the result in a done record, empty in a failed one. A job's state is
// its newest intact record, so submit writes the first record
// atomically, the engine's snapshots append through a sink that also
// feeds the live progress counters, finishing or failing appends one
// record (the in-memory state flips only once it is durable: a full disk
// keeps the job running until the record lands), and eviction removes
// the one file. On startup the manager reads each log's
// newest record before serving readiness: finished jobs are re-listed
// with their results, and pending or running ones are re-queued with the
// record's snapshot — a snapshot that fails to decode just demotes the
// retry to a cold start.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"accelwall/internal/checkpoint"
)

// Job lifecycle states. pending and running survive a crash as "resume
// me"; done and failed are terminal.
const (
	jobPending = "pending"
	jobRunning = "running"
	jobDone    = "done"
	jobFailed  = "failed"
)

// jobRequest is the POST /v1/jobs body: which computation to run
// asynchronously, carrying the same body the synchronous endpoint
// accepts. Exactly one of the kind-specific bodies may be set.
type jobRequest struct {
	Kind        string              `json:"kind"` // uncertainty | sweep | search
	Uncertainty *uncertaintyRequest `json:"uncertainty,omitempty"`
	Sweep       *sweepRequest       `json:"sweep,omitempty"`
	Search      *searchRequest      `json:"search,omitempty"`
	// CheckpointEvery overrides the snapshot cadence in completed work
	// units — replicates, unique design points, or search steps (<= 0:
	// the engine default).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
}

// jobManifest is the JSON head of every job-log record, and the manifest
// of a replica frame.
type jobManifest struct {
	ID      string          `json:"id"`
	Kind    string          `json:"kind"`
	State   string          `json:"state"`
	Created string          `json:"created"` // RFC 3339
	Request json.RawMessage `json:"request"`
	Error   string          `json:"error,omitempty"`
}

// ErrLegacyJobLayout: the jobs directory holds files of the three-file job
// layout (<id>.manifest, <id>.progress, <id>.result) an earlier build
// wrote. They are refused, not migrated.
var ErrLegacyJobLayout = errors.New("jobs directory holds jobs in the old three-file layout")

// job is one tracked job. The immutable identity fields are set at
// submission (or recovery); everything behind mu is live state the runner
// updates and the handlers read.
type job struct {
	id      string
	req     jobRequest
	spec    kindSpec // req's body: the job's kind record
	created time.Time

	mu      sync.Mutex
	state   string
	errMsg  string
	done    int // completed work units per the newest snapshot
	total   int // work units overall (0 until known)
	resumed int // work units restored from a snapshot instead of computed
	result  json.RawMessage

	// Replication tracking (cluster mode). A single worker goroutine
	// per job drains replBody latest-wins, so snapshot pushes never
	// reorder; the repair loop re-pushes any job whose last push
	// failed or whose target moved.
	replBody   []byte // newest replica frame awaiting push (nil: drained)
	replWant   string // target of the queued frame
	replActive bool   // the push worker goroutine is running
	replPeer   string // target of the last completed push
	replOK     bool   // the last completed push landed
}

func (j *job) setProgress(done, total int) {
	j.mu.Lock()
	j.done, j.total = done, total
	j.mu.Unlock()
}

func (j *job) setState(state string) {
	j.mu.Lock()
	j.state = state
	j.mu.Unlock()
}

// jobJSON is the wire form of one job; Result rides along only on the
// single-job view.
type jobJSON struct {
	ID            string          `json:"id"`
	Kind          string          `json:"kind"`
	State         string          `json:"state"`
	Created       string          `json:"created"`
	ProgressDone  int             `json:"progress_done"`
	ProgressTotal int             `json:"progress_total"`
	Resumed       int             `json:"resumed,omitempty"`
	Error         string          `json:"error,omitempty"`
	Result        json.RawMessage `json:"result,omitempty"`
}

func (j *job) json(withResult bool) jobJSON {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := jobJSON{
		ID:            j.id,
		Kind:          j.req.Kind,
		State:         j.state,
		Created:       j.created.UTC().Format(time.RFC3339),
		ProgressDone:  j.done,
		ProgressTotal: j.total,
		Resumed:       j.resumed,
		Error:         j.errMsg,
	}
	if withResult {
		out.Result = j.result
	}
	return out
}

// jobManager owns the jobs directory and every tracked job. Jobs execute
// one at a time in submission order: each one already saturates its own
// worker pool, so running them concurrently would only oversubscribe the
// machine and slow every job down.
type jobManager struct {
	srv      *Server
	store    *checkpoint.Store
	replicas *checkpoint.Store // cluster mode: dormant copies of peers' jobs
	prefix   string            // cluster mode: per-peer id prefix ("p0-")
	max      int

	// ctx is cancelled to interrupt running jobs (drain): their engines
	// stop within one work chunk and append a final snapshot.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	sem    chan struct{} // capacity 1: the single execution slot

	// Replica pushes outlive the interrupt so a drain delivers them.
	pushCtx    context.Context
	pushCancel context.CancelFunc
	pushes     sync.WaitGroup

	recovered chan struct{} // closed once the startup recovery scan is done

	mu   sync.Mutex
	jobs map[string]*job
	seq  int
}

// newJobManager opens (creating 0700) and write-probes dir, installs the
// manager as srv.jobs, then starts the recovery scan. An unusable directory, or one holding jobs in the
// old three-file layout, fails here — at startup — with an error naming
// the path and cause.
func newJobManager(srv *Server, dir string, max int) error {
	store, err := checkpoint.Open(dir)
	if err != nil {
		return fmt.Errorf("jobs directory: %w", err)
	}
	names, err := store.List()
	if err != nil {
		return fmt.Errorf("jobs directory: %w", err)
	}
	for _, name := range names {
		switch filepath.Ext(name) {
		case ".manifest", ".progress", ".result":
			return fmt.Errorf("%w (%s); finish those jobs with the previous build", ErrLegacyJobLayout, store.Path(name))
		}
	}
	var replicas *checkpoint.Store
	var prefix string
	if srv.clusterEnabled() {
		// Peer-unique id prefixes keep independently allocated job ids
		// from colliding when jobs move between peers; the replica store
		// lives beside the jobs so recovery never scans (or runs) peers'
		// dormant copies.
		prefix = fmt.Sprintf("p%d-", srv.cluster.SelfIndex())
		replicas, err = checkpoint.Open(filepath.Join(dir, "replicas"))
		if err != nil {
			return fmt.Errorf("job replica directory: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	pushCtx, pushCancel := context.WithCancel(context.Background())
	jm := &jobManager{
		srv:        srv,
		store:      store,
		replicas:   replicas,
		prefix:     prefix,
		max:        max,
		ctx:        ctx,
		cancel:     cancel,
		pushCtx:    pushCtx,
		pushCancel: pushCancel,
		sem:        make(chan struct{}, 1),
		recovered:  make(chan struct{}),
		jobs:       make(map[string]*job),
	}
	srv.jobs = jm // recovered jobs replicate through it before New returns
	jm.wg.Add(1)
	go jm.recover(names)
	return nil
}

// ready reports whether the startup recovery scan has finished; /readyz
// stays 503 until it has, so clients never observe a partial job list.
func (jm *jobManager) ready() bool {
	select {
	case <-jm.recovered:
		return true
	default:
		return false
	}
}

// drain waits, bounded by ctx, for the job goroutines and then for the
// replica pushes they queued (none starts after them), then cancels pushes.
func (jm *jobManager) drain(ctx context.Context) error {
	defer jm.pushCancel()
	for _, wg := range []*sync.WaitGroup{&jm.wg, &jm.pushes} {
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-ctx.Done():
			return fmt.Errorf("jobs still draining: %w", ctx.Err())
		}
	}
	return nil
}

// logName maps a job id onto its store name.
func logName(id string) string { return id + ".job" }

// encodeRecord frames one job-log record: the manifest behind its u32
// length, then payload.
func encodeRecord(manifest, payload []byte) []byte {
	w := checkpoint.NewWriter(4 + len(manifest) + len(payload))
	w.U32(uint32(len(manifest)))
	w.Raw(manifest)
	w.Raw(payload)
	return w.Bytes()
}

// manifest marshals the job's durable identity in the given state.
func (j *job) manifest(state, errMsg string) ([]byte, error) {
	reqRaw, err := json.Marshal(j.req)
	if err != nil {
		return nil, err
	}
	return json.Marshal(jobManifest{
		ID:      j.id,
		Kind:    j.req.Kind,
		State:   state,
		Created: j.created.UTC().Format(time.RFC3339),
		Request: reqRaw,
		Error:   errMsg,
	})
}

// record encodes one job-log record in the given state.
func (j *job) record(state, errMsg string, payload []byte) ([]byte, error) {
	m, err := j.manifest(state, errMsg)
	if err != nil {
		return nil, err
	}
	return encodeRecord(m, payload), nil
}

// decodeRecord splits a job-log record into its manifest and payload.
func decodeRecord(rec []byte) (jobManifest, []byte, error) {
	r := checkpoint.NewReader(rec)
	raw := r.Raw(int(r.U32()))
	var m jobManifest
	if r.Bad() || json.Unmarshal(raw, &m) != nil {
		return m, nil, errors.New("malformed job record")
	}
	return m, r.Raw(r.Rest()), nil
}

// restoreJob rebuilds job id from its newest log record, returning with it
// the snapshot an interrupted job resumes from (nil: a cold start).
func restoreJob(id string, rec []byte) (*job, []byte, error) {
	m, payload, err := decodeRecord(rec)
	if err == nil && m.ID != id {
		err = fmt.Errorf("record names job %q", m.ID)
	}
	if err != nil {
		return nil, nil, err
	}
	j := &job{id: m.ID, state: m.State, errMsg: m.Error}
	if t, err := time.Parse(time.RFC3339, m.Created); err == nil {
		j.created = t
	}
	if err := json.Unmarshal(m.Request, &j.req); err != nil {
		return nil, nil, fmt.Errorf("malformed request: %v", err)
	}
	spec, err := j.req.spec()
	if err == nil {
		err = spec.resolve()
	}
	if err != nil {
		return nil, nil, err
	}
	j.spec = spec
	switch m.State {
	case jobDone:
		if !json.Valid(payload) {
			return nil, nil, errors.New("malformed job result")
		}
		j.result = payload
		j.finishProgress()
	case jobFailed:
	case jobPending, jobRunning:
		j.state = jobPending
		if len(payload) == 0 {
			return j, nil, nil
		}
		if done, total, err := spec.progress(payload); err == nil {
			j.setProgress(done, total)
		}
		return j, payload, nil
	default:
		return nil, nil, fmt.Errorf("unknown state %q", m.State)
	}
	return j, nil, nil
}

// finishProgress sets done == total on a finished job, whose record
// holds its result instead of a snapshot.
func (j *job) finishProgress() {
	_, n := j.spec.units()
	j.setProgress(n, n)
}

// recover reads each job log's newest record: terminal jobs are re-listed
// with their results, interrupted ones re-queued with their snapshot,
// oldest first since names come sorted. Runs once, in a goroutine, before
// the manager reports ready.
func (jm *jobManager) recover(names []string) {
	defer jm.wg.Done()
	defer close(jm.recovered)
	recovered, queued := 0, 0
	for _, name := range names {
		id, ok := strings.CutSuffix(name, ".job")
		if !ok {
			continue
		}
		rec, err := jm.store.ReadLast(name)
		var j *job
		var resume []byte
		if err == nil {
			j, resume, err = restoreJob(id, rec)
		}
		if err != nil {
			jm.srv.logf("jobs: skipping %s: %v", name, err)
			continue
		}
		// Adopted jobs carry another peer's prefix and never advance this
		// peer's sequence; Sscanf simply fails to match them.
		var seq int
		if _, err := fmt.Sscanf(id, "job-"+jm.prefix+"%06d", &seq); err == nil && seq > jm.seq {
			jm.seq = seq
		}
		// A survivor may have adopted the job while this peer was down;
		// running it here too would finish it twice.
		if j.state == jobPending {
			if _, ok := jm.srv.remoteJob(jm.ctx, id); ok {
				jm.srv.logf("jobs: %s: adopted by another peer while this one was down; dropping the local copy", id)
				jm.store.Remove(name) //nolint:errcheck // best effort: a leftover log is re-checked at the next start
				continue
			}
		}
		// The repair loop's tracked and adoption read the table meanwhile.
		jm.mu.Lock()
		jm.jobs[id] = j
		jm.mu.Unlock()
		recovered++
		if resume != nil {
			jm.srv.metrics.JobsResumed.Add(1)
		}
		if j.state == jobPending {
			queued++
			jm.run(j, resume)
		}
	}
	if recovered > 0 {
		jm.srv.logf("jobs: recovered %d job(s), %d to resume", recovered, queued)
	}
}

// submit validates, persists, and enqueues a new job, returning it or an
// HTTP status + error for the handler to relay.
func (jm *jobManager) submit(req jobRequest) (*job, int, error) {
	spec, err := req.spec()
	if err == nil {
		err = spec.check(jm.srv, true)
	}
	if err != nil {
		return nil, http.StatusBadRequest, err
	}

	<-jm.recovered // ids are allocated only once recovery has fixed the sequence
	jm.mu.Lock()
	if jm.ctx.Err() != nil { // draining
		jm.mu.Unlock()
		return nil, http.StatusServiceUnavailable, errors.New("server is draining; job not accepted")
	}
	var evicted string
	if len(jm.jobs) >= jm.max {
		if evicted = jm.evictTerminalLocked(); evicted == "" {
			jm.mu.Unlock()
			return nil, http.StatusTooManyRequests,
				fmt.Errorf("job table full (%d jobs, none finished); retry after one completes", jm.max)
		}
	}
	jm.seq++
	id := fmt.Sprintf("job-%s%06d", jm.prefix, jm.seq)
	total, _ := spec.units()
	j := &job{id: id, req: req, spec: spec, created: time.Now(), state: jobPending, total: total}
	jm.mu.Unlock()
	if evicted != "" {
		// The victim left the table under the lock; its log goes after
		// unlocking, so reads and polls never wait on the unlink and the
		// directory fsync.
		jm.store.Remove(logName(evicted)) //nolint:errcheck // eviction is best effort
	}

	rec, err := j.record(jobPending, "", nil)
	if err == nil {
		err = jm.store.Write(logName(id), rec)
	}
	switch {
	case checkpoint.IsDiskFull(err):
		return nil, http.StatusServiceUnavailable, fmt.Errorf("disk full; job not accepted: %w", err)
	case err != nil:
		return nil, http.StatusInternalServerError, fmt.Errorf("persisting job: %w", err)
	}
	jm.mu.Lock()
	jm.jobs[id] = j
	jm.mu.Unlock()
	jm.srv.metrics.JobsSubmitted.Add(1)
	jm.srv.replicateJob(j, nil)
	jm.run(j, nil)
	return j, http.StatusAccepted, nil
}

// adopt registers a dead peer's replicated job as this peer's own:
// terminal jobs are re-listed with their result, interrupted ones re-run
// from the last replicated snapshot. Returns nil when the id is
// already tracked (a duplicate death notification), or when the job's
// record does not reach the disk.
func (jm *jobManager) adopt(id string, rep jobReplica) *job {
	// A replica frame carries a result only once its job is done.
	payload := rep.Snapshot
	if rep.Result != nil {
		payload = rep.Result
	}
	rec := encodeRecord(rep.Manifest, payload)
	j, resume, err := restoreJob(id, rec)
	if err != nil {
		jm.srv.logf("jobs: skipping replica %s: %v", id, err)
		return nil
	}

	jm.mu.Lock()
	if jm.ctx.Err() != nil { // draining
		jm.mu.Unlock()
		return nil
	}
	if _, ok := jm.jobs[id]; ok {
		jm.mu.Unlock()
		return nil
	}
	// Adoption intentionally ignores the job-table cap: dropping a durable
	// job on the floor is worse than briefly exceeding max.
	jm.jobs[id] = j
	jm.mu.Unlock()

	if err := jm.store.Write(logName(id), rec); err != nil {
		// Untracked again, the job keeps its replica, which the repair
		// loop offers for adoption at its next pass.
		jm.mu.Lock()
		delete(jm.jobs, id)
		jm.mu.Unlock()
		jm.srv.logf("jobs: %s: adopted record write failed, adoption deferred: %v", id, err)
		return nil
	}
	if j.state == jobPending {
		if resume != nil {
			jm.srv.metrics.JobsResumed.Add(1)
		}
		jm.run(j, resume)
	}
	return j
}

// tracked reports whether id is a live (local) job without waiting for
// recovery — the repair loop's cheap membership check.
func (jm *jobManager) tracked(id string) bool {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	_, ok := jm.jobs[id]
	return ok
}

// evictTerminalLocked drops the oldest finished job from the table to
// make room and returns its id for the caller to remove its log once
// jm.mu is released; it returns "" when every tracked job is still live.
func (jm *jobManager) evictTerminalLocked() string {
	var victim *job
	for _, j := range jm.jobs {
		j.mu.Lock()
		terminal := j.state == jobDone || j.state == jobFailed
		j.mu.Unlock()
		if terminal && (victim == nil || j.id < victim.id) {
			victim = j
		}
	}
	if victim == nil {
		return ""
	}
	delete(jm.jobs, victim.id)
	return victim.id
}

// get returns a tracked job by id. Reads wait out the startup scan like
// submission does: a poll that races recovery must see the recovered job,
// not a spurious 404.
func (jm *jobManager) get(id string) (*job, bool) {
	<-jm.recovered
	jm.mu.Lock()
	defer jm.mu.Unlock()
	j, ok := jm.jobs[id]
	return j, ok
}

// list returns every tracked job, oldest first.
func (jm *jobManager) list() []*job {
	<-jm.recovered
	jm.mu.Lock()
	out := make([]*job, 0, len(jm.jobs))
	for _, j := range jm.jobs {
		out = append(out, j)
	}
	jm.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].id < out[b].id })
	return out
}

// run queues the job for the execution slot; it runs when its turn comes
// unless the manager is interrupted first.
func (jm *jobManager) run(j *job, resume []byte) {
	jm.wg.Add(1)
	go func() {
		defer jm.wg.Done()
		select {
		case jm.sem <- struct{}{}:
			defer func() { <-jm.sem }()
		case <-jm.ctx.Done():
			return // drain before the job ever started; still resumable
		}
		if jm.ctx.Err() != nil {
			return
		}
		jm.execute(j, resume)
	}()
}

// execute runs one job to a terminal state, or leaves it resumable if the
// manager is interrupted mid-run. A resume payload that fails to decode
// (wrong build, wrong shape, flipped bits past the CRC) demotes the run
// to a cold start rather than failing the job.
func (jm *jobManager) execute(j *job, resume []byte) {
	// Running is not written to disk: recovery resumes a pending record
	// exactly like a running one. Replicas still learn the state.
	j.setState(jobRunning)
	jm.srv.replicateJob(j, resume)
	var log *checkpoint.Log
	err := jm.waitDisk(j, jobRunning, func() (err error) {
		log, err = jm.store.OpenLog(logName(j.id))
		return err
	})
	switch {
	case err == nil:
		defer log.Close()
	case jm.ctx.Err() != nil:
		return // drained while the disk was full; still resumable
	default:
		jm.fail(j, func(rec []byte) error { return jm.store.Write(logName(j.id), rec) }, err)
		return
	}
	ck := &checkpoint.Options{
		Sink: &jobSink{jm: jm, j: j, log: log}, Every: j.req.CheckpointEvery, Resume: resume,
		OnError: func(err error) { jm.srv.logf("jobs: %s: snapshot save failed, continuing without: %v", j.id, err) },
	}
	result, resumed, err := j.spec.runJob(jm.ctx, jm.srv, ck)
	if len(resume) > 0 && checkpoint.IsSnapshotErr(err) && jm.ctx.Err() == nil {
		jm.srv.logf("jobs: %s: snapshot rejected (%v), restarting cold", j.id, err)
		j.setProgress(0, 0)
		ck.Resume = nil
		result, resumed, err = j.spec.runJob(jm.ctx, jm.srv, ck)
	}
	switch {
	case err == nil:
		jm.finish(j, log, result, resumed)
	case jm.ctx.Err() != nil:
		// Drain: the engine already appended its parting snapshot, which
		// the next process resumes from.
	default:
		jm.fail(j, log.Save, err)
	}
}

// jobSink appends engine snapshots to the job log as progress records and
// mirrors their progress counters into the live job view.
type jobSink struct {
	jm  *jobManager
	j   *job
	log *checkpoint.Log
}

func (s *jobSink) Save(payload []byte) error {
	rec, err := s.j.record(jobRunning, "", payload)
	if err == nil {
		err = s.log.Save(rec)
	}
	if err != nil {
		return err
	}
	s.jm.srv.metrics.JobSnapshots.Add(1)
	if done, total, err := s.j.spec.progress(payload); err == nil {
		s.j.setProgress(done, total)
	}
	s.jm.srv.replicateJob(s.j, payload)
	return nil
}

// diskRetry is how often a job retries a write the disk refused as full.
const diskRetry = 100 * time.Millisecond

// waitDisk runs write, and while the disk refuses it as full retries it
// every diskRetry until it lands or the manager is interrupted. The
// error is write's last one. The job stays in its state meanwhile, so no
// client sees a state that its record does not back.
func (jm *jobManager) waitDisk(j *job, state string, write func() error) error {
	err := write()
	if checkpoint.IsDiskFull(err) {
		jm.srv.logf("jobs: %s: disk full, %s record waiting: %v", j.id, state, err)
	}
	for checkpoint.IsDiskFull(err) {
		select {
		case <-jm.ctx.Done():
			return err
		case <-time.After(diskRetry):
		}
		err = write()
	}
	return err
}

// land makes one terminal record durable through save, waiting out a
// full disk.
func (jm *jobManager) land(j *job, save func([]byte) error, state, errMsg string, payload []byte) error {
	rec, err := j.record(state, errMsg, payload)
	if err != nil {
		return err
	}
	return jm.waitDisk(j, state, func() error { return save(rec) })
}

// finish lands the done record and only then flips the job to done, so
// no client sees a result that a crash could take back. While a full disk
// holds the record back, the job reads running with all its work done; a
// drain meanwhile leaves it to resume in the next process.
func (jm *jobManager) finish(j *job, log *checkpoint.Log, result json.RawMessage, resumed int) {
	j.finishProgress()
	if err := jm.land(j, log.Save, jobDone, "", result); err != nil {
		if jm.ctx.Err() == nil {
			jm.fail(j, log.Save, fmt.Errorf("persisting result: %w", err))
		}
		return
	}
	j.mu.Lock()
	j.state, j.result, j.resumed = jobDone, result, resumed
	j.mu.Unlock()
	jm.srv.metrics.JobsCompleted.Add(1)
	jm.srv.replicateJob(j, nil)
	jm.srv.logf("jobs: %s done", j.id)
}

// fail lands a failed record through save, then flips the job to failed.
// A record that cannot land for any cause but a full disk is logged and
// the job still fails: a re-run would fail the same way.
func (jm *jobManager) fail(j *job, save func([]byte) error, err error) {
	if werr := jm.land(j, save, jobFailed, err.Error(), nil); werr != nil {
		if jm.ctx.Err() != nil {
			return // drained before the record landed; still resumable
		}
		jm.srv.logf("jobs: %s: failure record write failed: %v", j.id, werr)
	}
	j.mu.Lock()
	j.state, j.errMsg = jobFailed, err.Error()
	j.mu.Unlock()
	jm.srv.metrics.JobsFailed.Add(1)
	jm.srv.replicateJob(j, nil)
	jm.srv.logf("jobs: %s failed: %v", j.id, err)
}

// handleJobSubmit is POST /v1/jobs: validate, persist, enqueue, 202.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		writeError(w, http.StatusNotFound, "async jobs are disabled: start the server with a jobs directory (-jobs)")
		return
	}
	var req jobRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeBodyError(w, err)
		return
	}
	j, status, err := s.jobs.submit(req)
	if err != nil {
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, status, "%v", err)
		return
	}
	out := j.json(false)
	writeJSON(w, status, map[string]any{"id": j.id, "state": out.State, "url": "/v1/jobs/" + j.id})
}

// handleJobList is GET /v1/jobs: every tracked job, oldest first, without
// result payloads.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		writeError(w, http.StatusNotFound, "async jobs are disabled: start the server with a jobs directory (-jobs)")
		return
	}
	jobs := s.jobs.list()
	out := make([]jobJSON, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.json(false))
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// handleJobGet is GET /v1/jobs/{id}: full state including the result once
// the job is done.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		writeError(w, http.StatusNotFound, "async jobs are disabled: start the server with a jobs directory (-jobs)")
		return
	}
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		// Cluster mode: a job submitted to (or adopted by) another peer is
		// visible from any peer via a one-hop internal proxy.
		if body, ok := s.remoteJob(r.Context(), r.PathValue("id")); ok {
			writeJSONBytes(w, http.StatusOK, body)
			return
		}
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.json(true))
}
