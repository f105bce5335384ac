package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"accelwall/internal/faultinject"
)

// SiteSlice is the fault-injection seam on the peer side of the slice
// exchange: chaos tests arm it to make a peer shed or fail slices so the
// coordinator's stealing path executes deterministically.
var SiteSlice = faultinject.Register("cluster.slice")

// Transport seams: partition chaos arms these with faultinject
// TransportRules to drop, delay, or duplicate outgoing frames per
// (directed link, attempt). Links are "src->dst" peer URLs.
var (
	// SiteTransportSlice sits on the coordinator side of every remote
	// slice attempt.
	SiteTransportSlice = faultinject.Register("cluster.transport.slice")
	// SiteTransportReplicate sits on every job-replica push (the
	// server's replicateJob path).
	SiteTransportReplicate = faultinject.Register("cluster.transport.replicate")
	// SiteTransportProbe sits on every health probe, so tests can
	// deterministically kill and resurrect a peer in-process.
	SiteTransportProbe = faultinject.Register("cluster.transport.probe")
)

// internalSlicePath is the peer-to-peer slice route.
const internalSlicePath = "/v1/internal/slice"

// Options configures one peer's view of the cluster.
type Options struct {
	// Self is this peer's advertised base URL; it must appear in Peers.
	Self string
	// Peers is the full static membership: every peer's base URL,
	// including Self. A single-element list (or empty) disables the
	// cluster — Enabled reports false and the server never scatters.
	Peers []string
	// ProbeInterval is the health-probe cadence (<= 0: 500ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request (<= 0: 2s).
	ProbeTimeout time.Duration
	// DeathThreshold is how many consecutive probe failures declare a
	// peer dead (<= 0: 3). A dead peer's keys and jobs move to ring
	// successors; a probe success resurrects it.
	DeathThreshold int
	// SliceTimeout bounds one slice attempt end to end (<= 0: 60s).
	SliceTimeout time.Duration
	// OnDeath, when set, is called once per transition alive -> dead,
	// from the prober goroutine. The server hooks job adoption here.
	OnDeath func(peer string)
	// Logger receives membership transitions and steal decisions;
	// nil silences logging.
	Logger *log.Logger
}

// Metrics are the cluster's operational counters, all monotonic except
// the alive gauge.
type Metrics struct {
	SlicesSent    atomic.Int64 // slice attempts dispatched to remote peers
	SlicesLocal   atomic.Int64 // slices executed on this peer by its own coordinator
	SliceErrors   atomic.Int64 // remote attempts that failed (shed, died, bad frame)
	Steals        atomic.Int64 // slices reassigned after a shed or failure
	Scatters      atomic.Int64 // scatter-gather operations coordinated
	ScatterFails  atomic.Int64 // scatters that exhausted every candidate
	Deaths        atomic.Int64 // alive -> dead transitions observed
	Resurrections atomic.Int64 // dead -> alive transitions observed
	Adopted       atomic.Int64 // durable jobs adopted from dead peers

	ReplicaPushFails atomic.Int64 // job-replica pushes that exhausted their retries
	RepairRuns       atomic.Int64 // anti-entropy repair sweeps completed
	RepairPushes     atomic.Int64 // replicas re-pushed or forwarded by the repair loop
	RepairGCs        atomic.Int64 // replicas garbage-collected by the repair loop
}

// Snapshot renders the counters plus the live membership view.
func (m *Metrics) Snapshot(c *Cluster) map[string]any {
	out := map[string]any{
		"slices_sent":   m.SlicesSent.Load(),
		"slices_local":  m.SlicesLocal.Load(),
		"slice_errors":  m.SliceErrors.Load(),
		"steals":        m.Steals.Load(),
		"scatters":      m.Scatters.Load(),
		"scatter_fails": m.ScatterFails.Load(),
		"deaths":        m.Deaths.Load(),
		"resurrections": m.Resurrections.Load(),
		"jobs_adopted":  m.Adopted.Load(),

		"replica_push_fails": m.ReplicaPushFails.Load(),
		"repair_runs":        m.RepairRuns.Load(),
		"repair_pushes":      m.RepairPushes.Load(),
		"repair_gcs":         m.RepairGCs.Load(),
	}
	if c != nil {
		out["self"] = c.Self()
		out["peers"] = len(c.ring.Peers())
		out["alive"] = len(c.Alive())
	}
	return out
}

// peerState tracks one remote peer's failure detector.
type peerState struct {
	fails int
	dead  bool
}

// Cluster is one peer's membership view plus the scatter-gather client.
type Cluster struct {
	opts    Options
	ring    *Ring
	http    *http.Client
	Metrics Metrics

	mu    sync.Mutex
	state map[string]*peerState

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// LocalFunc executes one slice in-process; the coordinator uses it when a
// slice lands on (or is stolen by) itself.
type LocalFunc func(ctx context.Context, req *SliceRequest) (*SliceResponse, error)

// New validates the membership and builds the cluster; Start launches the
// prober. A nil return with nil error means clustering is disabled
// (fewer than two peers).
func New(opts Options) (*Cluster, error) {
	if len(opts.Peers) < 2 {
		return nil, nil
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 500 * time.Millisecond
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = 2 * time.Second
	}
	if opts.DeathThreshold <= 0 {
		opts.DeathThreshold = 3
	}
	if opts.SliceTimeout <= 0 {
		opts.SliceTimeout = 60 * time.Second
	}
	selfKnown := false
	seen := make(map[string]bool, len(opts.Peers))
	for _, p := range opts.Peers {
		if p == "" {
			return nil, errors.New("cluster: empty peer URL")
		}
		if seen[p] {
			return nil, fmt.Errorf("cluster: duplicate peer %q", p)
		}
		seen[p] = true
		if p == opts.Self {
			selfKnown = true
		}
	}
	if !selfKnown {
		return nil, fmt.Errorf("cluster: self %q is not in the peer list", opts.Self)
	}
	c := &Cluster{
		opts:  opts,
		ring:  NewRing(opts.Peers),
		http:  &http.Client{},
		state: make(map[string]*peerState),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for _, p := range opts.Peers {
		if p != opts.Self {
			c.state[p] = &peerState{}
		}
	}
	return c, nil
}

// Self returns this peer's advertised URL.
func (c *Cluster) Self() string { return c.opts.Self }

// SelfIndex returns this peer's ordinal in the sorted membership — a
// stable, peer-unique small integer (used to prefix job ids).
func (c *Cluster) SelfIndex() int {
	for i, p := range c.ring.Peers() {
		if p == c.opts.Self {
			return i
		}
	}
	return 0
}

// Ring exposes the membership ring for key-ownership queries.
func (c *Cluster) Ring() *Ring { return c.ring }

// Start launches the failure-detector goroutine.
func (c *Cluster) Start() {
	go c.probeLoop()
}

// Stop halts the prober, waits for it and closes idle client connections
// (each would hold a peer's drain for net/http's 5 s grace); idempotent.
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
	c.http.CloseIdleConnections()
}

// alive reports the failure detector's view of one peer; self is always
// alive.
func (c *Cluster) alive(peer string) bool {
	if peer == c.opts.Self {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.state[peer]
	return ok && !st.dead
}

// Alive returns every peer currently considered alive, self included,
// in ring (sorted) order.
func (c *Cluster) Alive() []string {
	var out []string
	for _, p := range c.ring.Peers() {
		if c.alive(p) {
			out = append(out, p)
		}
	}
	return out
}

// OwnerOf returns the alive peer owning key under the current failure
// view.
func (c *Cluster) OwnerOf(key string) string {
	return c.ring.OwnerAmong(key, c.alive)
}

// ReplicaFor returns the peer a job owned by this peer replicates to:
// the first *alive* ring successor of the job id that is not self. ok
// is false when no other peer is alive — the repair loop re-replicates
// once one comes back.
func (c *Cluster) ReplicaFor(id string) (string, bool) {
	return c.ReplicaTargetFor(id, c.opts.Self)
}

// ReplicaTargetFor returns where a job owned by owner should hold its
// standby copy under the current failure view: the first alive ring
// successor of the job id that is not the owner. The repair loop uses
// it to decide whether a replica it holds is still assigned here.
func (c *Cluster) ReplicaTargetFor(id, owner string) (string, bool) {
	for _, p := range c.ring.Successors(id, len(c.ring.Peers())) {
		if p != owner && c.alive(p) {
			return p, true
		}
	}
	return "", false
}

// PeerAlive reports the failure detector's view of one peer (self is
// always alive; unknown URLs are never alive).
func (c *Cluster) PeerAlive(peer string) bool { return c.alive(peer) }

// Member reports whether peer is part of the static membership.
func (c *Cluster) Member(peer string) bool {
	if peer == c.opts.Self {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.state[peer]
	return ok
}

// reportFailure feeds a slice-level connection failure into the failure
// detector, accelerating death detection beyond the probe cadence.
func (c *Cluster) reportFailure(peer string) {
	c.noteProbe(peer, false)
}

// noteProbe records one probe (or probe-equivalent) outcome and fires the
// death/resurrection transitions.
func (c *Cluster) noteProbe(peer string, ok bool) {
	c.mu.Lock()
	st, known := c.state[peer]
	if !known {
		c.mu.Unlock()
		return
	}
	var died, revived bool
	if ok {
		if st.dead {
			revived = true
		}
		st.fails = 0
		st.dead = false
	} else {
		st.fails++
		if !st.dead && st.fails >= c.opts.DeathThreshold {
			st.dead = true
			died = true
		}
	}
	c.mu.Unlock()
	switch {
	case died:
		c.Metrics.Deaths.Add(1)
		c.logf("cluster: peer %s declared dead after %d consecutive failures", peer, c.opts.DeathThreshold)
		if c.opts.OnDeath != nil {
			c.opts.OnDeath(peer)
		}
	case revived:
		c.Metrics.Resurrections.Add(1)
		c.logf("cluster: peer %s is back", peer)
	}
}

// probeLoop probes every remote peer's /healthz at the configured
// cadence until Stop.
func (c *Cluster) probeLoop() {
	defer close(c.done)
	t := time.NewTicker(c.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		var wg sync.WaitGroup
		for _, p := range c.ring.Peers() {
			if p == c.opts.Self {
				continue
			}
			wg.Add(1)
			go func(peer string) {
				defer wg.Done()
				c.noteProbe(peer, c.probe(peer))
			}(p)
		}
		wg.Wait()
	}
}

// probe is one liveness check: GET /healthz with a bounded deadline.
func (c *Cluster) probe(peer string) bool {
	if op := faultinject.Transport(SiteTransportProbe, c.opts.Self+"->"+peer); op.Drop || op.Delay > 0 {
		if op.Delay > 0 {
			time.Sleep(op.Delay)
		}
		if op.Drop {
			return false
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// errShed marks a retryable remote refusal (429/503): the peer is alive
// but shedding, so the slice should be stolen by another peer without
// feeding the failure detector.
var errShed = errors.New("cluster: peer shed the slice")

// sendSlice performs one remote slice attempt: the partition-chaos
// transport seam, then the HTTP exchange.
func (c *Cluster) sendSlice(ctx context.Context, peer string, frame []byte) (*SliceResponse, error) {
	op := faultinject.Transport(SiteTransportSlice, c.opts.Self+"->"+peer)
	if op.Delay > 0 {
		time.Sleep(op.Delay)
	}
	if op.Drop {
		c.Metrics.SlicesSent.Add(1)
		c.reportFailure(peer)
		return nil, fmt.Errorf("%w: slice %s->%s", faultinject.ErrPartitioned, c.opts.Self, peer)
	}
	if op.Duplicate {
		// Deliver the frame once more; the duplicate's response is
		// discarded. Slices are pure functions of their request, so
		// the receiver needs no dedup for correctness.
		c.postSlice(ctx, peer, frame) //nolint:errcheck // duplicate delivery
	}
	return c.postSlice(ctx, peer, frame)
}

// postSlice is the raw HTTP slice exchange.
func (c *Cluster) postSlice(ctx context.Context, peer string, frame []byte) (*SliceResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, c.opts.SliceTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+internalSlicePath, bytes.NewReader(frame))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	c.Metrics.SlicesSent.Add(1)
	resp, err := c.http.Do(req)
	if err != nil {
		c.reportFailure(peer)
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxMCPayload+maxSliceDesigns*72+1024))
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return DecodeResponse(body)
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return nil, fmt.Errorf("%w (%d from %s)", errShed, resp.StatusCode, peer)
	default:
		return nil, fmt.Errorf("cluster: peer %s answered %d: %s", peer, resp.StatusCode, truncate(body, 200))
	}
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(b)
}

// sliceKey names a slice for ring placement. The engine-cache key prefix
// gives cache affinity: slices of the same workload land on the same
// peers sweep after sweep, so their engine caches stay hot.
func sliceKey(key string, i int) string { return fmt.Sprintf("%s#%d", key, i) }

// candidates returns the slice's attempt order: the ring owner of its
// key first, then the remaining alive peers clockwise, self included.
func (c *Cluster) candidates(key string, i int) []string {
	all := c.ring.Successors(sliceKey(key, i), len(c.ring.Peers()))
	out := make([]string, 0, len(all))
	for _, p := range all {
		if c.alive(p) {
			out = append(out, p)
		}
	}
	return out
}

// runOn executes one slice attempt on a candidate — locally when the
// candidate is self, remotely otherwise.
func (c *Cluster) runOn(ctx context.Context, peer string, req *SliceRequest, frame []byte, local LocalFunc) (*SliceResponse, error) {
	if peer == c.opts.Self {
		c.Metrics.SlicesLocal.Add(1)
		return local(ctx, req)
	}
	return c.sendSlice(ctx, peer, frame)
}

// Scatter dispatches the slices across the alive membership and gathers
// their responses, indexed like reqs. key places the slices on the ring
// (use the engine-cache key so repeated requests reuse warm peers).
//
// Per slice: the ring owner gets the first attempt; a shed (429/503),
// death, or malformed frame moves the slice to the next alive candidate
// (a steal). A slow peer is waited out, up to SliceTimeout. The returned error
// is the first slice that exhausted every candidate — partial results
// are never returned, because a merged response must be complete to be
// byte-identical to a single-node run.
func (c *Cluster) Scatter(ctx context.Context, key string, reqs []*SliceRequest, local LocalFunc) ([]*SliceResponse, error) {
	c.Metrics.Scatters.Add(1)
	out := make([]*SliceResponse, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req *SliceRequest) {
			defer wg.Done()
			out[i], errs[i] = c.gatherOne(ctx, key, i, req, local)
		}(i, req)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			c.Metrics.ScatterFails.Add(1)
			return nil, err
		}
	}
	return out, nil
}

// gatherOne drives one slice to completion: it tries the candidates in
// order and steals the slice to the next one after a failure or shed.
func (c *Cluster) gatherOne(ctx context.Context, key string, i int, req *SliceRequest, local LocalFunc) (*SliceResponse, error) {
	frame := EncodeRequest(req)
	cands := c.candidates(key, i)
	var err error
	for n, peer := range cands {
		if n > 0 {
			c.Metrics.Steals.Add(1)
			c.logf("cluster: stealing slice %s#%d from %s (%v) onto %s", key, i, cands[n-1], err, peer)
		}
		var resp *SliceResponse
		if resp, err = c.runOn(ctx, peer, req, frame, local); err == nil && resp != nil {
			return resp, nil
		}
		c.Metrics.SliceErrors.Add(1)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("cluster: slice %s#%d failed on every candidate: %w", key, i, err)
}

func (c *Cluster) logf(format string, args ...any) {
	if c.opts.Logger != nil {
		c.opts.Logger.Printf(format, args...)
	}
}
