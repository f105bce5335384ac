// The seeded whole-system fault harness, in the style of FoundationDB's
// simulation testing (Zhou et al., SIGMOD 2021). One uint64 seed fixes a
// schedule: a topology (one node, or three in-process peers, each with
// its own jobs directory), the faults armed on the existing seams, and
// waves of requests. simOracle, one function, then judges everything the
// run observed. The seed does not fix goroutine interleaving, so every
// check holds under any interleaving.
//
// A failing entry replays on its own:
//
//	go test -run 'FuzzSimulation/<entry>' ./internal/server/
//
// where <entry> is seed#N for the N-th f.Add seed, or a file name under
// testdata/fuzz/FuzzSimulation.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"accelwall/internal/cluster"
	"accelwall/internal/faultinject"
	"accelwall/internal/leakcheck"
	"accelwall/internal/montecarlo"
	"accelwall/internal/sweep"
)

// simFault is one kind of fault a schedule arms.
type simFault uint

const (
	simEngine     simFault = 1 << iota // panic, error or delay at sweep.simulate or montecarlo.replicate
	simShed                            // cluster.slice sheds
	simTransport                       // drop, duplicate or delay on the slice, replicate and probe links
	simDisk                            // ENOSPC at fs.write, fs.fsync or fs.rename from the event wave, healed before the end
	simWedge                           // a chunk stalled for a second, which its pool waits out
	_                                  // retired (a memory budget); kept so seeds draw as before
	simOverload                        // one execution slot, a one-deep queue, a short RequestTimeout
	simKill                            // a job's owner killed mid-job and mid-wave, later restarted
	simCrash                           // a fresh New over a copy of the jobs directory taken mid-job
	simFaultKinds = iota
)

// simRequest is one body the generator sends to its synchronous route
// or, when it has a kind, submits as a durable job.
type simRequest struct{ path, body, kind string }

// simMenu is small on purpose: bodies repeat within a seed, so warm
// caches and singleflight joins occur. From simOpener on, each Monte
// Carlo body is asked at most once per seed.
var simMenu = func() []simRequest {
	menu := []simRequest{
		{"/v1/sweep", clusterSweepBody, "sweep"},
		{"/v1/sweep", `{"workload": "GMM", "objective": "performance", "grid": {"nodes": [45, 32, 22, 16], "partitions": [1, 2, 4], "simplifications": [1, 2], "fusion": [false, true]}}`, "sweep"},
		{"/v1/sweep", `{"workload": "FFT", "preset": "reduced"}`, "sweep"},
		{"/v1/sweep", `{"workload": "RED", "designs": [{"node_nm": 45, "partition": 1, "simplification": 1}, {"node_nm": 5, "partition": 16, "simplification": 5, "fusion": true}]}`, ""},
		{"/v1/uncertainty", `{"replicates": 120, "seed": 1, "corpus_seed": 7, "workers": 1}`, "uncertainty"},
		{"/v1/uncertainty", `{"replicates": 120, "seed": 2, "corpus_seed": 7}`, "uncertainty"},
		{"/v1/search", `{"workload": "FFT", "population": 16, "generations": 2, "seed": 9}`, "search"},
		{"/v1/search", `{"workload": "GMM", "population": 8, "generations": 3, "seed": 3}`, "search"},
	}
	for seed := 101; seed <= 106; seed++ {
		menu = append(menu, simRequest{"/v1/uncertainty", fmt.Sprintf(`{"replicates": 60, "seed": %d, "corpus_seed": 7}`, seed), ""})
	}
	return menu
}()

const simOpener = 8

// simSlowJob is the one-worker Monte Carlo job submitted in the wave
// before a kill or crash; slowed replicates keep it running past them.
const simSlowJob = 4

func (r simRequest) jobBody() string {
	return fmt.Sprintf(`{"kind": %q, "checkpoint_every": 4, %q: %s}`, r.kind, r.kind, r.body)
}

// simStep is one request of a wave: a menu entry, sent as a job or not,
// to the peer at an index taken modulo those alive.
type simStep struct {
	req, peer int
	job       bool
}

// simPlan is the schedule one seed fixes.
type simPlan struct {
	seed    uint64
	faults  simFault
	cluster bool
	rules   map[string]faultinject.Rule
	disk    map[string]faultinject.Rule // armed at the event wave, so jobs meet the full disk mid-run
	victim  int                         // peer whose inbound links the transport faults cut
	waves   [][]simStep
	event   int // the wave a kill strikes during, a crash strikes before, or the disk fills before
}

// newSimPlan derives a schedule from seed. The seed's residue picks the
// primary fault, so seeds 0..simFaultKinds-1 arm every kind (seed 5 draws
// the retired slot and arms no primary); each other kind joins with
// probability 1/4 unless it cannot combine with the primary.
func newSimPlan(seed uint64) simPlan {
	rng := rand.New(rand.NewSource(int64(seed)))
	primary := simFault(1) << (seed % simFaultKinds)
	p := simPlan{seed: seed, faults: primary, rules: map[string]faultinject.Rule{}, disk: map[string]faultinject.Rule{}, victim: rng.Intn(3)}
	for f := simFault(1); f < 1<<simFaultKinds; f <<= 1 {
		if rng.Intn(4) == 0 {
			p.faults |= f
		}
	}
	// A crash runs on one node; the cluster faults need three. A full disk
	// never joins a kill or a crash: the exclusion predates the disk wait
	// and stays so that every seed draws the plan it always drew.
	for _, c := range [][2]simFault{{simCrash, simShed | simTransport | simKill}, {simDisk, simKill | simCrash}} {
		if p.faults&c[0] != 0 && p.faults&c[1] != 0 {
			if primary&c[1] != 0 {
				p.faults &^= c[0]
			} else {
				p.faults &^= c[1]
			}
		}
	}
	p.cluster = p.faults&(simShed|simTransport|simKill) != 0 || p.faults&simCrash == 0 && rng.Intn(2) == 0

	// One rule per site, the primary fault served first.
	engine := []string{sweep.SiteSimulate, montecarlo.SiteReplicate}
	rng.Shuffle(2, func(i, j int) { engine[i], engine[j] = engine[j], engine[i] })
	arm := func(r faultinject.Rule, sites ...string) {
		for _, s := range sites {
			if _, taken := p.rules[s]; !taken {
				p.rules[s] = r
				return
			}
		}
	}
	armed := simFault(0)
	for _, f := range []simFault{primary, simEngine, simWedge, simOverload, simKill, simCrash, simShed, simDisk} {
		if p.faults&f == 0 || armed&f != 0 {
			continue
		}
		armed |= f
		switch f {
		case simEngine:
			mode := []faultinject.Mode{faultinject.ModePanic, faultinject.ModeError, faultinject.ModeDelay}[rng.Intn(3)]
			arm(faultinject.Rule{Mode: mode, P: 0.05 + 0.1*rng.Float64(), Delay: 2 * time.Millisecond}, engine...)
		case simWedge:
			arm(faultinject.Rule{Mode: faultinject.ModeDelay, Every: 97, Delay: time.Second}, engine...)
		case simOverload:
			arm(faultinject.Rule{Mode: faultinject.ModeDelay, Every: 1, Delay: 3 * time.Millisecond}, sweep.SiteSimulate)
		case simKill, simCrash:
			arm(faultinject.Rule{Mode: faultinject.ModeDelay, Every: 1, Delay: 3 * time.Millisecond}, montecarlo.SiteReplicate)
		case simShed:
			arm(faultinject.Rule{Mode: faultinject.ModeError, P: 0.3}, cluster.SiteSlice)
		case simDisk:
			site := []string{faultinject.SiteFSWrite, faultinject.SiteFSSync, faultinject.SiteFSRename}[rng.Intn(3)]
			p.disk[site] = faultinject.Rule{Mode: faultinject.ModeError, Every: 1, Err: syscall.ENOSPC}
		}
	}

	// A failing sweep or search job ends failed, not done, so none is
	// submitted while their shared simulate seam errors.
	sweepFails := p.rules[sweep.SiteSimulate].Mode != faultinject.ModeDelay && p.rules[sweep.SiteSimulate].P > 0
	waves, hot := 4+rng.Intn(3), rng.Intn(3)
	// Under overload every wave goes to one peer: an opener holds its one
	// execution slot, a cacheable body of one kind queues behind it and
	// two more copies shed. The kinds take turns, so each is shed (503)
	// both before and after its answer is cached.
	cacheable := []int{rng.Intn(3), 4 + rng.Intn(2), 6 + rng.Intn(2)}
	if p.faults&simOverload != 0 {
		waves = len(simMenu) - simOpener
	}
	p.event = 1 + rng.Intn(2)
	for w := 0; w < waves; w++ {
		var wave []simStep
		for i, n := 0, 1+rng.Intn(3); i < n && p.faults&simOverload == 0; i++ {
			st := simStep{req: rng.Intn(simOpener), job: rng.Intn(4) == 0, peer: rng.Intn(3)}
			kind := simMenu[st.req].kind
			st.job = st.job && kind != "" && !(sweepFails && kind != "uncertainty")
			wave = append(wave, st)
		}
		if p.faults&simOverload != 0 {
			x := cacheable[w%3]
			wave = []simStep{{req: simOpener + w, peer: hot}, {req: x, peer: hot}, {req: x, peer: hot}, {req: x, peer: hot}}
		}
		if w == p.event-1 {
			wave = append([]simStep{{req: simSlowJob, job: true, peer: hot}}, wave...)
		}
		p.waves = append(p.waves, wave)
	}
	return p
}

// options configures one peer under the plan.
func (p simPlan) options(o *Options, jobsDir string) {
	o.JobsDir, o.RepairInterval = jobsDir, 50*time.Millisecond
	if p.faults&simOverload != 0 {
		o.MaxInflight, o.MaxQueue, o.RequestTimeout = 1, 1, 1500*time.Millisecond
	}
}

// injector arms the plan's rules and transport faults: the victim's first
// inbound slice frames dropped (steals), later frames duplicated or
// delayed 150 ms (a slow slice the gather waits out), replica pushes dropped
// until the heal (repair), and probes into the victim dropped for a while
// (a false death, then a resurrection).
func (p simPlan) injector(peers []*clusterPeer) *faultinject.Injector {
	inj := faultinject.New(int64(p.seed))
	for site, r := range p.rules {
		inj.Set(site, r)
	}
	if p.faults&simTransport == 0 {
		return inj
	}
	into := "->" + peers[p.victim].url
	return inj.SetTransport(cluster.SiteTransportSlice, func(link string, n uint64) faultinject.TransportOp {
		return faultinject.TransportOp{
			Drop:      strings.HasSuffix(link, into) && n <= 3,
			Delay:     time.Duration(n%3/2) * 150 * time.Millisecond,
			Duplicate: n%3 == 1,
		}
	}).SetTransport(cluster.SiteTransportReplicate, func(string, uint64) faultinject.TransportOp {
		return faultinject.TransportOp{Drop: true}
	}).SetTransport(cluster.SiteTransportProbe, func(link string, n uint64) faultinject.TransportOp {
		return faultinject.TransportOp{Drop: strings.HasSuffix(link, into) && n >= 3 && n <= 8}
	})
}

// simRefs holds the fault-free single-node 200 bodies by path and body.
var simRefs = struct {
	sync.Mutex
	m map[string][]byte
}{m: map[string][]byte{}}

// references computes each menu body's fault-free single-node 200 once
// per process, before any fault is armed.
func references(t *testing.T) {
	simRefs.Lock()
	defer simRefs.Unlock()
	for _, r := range simMenu {
		if simRefs.m[r.path+r.body] == nil {
			simRefs.m[r.path+r.body] = singleNodeReference(t, r.path, r.body)
		}
	}
}

// simResponse is one client-route response the run observed.
type simResponse struct {
	req    simRequest
	job    bool
	status int
	header http.Header
	body   []byte
	err    error
}

// simRun is one seed's execution: the live peers and what was observed.
type simRun struct {
	t      *testing.T
	client *http.Client
	peers  []*clusterPeer

	mu          sync.Mutex
	responses   []simResponse
	accepted    map[string]simRequest // job id -> request
	final       map[string]string     // job id -> state of its SSE stream's last frame
	views       map[string]jobJSON    // job id -> GET /v1/jobs/{id} once quiet
	completions map[string]int        // "jobs: <id> done" log lines over every live server
	onDisk      map[string][][]byte   // done results on the final peers' disks
	metrics     map[string]float64    // /v1/metrics counters summed over every server instance
	breaches    []string              // durability and liveness breaches found on the way
}

// completionLog counts a server's job completions, and the records a
// full disk kept waiting, from its log lines.
type completionLog struct{ r *simRun }

func (c completionLog) Write(b []byte) (int, error) {
	line, ok := strings.CutPrefix(strings.TrimSpace(string(b)), "jobs: ")
	c.r.mu.Lock()
	defer c.r.mu.Unlock()
	switch {
	case ok && strings.HasSuffix(line, " done"):
		c.r.completions[strings.TrimSuffix(line, " done")]++
	case ok && strings.Contains(line, ": disk full, "):
		c.r.metrics["jobs disk-wait"]++
	}
	return len(b), nil
}

func (r *simRun) breach(format string, args ...any) {
	r.mu.Lock()
	r.breaches = append(r.breaches, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// idle closes the client connections a server may never have seen a
// request on: each would hold its graceful drain for net/http's 5 s grace.
func (r *simRun) idle() {
	r.client.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
}

// await polls cond for up to 10 s and records a breach if it never holds.
func (r *simRun) await(cond func() bool, format string, args ...any) {
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			r.breach(format, args...)
			return
		}
	}
}

// simMechanisms are the /v1/metrics counters the corpus must drive: an
// oracle that holds while a mechanism never fires proves nothing about
// it.
var simMechanisms = []string{
	"cluster.scatters", "cluster.steals",
	"cluster.replica_push_fails", "cluster.repair_pushes", "cluster.deaths", "cluster.resurrections",
	"cluster.jobs_adopted", "overload.shed_503",
	"jobs disk-wait",
}

// FuzzSimulation runs one seed per entry; a whole-corpus run also fails
// if any of simMechanisms never fired.
func FuzzSimulation(f *testing.F) {
	for seed := uint64(0); seed < simFaultKinds; seed++ {
		f.Add(seed)
	}
	pinned, _ := os.ReadDir(filepath.Join("testdata", "fuzz", "FuzzSimulation"))
	corpus := int(simFaultKinds) + len(pinned)
	var mu sync.Mutex
	ran, totals := 0, map[string]float64{}
	f.Cleanup(func() {
		if fuzz := flag.Lookup("test.fuzz"); ran < corpus || fuzz != nil && fuzz.Value.String() != "" {
			return // a replay or a fuzzing run: the corpus totals are not in
		}
		for _, m := range simMechanisms {
			f.Logf("%s fired %v times over %d seeds", m, totals[m], ran)
			if totals[m] == 0 {
				f.Errorf("%s never fired over the corpus", m)
			}
		}
	})
	f.Fuzz(func(t *testing.T, seed uint64) {
		run := simulate(t, seed)
		mu.Lock()
		defer mu.Unlock()
		ran++
		for _, m := range simMechanisms {
			totals[m] += run.metrics[m]
		}
	})
}

// TestSimPinnedPlans pins the faults each pinned corpus entry's plan
// arms, so retiring or reordering a simFault slot cannot silently change
// what a pinned seed reproduces. A new pinned file needs its row here.
func TestSimPinnedPlans(t *testing.T) {
	want := map[uint64]simFault{
		30:  0b000001001,
		54:  0b000001001,
		60:  0b001001001,
		115: 0b010000101,
		187: 0b010000100,
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzSimulation")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var seed uint64
		if _, err := fmt.Sscanf(string(raw), "go test fuzz v1\nuint64(%d)", &seed); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		faults, ok := want[seed]
		if !ok {
			t.Errorf("%s: seed %d has no pinned plan", e.Name(), seed)
			continue
		}
		if got := newSimPlan(seed).faults; got != faults {
			t.Errorf("%s: seed %d arms faults %09b, pinned %09b", e.Name(), seed, got, faults)
		}
	}
}

// simulate executes one seed's schedule and judges it.
func simulate(t *testing.T, seed uint64) *simRun {
	p := newSimPlan(seed)
	t.Logf("plan: cluster=%v faults=%09b rules=%v disk=%v waves=%d", p.cluster, p.faults, p.rules, p.disk, len(p.waves))
	references(t)
	leakcheck.Check(t)
	r := &simRun{
		t: t, client: &http.Client{Transport: &http.Transport{}, Timeout: 2 * time.Minute},
		accepted: map[string]simRequest{}, final: map[string]string{}, views: map[string]jobJSON{},
		completions: map[string]int{}, onDisk: map[string][][]byte{}, metrics: map[string]float64{},
	}
	crashDir := t.TempDir() // made before the peers, so removed after they stop
	n := 1
	if p.cluster {
		n = 3
	}
	r.peers = startCluster(t, n, func(i int, o *Options) {
		p.options(o, t.TempDir())
		o.Logger = log.New(completionLog{r}, "", 0)
	})
	inj := p.injector(r.peers)
	faultinject.Enable(inj)
	t.Cleanup(faultinject.Disable)
	t.Cleanup(r.idle)

	var killed *clusterPeer
	for w, wave := range p.waves {
		if w == p.event && p.faults&simCrash != 0 {
			r.crash(crashDir)
		}
		if w == p.event {
			for site, rule := range p.disk {
				inj.Set(site, rule)
			}
		}
		var victim *clusterPeer
		if w == p.event && p.faults&simKill != 0 {
			victim = r.victim()
		}
		wait := r.wave(wave)
		if victim != nil {
			time.Sleep(15 * time.Millisecond) // the wave's scatters are in flight
			r.kill(victim)
			killed = victim
		}
		wait()
		if w == p.event+2 && killed != nil {
			r.restart(killed)
			killed = nil
		}
	}
	faultinject.Disable() // heal: every fault is lifted before quiescence
	if killed != nil {
		r.restart(killed)
	}
	r.quiesce()
	t.Logf("%d responses, %d jobs accepted; counters: %v", len(r.responses), len(r.accepted), r.metrics)
	simOracle(t, r)
	return r
}

// wave sends a wave's requests 5 ms apart, so the first is in flight
// when the next arrive, and returns a wait for their responses.
func (r *simRun) wave(steps []simStep) (wait func()) {
	var wg sync.WaitGroup
	peers := r.peers
	for i, st := range steps {
		if i > 0 {
			time.Sleep(5 * time.Millisecond)
		}
		wg.Add(1)
		go func(st simStep) {
			defer wg.Done()
			ob := simResponse{req: simMenu[st.req], job: st.job}
			path, body := ob.req.path, ob.req.body
			if st.job {
				path, body = "/v1/jobs", ob.req.jobBody()
			}
			resp, err := r.client.Post(peers[st.peer%len(peers)].url+path, "application/json", strings.NewReader(body))
			if ob.err = err; err == nil {
				ob.status, ob.header = resp.StatusCode, resp.Header
				ob.body, ob.err = io.ReadAll(resp.Body)
				resp.Body.Close()
			}
			var acc struct{ ID string }
			r.mu.Lock()
			defer r.mu.Unlock()
			r.responses = append(r.responses, ob)
			if st.job && ob.status == http.StatusAccepted && json.Unmarshal(ob.body, &acc) == nil {
				r.accepted[acc.ID] = ob.req
			}
		}(st)
	}
	return wg.Wait
}

// midJob waits up to 3 s for a job on one of peers to progress without
// finishing and returns its peer and id, or nil once none is unfinished.
func (r *simRun) midJob(peers []*clusterPeer) (*clusterPeer, string) {
	for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		unfinished := false
		for _, peer := range peers {
			for _, j := range peer.s.jobs.list() {
				if v := j.json(false); v.State == jobRunning && v.ProgressDone > 0 {
					return peer, v.ID
				} else if !terminal(v) {
					unfinished = true
				}
			}
		}
		if !unfinished {
			break
		}
	}
	return nil, ""
}

// victim picks the peer to kill, one mid-job if any, and drops it.
func (r *simRun) victim() *clusterPeer {
	victim, id := r.midJob(r.peers)
	if victim == nil {
		victim = r.peers[0]
	}
	r.t.Logf("kill %s mid-job %q", victim.url, id)
	r.peers = slices.DeleteFunc(slices.Clone(r.peers), func(p *clusterPeer) bool { return p == victim })
	return victim
}

// kill stops the victim and waits for every survivor to declare it dead
// and for its jobs to be adopted or left without a replica to adopt from.
func (r *simRun) kill(victim *clusterPeer) {
	owned := victim.s.jobs.list()
	r.collect(victim)
	r.idle()
	victim.kill()
	<-victim.done
	for _, peer := range r.peers {
		r.await(func() bool { return !peer.s.cluster.PeerAlive(victim.url) }, "%s never declared the killed %s dead", peer.url, victim.url)
	}
	for _, j := range owned {
		r.await(func() bool {
			held := false
			for _, peer := range r.peers {
				if peer.s.jobs.tracked(j.id) {
					return true
				}
				names, _ := peer.s.jobs.replicas.List()
				held = held || slices.Contains(names, j.id+".replica")
			}
			return !held // with no replica left there is nothing to adopt from
		}, "no survivor adopted %s from its replica", j.id)
	}
}

// restart boots a killed peer again on its address over its jobs directory.
func (r *simRun) restart(peer *clusterPeer) {
	r.boot(peer, strings.TrimPrefix(peer.url, "http://"), peer.opts)
	r.peers = append(r.peers, peer)
	r.alive()
}

// alive waits until every peer sees every peer alive.
func (r *simRun) alive() {
	for _, p := range r.peers {
		r.await(func() bool { return p.s.cluster == nil || len(p.s.cluster.Alive()) == len(r.peers) }, "%s never saw the whole ring alive again", p.url)
	}
}

// crash models a SIGKILL mid-job: the jobs directory is copied while jobs
// write to it (torn tails included), the node stops, and a fresh New takes
// over the copy. Completions count from the done records the copy holds.
func (r *simRun) crash(dir string) {
	peer := r.peers[0]
	_, id := r.midJob(r.peers)
	r.t.Logf("crash mid-job %q", id)
	names, _ := filepath.Glob(filepath.Join(peer.opts.JobsDir, "*"))
	for _, name := range names {
		if b, err := os.ReadFile(name); err == nil { // directories do not read
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(name)), b, 0o600); err != nil {
				r.t.Fatal(err)
			}
		}
	}
	r.collect(peer)
	r.idle()
	peer.kill()
	<-peer.done // its logger writes nothing more
	for id, done := range doneRecords(dir) {
		r.completions[id] = len(done)
	}
	opts := peer.opts
	opts.JobsDir = dir
	r.boot(peer, "127.0.0.1:0", opts)
}

// boot starts a fresh server for peer on addr, logging into the run.
func (r *simRun) boot(peer *clusterPeer, addr string, opts Options) {
	opts.Logger = log.New(completionLog{r}, "", 0)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		r.t.Fatalf("listen %s: %v", addr, err)
	}
	s, err := New(opts)
	if err != nil {
		r.t.Fatalf("restart: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	peer.s, peer.url, peer.opts, peer.kill, peer.done = s, "http://"+ln.Addr().String(), opts, cancel, make(chan struct{})
	go func(done chan struct{}) {
		defer close(done)
		s.Serve(ctx, ln) //nolint:errcheck // drain errors are test noise
	}(peer.done)
}

// quiesce follows every accepted job's SSE stream to its end on the peer
// tracking it, reads the job back through a peer not
// tracking it (the cluster proxy), and checks the ring and the standbys.
func (r *simRun) quiesce() {
	for id := range r.accepted {
		for deadline := time.Now().Add(60 * time.Second); r.final[id] == "" && time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
			for _, peer := range r.peers {
				if peer.s.jobs.tracked(id) {
					r.final[id] = r.follow(peer.url + "/v1/jobs/" + id + "/events")
					break
				}
			}
		}
		reader := r.peers[0]
		for _, peer := range r.peers {
			if !peer.s.jobs.tracked(id) {
				reader = peer
			}
		}
		var v jobJSON
		if status, body := get(r.t, reader.url+"/v1/jobs/"+id); status != http.StatusOK || json.Unmarshal(body, &v) != nil {
			r.breach("job %s: GET through %s: %d %s", id, reader.url, status, body)
		}
		r.views[id] = v
	}
	r.alive()
	for _, peer := range r.peers {
		if peer.s.cluster != nil {
			r.standby(peer)
		}
		r.collect(peer)
		for id, done := range doneRecords(peer.opts.JobsDir) {
			if r.onDisk[id] = append(r.onDisk[id], done...); len(done) > 1 {
				r.breach("%s holds %d done records of job %s", peer.opts.JobsDir, len(done), id)
			}
		}
	}
}

// standby waits for repair to converge each job peer tracks: its ring
// successor tracks it too or holds a replica whose owner does.
func (r *simRun) standby(peer *clusterPeer) {
	byURL := map[string]*clusterPeer{}
	for _, p := range r.peers {
		byURL[p.url] = p
	}
	for _, j := range peer.s.jobs.list() {
		target, ok := peer.s.cluster.ReplicaFor(j.id)
		r.await(func() bool {
			succ := byURL[target]
			if !ok || succ == nil || succ.s.jobs.tracked(j.id) {
				return true
			}
			payload, err := succ.s.jobs.replicas.ReadLast(j.id + ".replica")
			var rep jobReplica
			return err == nil && json.Unmarshal(payload, &rep) == nil && byURL[rep.Owner] != nil && byURL[rep.Owner].s.jobs.tracked(j.id)
		}, "job %s of %s has no standby copy on %s", j.id, peer.url, target)
	}
}

// follow reads a job's SSE stream to its end and returns the state of its
// last frame.
func (r *simRun) follow(url string) string {
	var last jobJSON
	if resp, err := r.client.Get(url); err == nil {
		defer resp.Body.Close()
		for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
			if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok && json.Unmarshal([]byte(data), &last) != nil {
				return "malformed frame " + data
			}
		}
	}
	return last.State
}

// collect adds one server instance's /v1/metrics counters to the run.
func (r *simRun) collect(peer *clusterPeer) {
	status, body := get(r.t, peer.url+"/v1/metrics")
	var snap map[string]any
	if status != http.StatusOK || json.Unmarshal(body, &snap) != nil {
		r.t.Fatalf("metrics: %d %s", status, body)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, section := range []string{"cluster", "overload"} {
		m, _ := snap[section].(map[string]any)
		for k, v := range m {
			if x, ok := v.(float64); ok {
				r.metrics[section+"."+k] += x
			}
			routes, _ := v.(map[string]any)
			for route, n := range routes {
				x, _ := n.(float64)
				r.metrics[section+"."+k+" "+route] += x
			}
		}
	}
}

// doneRecords walks every intact frame of every job log in dir (the
// checkpoint format: an 8-byte header, then [u32 length][u32 CRC32C]
// [payload] records) and returns each job's done results.
func doneRecords(dir string) map[string][][]byte {
	out := map[string][][]byte{}
	names, _ := filepath.Glob(filepath.Join(dir, "*.job.ckpt"))
	for _, name := range names {
		b, _ := os.ReadFile(name)
		for b = b[min(8, len(b)):]; len(b) >= 8; b = b[8+binary.LittleEndian.Uint32(b):] {
			n, sum := binary.LittleEndian.Uint32(b), binary.LittleEndian.Uint32(b[4:])
			if uint64(len(b)-8) < uint64(n) || crc32.Checksum(b[8:8+n], crc32.MakeTable(crc32.Castagnoli)) != sum {
				break // a torn tail
			}
			if m, result, err := decodeRecord(b[8 : 8+n]); err == nil && m.State == jobDone {
				out[m.ID] = append(out[m.ID], result)
			}
		}
	}
	return out
}

// cachedPoints is engine-history telemetry in a sweep body.
var cachedPoints = regexp.MustCompile(`"cached_points": ?\d+,?`)

// matchesReference reports whether a 200 body or a job result is the
// fault-free answer: equal once compacted and rid of a sweep's
// cached_points, or a Monte Carlo answer that absorbed failed replicates
// (failed > 0 with replicates + failed equal to the reference's).
func matchesReference(got, ref []byte) bool {
	var g, w bytes.Buffer
	if json.Compact(&g, got) == nil && json.Compact(&w, ref) == nil &&
		bytes.Equal(cachedPoints.ReplaceAll(g.Bytes(), nil), cachedPoints.ReplaceAll(w.Bytes(), nil)) {
		return true
	}
	var gc, wc struct{ Replicates, Failed int }
	return json.Unmarshal(got, &gc) == nil && json.Unmarshal(ref, &wc) == nil &&
		gc.Failed > 0 && gc.Replicates > 0 && gc.Replicates+gc.Failed == wc.Replicates+wc.Failed
}

// simOracle is the harness's one oracle.
//
//   - Client routes: every 200 matches the fault-free single-node
//     reference (matchesReference); every shed 429 or 503 carries
//     Retry-After, except the request-timeout 503 of http.TimeoutHandler
//     (a job refused on a full disk is a 503 with Retry-After too); every
//     other 5xx names an injected fault as its cause, and is never the
//     answer to a job submit; a request the
//     generator built never gets a 4xx other than 429, and never goes
//     unanswered.
//   - Jobs: every accepted job ends done exactly once across all peers:
//     its SSE stream ends on done, GET returns done with the reference
//     result, one server logged its completion, and no job log holds two
//     done records. Once quiet, every peer sees the whole ring alive and
//     every job has a standby copy on its ring successor.
//
// Leakcheck, armed by simulate, fails the seed if a goroutine outlives it.
func simOracle(t *testing.T, r *simRun) {
	t.Helper()
	sheds := map[string]int{}
	for _, ob := range r.responses {
		what, ref := ob.req.path+" "+ob.req.body, simRefs.m[ob.req.path+ob.req.body]
		if ob.job {
			what = "job " + ob.req.jobBody()
		}
		switch {
		case ob.err != nil:
			t.Errorf("%s: no answer: %v", what, ob.err)
		case ob.job && ob.status == http.StatusAccepted:
		case ob.status == http.StatusOK && (ob.job || !matchesReference(ob.body, ref)):
			t.Errorf("%s: 200 diverges from the single-node reference:\n%s\nvs\n%s", what, ob.body, ref)
		case ob.status == http.StatusServiceUnavailable && bytes.Contains(ob.body, []byte(`"request timed out"`)):
			// http.TimeoutHandler's answer: a timeout, not a shed.
		case ob.status == http.StatusTooManyRequests || ob.status == http.StatusServiceUnavailable:
			if !ob.job {
				sheds[ob.req.path]++
			}
			if ob.header.Get("Retry-After") == "" {
				t.Errorf("%s: shed %d without Retry-After: %s", what, ob.status, ob.body)
			}
		case ob.status >= 400 && ob.status < 500:
			t.Errorf("%s: %d to a valid request: %s", what, ob.status, ob.body)
		case ob.status >= 500 && ob.job:
			t.Errorf("%s: %d to a job submit: %s", what, ob.status, ob.body)
		case ob.status >= 500 && !bytes.Contains(ob.body, []byte("faultinject: injected")):
			t.Errorf("%s: %d not caused by an injected fault: %s", what, ob.status, ob.body)
		}
	}
	for _, path := range []string{"/v1/sweep", "/v1/uncertainty", "/v1/search"} {
		if n := r.metrics["overload.per_route_shed POST "+path]; float64(sheds[path]) != n {
			t.Errorf("servers counted %v sheds on %s, the client saw %d", n, path, sheds[path])
		}
	}
	for id, req := range r.accepted {
		v, ref := r.views[id], simRefs.m[req.path+req.body]
		if r.final[id] != jobDone || v.State != jobDone {
			t.Errorf("job %s (%s): stream ended %q, view %+v; want done", id, req.jobBody(), r.final[id], v)
		} else if !matchesReference(v.Result, ref) {
			t.Errorf("job %s result diverges from the reference:\n%s\nvs\n%s", id, v.Result, ref)
		}
		if n := r.completions[id]; n != 1 {
			t.Errorf("job %s completed %d times across the peers, want exactly once", id, n)
		}
		if !slices.ContainsFunc(r.onDisk[id], func(b []byte) bool { return matchesReference(b, ref) }) {
			t.Errorf("job %s: no reference result on disk after the heal", id)
		}
	}
	for _, b := range r.breaches {
		t.Error(b)
	}
}
