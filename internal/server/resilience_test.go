// Resilience chaos suites: deterministic partitions on the faultinject
// transport seams driving circuit breakers, anti-entropy repair, replica
// adoption, prober resurrection, and degraded-mode stale serving —
// always asserting byte-identity with a single node where a response is
// produced at all.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"accelwall/internal/cluster"
	"accelwall/internal/faultinject"
	"accelwall/internal/leakcheck"
	"accelwall/internal/montecarlo"
)

// pumpUncertaintyBody renders a scatterable Monte Carlo request unique
// per round. The uncertainty scatter key varies with the seed, so slice
// placement rotates around the ring and every directed link carries
// frames within a few rounds — unlike sweeps, whose constant engine key
// pins slices to the same peers for cache affinity.
func pumpUncertaintyBody(round int) string {
	return fmt.Sprintf(`{"replicates": 150, "seed": %d, "corpus_seed": 7}`, 1000+round)
}

// TestClusterPartitionBreakerFlapByteIdentity: an asymmetric partition
// (p0 cannot reach p1; everything else flows) drops exactly the first 4
// slice frames on that link. The breaker trips after 2, open-state
// scatters skip the peer, half-open probes re-trip on the lingering
// drops, and the 5th frame heals the link and closes the breaker. Every
// response along the way — and a fresh sweep after heal — is
// byte-identical to a single node.
func TestClusterPartitionBreakerFlapByteIdentity(t *testing.T) {
	leakcheck.Check(t)
	ref := singleNodeReference(t, "/v1/sweep", clusterSweepBody)
	// The cooldown must outlast a whole round, or no request lands while
	// the breaker is open and nothing is skipped: a race-mode round on
	// one CPU takes about 0.5 s.
	peers := startCluster(t, 3, func(i int, o *Options) {
		o.BreakerThreshold = 2
		o.BreakerCooldown = 2 * time.Second
	})
	link := peers[0].url + "->" + peers[1].url
	inj := faultinject.New(1).SetTransport(cluster.SiteTransportSlice,
		func(l string, n uint64) faultinject.TransportOp {
			if l == link && n <= 4 {
				return faultinject.TransportOp{Drop: true}
			}
			return faultinject.TransportOp{}
		})
	faultinject.Enable(inj)
	t.Cleanup(faultinject.Disable)

	m := &peers[0].s.cluster.Metrics
	deadline := time.Now().Add(30 * time.Second)
	for round := 0; ; round++ {
		status, got := post(t, peers[0].url+"/v1/uncertainty", pumpUncertaintyBody(round))
		if status != http.StatusOK {
			t.Fatalf("round %d uncertainty under partition: %d %s", round, status, got)
		}
		state := peers[0].s.cluster.BreakerStates()[peers[1].url]
		if m.BreakerTrips.Load() >= 1 && m.BreakerSkips.Load() >= 1 &&
			inj.TransportAttempts(cluster.SiteTransportSlice, link) > 4 && state == "closed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never flapped and healed: trips=%d skips=%d attempts=%d state=%s",
				m.BreakerTrips.Load(), m.BreakerSkips.Load(),
				inj.TransportAttempts(cluster.SiteTransportSlice, link), state)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Healed link, closed breaker: the canonical sweep must match a
	// single node byte for byte.
	status, got := post(t, peers[0].url+"/v1/sweep", clusterSweepBody)
	if status != http.StatusOK {
		t.Fatalf("sweep after heal: %d %s", status, got)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("sweep after breaker flap diverges from single node")
	}
}

// TestClusterPartitionDuplicateFrames: every slice frame is delivered
// twice. Receiver idempotency must keep the scattered sweep
// byte-identical to a single node.
func TestClusterPartitionDuplicateFrames(t *testing.T) {
	leakcheck.Check(t)
	ref := singleNodeReference(t, "/v1/sweep", clusterSweepBody)
	peers := startCluster(t, 3, nil)
	inj := faultinject.New(1).SetTransport(cluster.SiteTransportSlice,
		func(string, uint64) faultinject.TransportOp {
			return faultinject.TransportOp{Duplicate: true}
		})
	faultinject.Enable(inj)
	t.Cleanup(faultinject.Disable)

	status, got := post(t, peers[0].url+"/v1/sweep", clusterSweepBody)
	if status != http.StatusOK {
		t.Fatalf("sweep with duplicated frames: %d %s", status, got)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("sweep with duplicated frames diverges from single node")
	}
	if peers[0].s.cluster.Metrics.Scatters.Load() == 0 {
		t.Fatal("coordinator never scattered; the test exercised nothing")
	}
}

// TestClusterRepairReplicaConvergence: with the replica-push link fully
// partitioned, a durable job's standby copy cannot land anywhere and the
// push retries exhaust (replica_push_fails). After the partition heals,
// the anti-entropy sweep re-pushes from durable state until the replica
// sits on the job's current ring successor.
func TestClusterRepairReplicaConvergence(t *testing.T) {
	leakcheck.Check(t)
	peers := startCluster(t, 2, func(i int, o *Options) {
		o.JobsDir = t.TempDir()
		o.RepairInterval = time.Hour // quiet the loop; the test steps repairOnce
	})
	var healed atomic.Bool
	inj := faultinject.New(1).SetTransport(cluster.SiteTransportReplicate,
		func(string, uint64) faultinject.TransportOp {
			if !healed.Load() {
				return faultinject.TransportOp{Drop: true}
			}
			return faultinject.TransportOp{}
		})
	faultinject.Enable(inj)
	t.Cleanup(faultinject.Disable)

	body := `{"kind": "uncertainty", "checkpoint_every": 1,
		"uncertainty": {"replicates": 60, "seed": 3, "corpus_seed": 3, "workers": 1}}`
	id := submitJob(t, peers[0].url, body)
	waitForJob(t, peers[0].url, id, terminal)

	var j *job
	for _, cand := range peers[0].s.jobs.list() {
		if cand.id == id {
			j = cand
		}
	}
	if j == nil {
		t.Fatalf("job %s not tracked by its owner", id)
	}

	// Wait until the push retries exhausted AND the replica worker went
	// idle with no frame queued — otherwise a still-draining push could
	// land the replica after heal without repair's involvement.
	m := &peers[0].s.cluster.Metrics
	deadline := time.Now().Add(30 * time.Second)
	for {
		j.mu.Lock()
		settled := !j.replActive && j.replBody == nil && !j.replOK
		j.mu.Unlock()
		if settled && m.ReplicaPushFails.Load() >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica push never exhausted its retries under the partition")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if replicaNames(t, peers[1])[id+".replica"] {
		t.Fatal("replica reached the successor through a fully partitioned link")
	}

	healed.Store(true)
	deadline = time.Now().Add(30 * time.Second)
	for !replicaNames(t, peers[1])[id+".replica"] {
		if time.Now().After(deadline) {
			t.Fatalf("repair never converged the replica after heal (repair_pushes=%d)",
				m.RepairPushes.Load())
		}
		peers[0].s.repairOnce()
		time.Sleep(20 * time.Millisecond)
	}
	if m.RepairPushes.Load() == 0 {
		t.Fatal("replica converged without the repair loop pushing it")
	}
}

// replicaNames snapshots one peer's replica store as a set.
func replicaNames(t *testing.T, p *clusterPeer) map[string]bool {
	t.Helper()
	names, err := p.s.jobs.replicas.List()
	if err != nil {
		t.Fatalf("replica list: %v", err)
	}
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return set
}

// TestClusterAdoptedJobReplicaRepaired: the regression for adopted jobs
// silently losing their standby copy. After a survivor adopts a dead
// owner's job, the adopter must push a fresh replica — owned by the
// adopter — onto its own ring successor, so a second failure still
// cannot lose the job.
func TestClusterAdoptedJobReplicaRepaired(t *testing.T) {
	leakcheck.Check(t)
	inj := faultinject.New(1).Set(montecarlo.SiteReplicate, faultinject.Rule{
		Mode: faultinject.ModeDelay, Every: 1, Delay: 2 * time.Millisecond,
	})
	faultinject.Enable(inj)
	t.Cleanup(faultinject.Disable)

	peers := startCluster(t, 3, func(i int, o *Options) {
		o.JobsDir = t.TempDir()
	})
	body := `{"kind": "uncertainty", "checkpoint_every": 1,
		"uncertainty": {"replicates": 600, "seed": 7, "corpus_seed": 7, "workers": 1}}`
	id := submitJob(t, peers[0].url, body)
	waitForJob(t, peers[0].url, id, func(j jobJSON) bool { return j.ProgressDone >= 100 })
	time.Sleep(50 * time.Millisecond) // let the async replica push land
	peers[0].kill()
	<-peers[0].done

	// Wait out adoption and completion; 404s are legitimate until the
	// failure detector declares the owner dead.
	deadline := time.Now().Add(120 * time.Second)
	for {
		status, body := get(t, peers[1].url+"/v1/jobs/"+id)
		var j jobJSON
		if status == http.StatusOK && json.Unmarshal(body, &j) == nil && terminal(j) {
			if j.State != jobDone {
				t.Fatalf("adopted job did not finish: %+v", j)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never adopted and finished; last: %d %s", id, status, body)
		}
		time.Sleep(10 * time.Millisecond)
	}

	var adopter, standby *clusterPeer
	for _, p := range peers[1:] {
		if p.s.metrics.ClusterJobsAdopted.Value() > 0 {
			adopter = p
		} else {
			standby = p
		}
	}
	if adopter == nil || standby == nil {
		t.Fatal("could not identify the adopter among the survivors")
	}

	// The adopter's re-replication is asynchronous; poll the standby's
	// store for a copy owned by the adopter.
	deadline = time.Now().Add(30 * time.Second)
	for {
		if replicaNames(t, standby)[id+".replica"] {
			payload, err := standby.s.jobs.replicas.ReadLast(id + ".replica")
			if err == nil {
				var rep jobReplica
				if err := json.Unmarshal(payload, &rep); err != nil {
					t.Fatalf("replica payload: %v", err)
				}
				if rep.Owner != adopter.url {
					t.Fatalf("replica owner %s, want adopter %s", rep.Owner, adopter.url)
				}
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("adopted job was never re-replicated onto the adopter's successor")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterProberResurrectionRepairsRing: probes into one peer are
// dropped long enough for the failure detector to declare it dead, then
// flow again. One successful probe must resurrect the peer, restore its
// ring ownership on every observer, and leave scattered sweeps
// byte-identical to a single node.
func TestClusterProberResurrectionRepairsRing(t *testing.T) {
	leakcheck.Check(t)
	ref := singleNodeReference(t, "/v1/sweep", clusterSweepBody)
	peers := startCluster(t, 3, nil)
	victim := peers[2].url
	inj := faultinject.New(1).SetTransport(cluster.SiteTransportProbe,
		func(link string, n uint64) faultinject.TransportOp {
			if strings.HasSuffix(link, "->"+victim) && n <= 5 {
				return faultinject.TransportOp{Drop: true}
			}
			return faultinject.TransportOp{}
		})
	faultinject.Enable(inj)
	t.Cleanup(faultinject.Disable)

	// Both observers must walk the full death -> resurrection arc.
	deadline := time.Now().Add(30 * time.Second)
	for _, p := range peers[:2] {
		m := &p.s.cluster.Metrics
		for m.Deaths.Load() == 0 || m.Resurrections.Load() == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%s: deaths=%d resurrections=%d; the arc never completed",
					p.url, m.Deaths.Load(), m.Resurrections.Load())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for _, p := range peers {
		for len(p.s.cluster.Alive()) < 3 {
			if time.Now().After(deadline) {
				t.Fatalf("%s never saw the full membership alive again", p.url)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Ring ownership under the healed failure view is the static ring.
	for _, key := range []string{"a", "b", "c", "d", "e"} {
		if got, want := peers[0].s.cluster.OwnerOf(key), peers[0].s.cluster.Ring().Owner(key); got != want {
			t.Errorf("OwnerOf(%q) = %s after resurrection, want %s", key, got, want)
		}
	}
	status, got := post(t, peers[0].url+"/v1/sweep", clusterSweepBody)
	if status != http.StatusOK {
		t.Fatalf("sweep after resurrection: %d %s", status, got)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("sweep after resurrection diverges from single node")
	}
}

// TestDegradedStaleServing: with every execution slot pinned and the
// admission controller certain to shed, requests whose byte-identical
// answer already sits in a cache are served 200 with stale-marking
// headers instead of 429 — and cold requests still shed.
func TestDegradedStaleServing(t *testing.T) {
	s := newTestServer(t, Options{MaxInflight: 1, RequestTimeout: 30 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bodies := map[string]string{
		"/v1/sweep": `{"workload": "FFT", "objective": "efficiency",
			"grid": {"nodes": [45, 32], "partitions": [1, 2], "simplifications": [1], "fusion": [false]}}`,
		"/v1/uncertainty": `{"replicates": 60, "seed": 11, "corpus_seed": 11}`,
		"/v1/search":      `{"workload": "FFT", "population": 8, "generations": 2, "seed": 9}`,
	}
	warm := make(map[string][]byte, len(bodies))
	for path, body := range bodies {
		status, got := post(t, ts.URL+path, body)
		if status != http.StatusOK {
			t.Fatalf("warmup %s: %d %s", path, status, got)
		}
		warm[path] = got
	}

	// Pin the only slot and poison the expected queue wait: every heavy
	// arrival is now deadline-shed at admission.
	drain := occupySlots(t, s.adm)
	defer drain()
	s.adm.setServiceEWMA(10 * time.Minute)

	for path, body := range bodies {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got := readAll(t, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("degraded %s: %d %s, want stale 200", path, resp.StatusCode, got)
		}
		if h := resp.Header.Get("X-Accelwall-Degraded"); h != "stale" {
			t.Errorf("degraded %s: X-Accelwall-Degraded = %q, want stale", path, h)
		}
		if h := resp.Header.Get("Warning"); !strings.HasPrefix(h, "110 ") {
			t.Errorf("degraded %s: Warning = %q, want a 110 warn-code", path, h)
		}
		if !bytes.Equal(got, warm[path]) {
			t.Errorf("degraded %s body diverges from the fresh response", path)
		}
	}
	if got := s.metrics.Degraded.Value(); got != int64(len(bodies)) {
		t.Errorf("degraded_served = %d, want %d", got, len(bodies))
	}
	if got := s.metrics.Shed429.Value(); got != 0 {
		t.Errorf("shed_429 = %d after degraded serving, want 0", got)
	}

	// A cold body has nothing cached to serve; it must shed as before.
	cold := `{"workload": "FFT", "objective": "efficiency",
		"grid": {"nodes": [22, 16], "partitions": [4], "simplifications": [2], "fusion": [true]}}`
	status, _ := post(t, ts.URL+"/v1/sweep", cold)
	if status != http.StatusTooManyRequests {
		t.Fatalf("cold request under overload: %d, want 429", status)
	}
	if got := s.metrics.Shed429.Value(); got != 1 {
		t.Errorf("shed_429 = %d after the cold request, want 1", got)
	}
}
