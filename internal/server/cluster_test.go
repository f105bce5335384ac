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
	"sort"
	"sync"
	"testing"
	"time"

	"accelwall/internal/cluster"
	"accelwall/internal/montecarlo"
)

// clusterPeer is one in-process accelwalld peer bound to a real loopback
// listener, individually killable to simulate peer death.
type clusterPeer struct {
	s    *Server
	url  string
	opts Options // what New was given, for a restart over the same state
	kill context.CancelFunc
	done chan struct{}
}

// startCluster boots n peers on loopback listeners. The listeners are
// bound first so every peer knows the full membership URLs before any
// server starts. mutate, when non-nil, adjusts each peer's Options
// (e.g. a per-peer jobs directory).
func startCluster(t testing.TB, n int, mutate func(i int, o *Options)) []*clusterPeer {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	peers := make([]*clusterPeer, n)
	for i := range peers {
		opts := Options{
			ClusterPeers:    urls,
			ClusterSelf:     urls[i],
			ProbeInterval:   20 * time.Millisecond,
			ShutdownTimeout: 10 * time.Second,
		}
		if mutate != nil {
			mutate(i, &opts)
		}
		s, err := New(opts)
		if err != nil {
			t.Fatalf("peer %d: New: %v", i, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		p := &clusterPeer{s: s, url: urls[i], opts: opts, kill: cancel, done: make(chan struct{})}
		go func(ln net.Listener) {
			defer close(p.done)
			p.s.Serve(ctx, ln) //nolint:errcheck // drain errors are test noise
		}(lns[i])
		peers[i] = p
	}
	t.Cleanup(func() {
		for _, p := range peers {
			p.kill()
		}
		for _, p := range peers {
			<-p.done
		}
	})
	// Membership barrier: on a loaded host a peer's accept loop can lag
	// its neighbours' probes long enough to be declared dead at startup,
	// which would silently turn a scatter test into a local-compute test.
	// Wait until every peer sees the full ring alive (one successful
	// probe resurrects, so this converges). A single peer runs without a
	// cluster (New returns none for one member), so there is no ring to
	// wait for.
	deadline := time.Now().Add(10 * time.Second)
	for _, p := range peers {
		if n < 2 {
			break
		}
		for len(p.s.cluster.Alive()) < n {
			if time.Now().After(deadline) {
				t.Fatalf("peer %s never saw all %d peers alive", p.url, n)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return peers
}

// remoteSliceCoordinator picks a peer that does not own every one of a
// scatter's slices under key, so a request it coordinates sends at least
// one slice to another peer. Slice i is placed on the ring at
// "<key>#<i>"; the listeners' ports are random, so peers[0] alone can own
// them all.
func remoteSliceCoordinator(t testing.TB, peers []*clusterPeer, key string, slices int) int {
	t.Helper()
	ring := peers[0].s.cluster.Ring()
	for i, p := range peers {
		for slice := 0; slice < slices; slice++ {
			if ring.Owner(fmt.Sprintf("%s#%d", key, slice)) != p.url {
				return i
			}
		}
	}
	t.Fatal("one peer owns every slice of a multi-peer ring")
	return -1
}

// singleNodeReference computes the canonical single-node response bytes
// for a request — the bytes every cluster response must match exactly.
func singleNodeReference(t testing.TB, path, body string) []byte {
	t.Helper()
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	ref, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference %s: %d %s", path, resp.StatusCode, ref)
	}
	return ref
}

// A sweep grid wide enough (48 points) that every tested shard count
// actually scatters rather than collapsing to one local slice.
const clusterSweepBody = `{"workload": "FFT", "objective": "efficiency", "include_points": true,
	"grid": {"nodes": [45, 32, 22, 16], "partitions": [1, 2, 4], "simplifications": [1, 2], "fusion": [false, true]}}`

// TestClusterSweepEquivalence: the scattered grid sweep returns exactly
// the bytes a single node produces, at every shard count.
func TestClusterSweepEquivalence(t *testing.T) {
	ref := singleNodeReference(t, "/v1/sweep", clusterSweepBody)
	var body sweepRequest
	if err := json.Unmarshal([]byte(clusterSweepBody), &body); err != nil || body.resolve() != nil {
		t.Fatal("malformed sweep body")
	}
	grid := gridPoints(*body.grid) // every point of this grid is a distinct design
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			peers := startCluster(t, shards, nil)
			coord := remoteSliceCoordinator(t, peers, engineKey("FFT", 0), len(splitRange(grid, shards, minSweepSlice)))
			status, got := post(t, peers[coord].url+"/v1/sweep", clusterSweepBody)
			if status != http.StatusOK {
				t.Fatalf("cluster sweep: %d %s", status, got)
			}
			if !bytes.Equal(got, ref) {
				t.Fatalf("cluster sweep diverges from single node at %d shards:\n%s\nvs\n%s", shards, got, ref)
			}
			if n := peers[coord].s.cluster.Metrics.Scatters.Load(); n == 0 {
				t.Fatal("coordinator never scattered; the test exercised nothing")
			}
			var served int64
			for i, p := range peers {
				if i != coord {
					served += p.s.metrics.ClusterSlicesServed.Value()
				}
			}
			if served == 0 {
				t.Fatal("no slice reached a remote peer")
			}
		})
	}
}

// TestClusterUncertaintyEquivalence: the Monte Carlo replicate scatter
// merges to bytes identical to a single-node run.
func TestClusterUncertaintyEquivalence(t *testing.T) {
	body := `{"replicates": 200, "seed": 7, "corpus_seed": 7}`
	ref := singleNodeReference(t, "/v1/uncertainty", body)
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			peers := startCluster(t, shards, nil)
			status, got := post(t, peers[0].url+"/v1/uncertainty", body)
			if status != http.StatusOK {
				t.Fatalf("cluster uncertainty: %d %s", status, got)
			}
			if !bytes.Equal(got, ref) {
				t.Fatalf("cluster uncertainty diverges from single node at %d shards", shards)
			}
		})
	}
}

// TestClusterSearchEquivalence: the search trajectory stays on the
// coordinator and batch evaluations scatter, so the full search result —
// frontier, best, trace — is byte-identical at every shard count.
func TestClusterSearchEquivalence(t *testing.T) {
	body := `{"workload": "FFT", "population": 16, "generations": 3, "seed": 5}`
	ref := singleNodeReference(t, "/v1/search", body)
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			peers := startCluster(t, shards, nil)
			status, got := post(t, peers[0].url+"/v1/search", body)
			if status != http.StatusOK {
				t.Fatalf("cluster search: %d %s", status, got)
			}
			if !bytes.Equal(got, ref) {
				t.Fatalf("cluster search diverges from single node at %d shards", shards)
			}
		})
	}
}

// TestClusterAnyPeerCoordinates: the same request answered by different
// peers produces the same bytes — there is no designated coordinator.
func TestClusterAnyPeerCoordinates(t *testing.T) {
	ref := singleNodeReference(t, "/v1/sweep", clusterSweepBody)
	peers := startCluster(t, 3, nil)
	for i, p := range peers {
		status, got := post(t, p.url+"/v1/sweep", clusterSweepBody)
		if status != http.StatusOK {
			t.Fatalf("peer %d sweep: %d %s", i, status, got)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("peer %d's answer diverges from single node", i)
		}
	}
}

// post2 is post without a testing.TB, for goroutines that cannot Fatal.
func post2(url, body string) (int, []byte) {
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return 0, []byte(err.Error())
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	return resp.StatusCode, buf.Bytes()
}

// TestClusterMetricsExposed: /v1/metrics on a cluster peer carries the
// cluster section with membership and scatter counters.
func TestClusterMetricsExposed(t *testing.T) {
	peers := startCluster(t, 2, nil)
	status, body := post(t, peers[0].url+"/v1/sweep", clusterSweepBody)
	if status != http.StatusOK {
		t.Fatalf("sweep: %d %s", status, body)
	}
	status, body = get(t, peers[0].url+"/v1/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: %d", status)
	}
	for _, want := range []string{`"cluster"`, `"scatters"`, `"alive"`, `"slices_served"`, `"steals"`,
		`"replica_push_fails"`, `"repair_runs"`, `"repair_pushes"`, `"repair_gcs"`} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("metrics missing %s", want)
		}
	}
}

// TestSplitRange pins the slicing arithmetic the equivalence story
// depends on: contiguous, complete, minimum-width ranges.
func TestSplitRange(t *testing.T) {
	cases := []struct {
		n, shards, min int
		want           int // len(ranges)
	}{
		{48, 3, 16, 3},
		{48, 4, 16, 3}, // width floor shrinks the shard count
		{200, 4, 50, 4},
		{16, 2, 8, 2},
		{10, 4, 16, 1}, // too small to scatter
		{60, 3, 50, 1}, // floor, not ceil: two 30-wide slices would undercut the width floor
		{0, 4, 16, 0},
		{5, 0, 1, 0},
	}
	for _, c := range cases {
		got := splitRange(c.n, c.shards, c.min)
		if len(got) != c.want {
			t.Errorf("splitRange(%d, %d, %d) = %d ranges, want %d", c.n, c.shards, c.min, len(got), c.want)
			continue
		}
		prev := 0
		for _, rg := range got {
			if rg[0] != prev || rg[1] <= rg[0] {
				t.Errorf("splitRange(%d, %d, %d): bad range %v after %d", c.n, c.shards, c.min, rg, prev)
			}
			prev = rg[1]
		}
		if len(got) > 0 && prev != c.n {
			t.Errorf("splitRange(%d, %d, %d) covers [0, %d), want [0, %d)", c.n, c.shards, c.min, prev, c.n)
		}
	}
}

// BenchmarkClusterSweep measures aggregate warm-sweep throughput and tail
// latency at 1 peer vs 3 peers, spraying requests round-robin across the
// membership. scripts/bench.sh runs this to emit BENCH_cluster.json.
func BenchmarkClusterSweep(b *testing.B) {
	for _, n := range []int{1, 3} {
		b.Run(fmt.Sprintf("peers=%d", n), func(b *testing.B) {
			peers := startCluster(b, n, nil)
			body := []byte(`{"workload": "FFT", "preset": "reduced"}`)
			// Warm every peer: compile + simulate once, then steady state.
			for _, p := range peers {
				status, resp := post2(p.url+"/v1/sweep", string(body))
				if status != http.StatusOK {
					b.Fatalf("warmup: %d %s", status, resp)
				}
			}
			var (
				mu   sync.Mutex
				lats []time.Duration
				next int64
			)
			b.ResetTimer()
			start := time.Now()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					mu.Lock()
					i := next
					next++
					mu.Unlock()
					url := peers[i%int64(n)].url + "/v1/sweep"
					t0 := time.Now()
					resp, err := http.Post(url, "application/json", bytes.NewReader(body))
					if err != nil {
						b.Fatal(err)
					}
					var buf bytes.Buffer
					buf.ReadFrom(resp.Body) //nolint:errcheck
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						b.Fatalf("status %d", resp.StatusCode)
					}
					mu.Lock()
					lats = append(lats, time.Since(t0))
					mu.Unlock()
				}
			})
			elapsed := time.Since(start)
			b.StopTimer()
			if len(lats) == 0 {
				return
			}
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			p99 := lats[len(lats)*99/100]
			b.ReportMetric(float64(len(lats))/elapsed.Seconds(), "req/s")
			b.ReportMetric(float64(p99.Microseconds())/1000, "p99_ms")
			if peers[0].s.cluster != nil {
				b.ReportMetric(float64(peers[0].s.cluster.Metrics.Steals.Load()), "steals")
			}
		})
	}
}

// TestExecuteSliceRejectsBadConfigFirst: an uncertainty slice with a bad
// config is refused before the peer builds a corpus for it. A corpus
// build costs thousands of allocations; the refusal costs a handful.
func TestExecuteSliceRejectsBadConfigFirst(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, mc := range []montecarlo.Config{
		{Replicates: 64, Confidence: 2},
		{Replicates: 64, CMOSJitter: -0.5},
	} {
		req := &cluster.SliceRequest{Kind: cluster.KindUncertainty, Lo: 0, Hi: 32, MC: &mc}
		var sliceErr error
		allocs := testing.AllocsPerRun(3, func() {
			_, sliceErr = s.executeSlice(context.Background(), req)
		})
		if sliceErr == nil {
			t.Fatalf("config %+v: slice accepted", mc)
		}
		if allocs > 50 {
			t.Errorf("config %+v: refusal made %.0f allocations, want a validation-only rejection", mc, allocs)
		}
	}
}
