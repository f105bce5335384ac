package sweep

import (
	"context"
	"math/rand"
	"testing"

	"accelwall/internal/aladdin"
	"accelwall/internal/workloads"
)

// TestRunMatchesRunParallelAllWorkloads is the sweep-level equivalence
// suite: over the Reduced() grid, the sequential reference and the pooled
// engine must produce point-for-point identical results for every Table IV workload.
func TestRunMatchesRunParallelAllWorkloads(t *testing.T) {
	p := Reduced()
	for _, spec := range workloads.All() {
		spec := spec
		t.Run(spec.Abbrev, func(t *testing.T) {
			g, err := spec.Build(0)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := refRun(g, p)
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := runParallel(g, p, 4)
			if err != nil {
				t.Fatal(err)
			}
			if len(serial) != len(parallel) {
				t.Fatalf("Run returned %d points, RunParallel %d", len(serial), len(parallel))
			}
			for i := range serial {
				if serial[i] != parallel[i] {
					t.Fatalf("point %d differs:\nRun         %+v\nRunParallel %+v", i, serial[i], parallel[i])
				}
			}
		})
	}
}

// TestAttributeMatchesAttributeParallel pins the prewarmed decomposition to
// the serial one for both objectives.
func TestAttributeMatchesAttributeParallel(t *testing.T) {
	g := buildApp(t, "S3D", 3)
	p := tiny()
	for _, o := range []Objective{Performance, Efficiency} {
		serial, err := refAttribute("S3D", g, p, o)
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := attributeParallel("S3D", g, p, o, 4)
		if err != nil {
			t.Fatal(err)
		}
		if serial != parallel {
			t.Errorf("%v decomposition differs:\nAttribute         %+v\nAttributeParallel %+v", o, serial, parallel)
		}
	}
	if _, err := attributeParallel("S3D", nil, p, Performance, 2); err == nil {
		t.Error("nil graph should error")
	}
	if _, err := attributeParallel("S3D", g, Params{}, Performance, 2); err == nil {
		t.Error("empty params should error")
	}
}

// TestBatchMatchesSequentialAllWorkloads pins the population-evaluation
// seam the search drives: for every Table IV workload, the grid's unique
// design keys run through one pooled Engine.EvaluateBatchContext call must
// be bit-identical to the same keys run through sequential Simulate calls
// on a separate Compiled, whose schedule cache the pool cannot share.
func TestBatchMatchesSequentialAllWorkloads(t *testing.T) {
	p := Reduced()
	for _, spec := range workloads.All() {
		spec := spec
		t.Run(spec.Abbrev, func(t *testing.T) {
			g, err := spec.Build(0)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := NewEngine(g)
			if err != nil {
				t.Fatal(err)
			}
			uniques, err := eng.UniqueDesigns(p)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := aladdin.Compile(g)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.EvaluateBatchContext(context.Background(), uniques, 4)
			if err != nil {
				t.Fatal(err)
			}
			for i, d := range uniques {
				want, err := seq.Simulate(d)
				if err != nil {
					t.Fatal(err)
				}
				if got[i] != want {
					t.Fatalf("design %d (%+v):\nbatch      %+v\nsequential %+v", i, d, got[i], want)
				}
			}
		})
	}
}

// TestIncrementalMatchesColdWalks pins the incremental re-simulation path:
// every design served by a warm engine (where most points reuse a cached
// or adjacent schedule summary) must be bit-identical to the same design
// on a freshly compiled engine whose first walk is necessarily cold, and
// the warm engine's counters must prove reuse actually happened.
func TestIncrementalMatchesColdWalks(t *testing.T) {
	g := buildApp(t, "FFT", 0)
	r, err := newRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	uniques := r.uniqueDesigns(tiny())
	warm, err := aladdin.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range uniques {
		got, err := warm.Simulate(d)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := aladdin.Compile(g)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.Simulate(d)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("design %+v:\nincremental %+v\ncold        %+v", d, got, want)
		}
	}
	walks, hits := warm.ScheduleCacheStats()
	if hits == 0 {
		t.Error("warm engine reused no schedule summaries")
	}
	if walks >= uint64(len(uniques)) {
		t.Errorf("no incremental reuse: %d walks for %d designs", walks, len(uniques))
	}
}

// TestRandomChunkOrderingsProduceIdenticalPoints is the property test over
// scheduling order: feeding the grid's unique designs to one shared
// Compiled in random permutations, then assembling the sweep in
// enumeration order, must reproduce Run's []Point exactly. This is what
// licenses the pool's dynamic chunk claiming — results can never depend
// on which worker simulated which designs, in what order, against which
// state of the schedule-class cache.
func TestRandomChunkOrderingsProduceIdenticalPoints(t *testing.T) {
	g := buildApp(t, "S3D", 0)
	p := tiny()
	want, err := refRun(g, p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	uniques := r.uniqueDesigns(p)
	c, err := aladdin.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		order := make([]aladdin.Design, len(uniques))
		copy(order, uniques)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		memo := make(map[aladdin.Design]aladdin.Result, len(order))
		for _, d := range order {
			res, err := c.Simulate(d)
			if err != nil {
				t.Fatal(err)
			}
			memo[d] = res
		}
		got := make([]Point, 0, len(want))
		for _, d := range p.enumerate() {
			res, ok := memo[r.keyOf(d)]
			if !ok {
				t.Fatalf("trial %d: design %+v missing from memo", trial, d)
			}
			res.Design = d
			got = append(got, Point{Design: d, Result: res})
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d points, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: point %d differs:\n got %+v\nwant %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestRunParallelWorkerCountsBitIdentical sweeps the pool width: every
// worker count must reproduce the serial sweep point for point while
// workers share one schedule-class cache.
func TestRunParallelWorkerCountsBitIdentical(t *testing.T) {
	g := buildApp(t, "SMV", 0)
	p := tiny()
	want, err := refRun(g, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		got, err := runParallel(g, p, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d points, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: point %d differs:\n got %+v\nwant %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestCacheKeyNormalizesDefaults: a design spelled with zero-value defaults
// (ClockGHz 0 meaning 1 GHz, MemoryBanks 0 meaning banked with the
// datapath) and its explicit-default spelling must land in one cache slot
// and report identical simulation results.
func TestCacheKeyNormalizesDefaults(t *testing.T) {
	g := buildApp(t, "RED", 32)
	r, err := newRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	zero := aladdin.Design{NodeNM: 45, Partition: 16, Simplification: 2}
	explicit := aladdin.Design{NodeNM: 45, Partition: 16, Simplification: 2, ClockGHz: 1, MemoryBanks: 16}
	a, err := r.simulate(zero)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.simulate(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.cache) != 1 {
		t.Errorf("cache has %d entries, want 1 (zero and explicit defaults collapsed)", len(r.cache))
	}
	if a.Cycles != b.Cycles || a.Energy != b.Energy || a.Area != b.Area {
		t.Errorf("default spellings disagree: %+v vs %+v", a, b)
	}
	if a.Design != zero {
		t.Errorf("reported design %+v, want the requested %+v", a.Design, zero)
	}
	if b.Design != explicit {
		t.Errorf("reported design %+v, want the requested %+v", b.Design, explicit)
	}
}

// TestCacheKeyClampFollowsBanks: when MemoryBanks is defaulted, the
// normalized key's banks must track the clamped partition, matching what
// the simulator would have derived — partition clamping and bank
// defaulting interact.
func TestCacheKeyClampFollowsBanks(t *testing.T) {
	g := buildApp(t, "RED", 32) // 31 compute ops
	r, err := newRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	over := aladdin.Design{NodeNM: 45, Partition: 65536, Simplification: 1}
	key := r.keyOf(over)
	if key.Partition != r.maxP {
		t.Errorf("clamped partition = %d, want %d", key.Partition, r.maxP)
	}
	if key.MemoryBanks != r.maxP {
		t.Errorf("defaulted banks = %d, want the clamped partition %d", key.MemoryBanks, r.maxP)
	}
	// The normalized key must simulate identically to the legacy spelling.
	direct, err := aladdin.Simulate(g, aladdin.Design{NodeNM: 45, Partition: r.maxP, Simplification: 1})
	if err != nil {
		t.Fatal(err)
	}
	viaKey, err := r.simulate(over)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Cycles != viaKey.Cycles || direct.Energy != viaKey.Energy || direct.Area != viaKey.Area {
		t.Errorf("normalized key result %+v differs from direct %+v", viaKey, direct)
	}
}
