package montecarlo

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// testReplicates keeps unit-test runs fast while staying well above the
// validation floor of 10.
const testReplicates = 24

// marshalResult renders a result for byte comparison with the worker count
// normalized away (it is the one config field allowed to differ).
func marshalResult(t *testing.T, r *Result) []byte {
	t.Helper()
	r.Config.Workers = 0
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// TestRunDeterministicAcrossWorkers is the headline guarantee: the same
// (seed, replicates, config) produces bit-identical bands whether the pool
// has 1, 2, or 8 workers.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	e, err := New(1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var want []byte
	for _, workers := range []int{1, 2, 8} {
		res, err := e.RunContext(context.Background(), Config{Replicates: testReplicates, Seed: 7, Workers: workers})
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		got := marshalResult(t, res)
		if want == nil {
			want = got
			continue
		}
		if string(got) != string(want) {
			t.Errorf("workers=%d produced different bands than workers=1", workers)
		}
	}
}

// TestRunDeterministicAcrossSeeds checks the seed actually matters: two
// different root seeds must not collapse to the same bands.
func TestRunDeterministicAcrossSeeds(t *testing.T) {
	e, err := New(1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	a, err := e.RunContext(context.Background(), Config{Replicates: testReplicates, Seed: 1, Workers: 2})
	if err != nil {
		t.Fatalf("Run(seed=1): %v", err)
	}
	b, err := e.RunContext(context.Background(), Config{Replicates: testReplicates, Seed: 2, Workers: 2})
	if err != nil {
		t.Fatalf("Run(seed=2): %v", err)
	}
	if string(marshalResult(t, a)) == string(marshalResult(t, b)) {
		t.Errorf("seed 1 and seed 2 produced identical bands")
	}
}

// TestBandShuffleInvariant checks the reducer is order-free: banding a
// shuffled copy of the samples gives the same quantiles.
func TestBandShuffleInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]float64, 101)
	for i := range vals {
		vals[i] = rng.NormFloat64()*10 + 50
	}
	want, err := band(vals, 0.9)
	if err != nil {
		t.Fatalf("band: %v", err)
	}
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]float64(nil), vals...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		got, err := band(shuffled, 0.9)
		if err != nil {
			t.Fatalf("band(shuffled): %v", err)
		}
		if got != want {
			t.Fatalf("trial %d: shuffled band %+v != %+v", trial, got, want)
		}
	}
}

// TestResultBandOrdering checks every produced band is internally ordered
// and every probability is a probability.
func TestResultBandOrdering(t *testing.T) {
	res, err := runFresh(context.Background(), Config{Replicates: testReplicates, Seed: 1, Workers: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkBand := func(name string, b Band) {
		t.Helper()
		if !(b.P5 <= b.P25 && b.P25 <= b.P50 && b.P50 <= b.P75 && b.P75 <= b.P95) {
			t.Errorf("%s: quantiles out of order: %+v", name, b)
		}
		if b.Lo > b.Hi {
			t.Errorf("%s: Lo %g > Hi %g", name, b.Lo, b.Hi)
		}
	}
	checkBand("AreaFitA", res.AreaFitA)
	checkBand("AreaFitB", res.AreaFitB)
	if len(res.Nodes) == 0 {
		t.Fatalf("no node bands")
	}
	for _, n := range res.Nodes {
		checkBand("node throughput", n.Throughput)
		checkBand("node efficiency", n.Efficiency)
	}
	if len(res.Domains) != 8 {
		t.Fatalf("got %d domain cells, want 8 (2 targets x 4 domains)", len(res.Domains))
	}
	for _, d := range res.Domains {
		checkBand(d.Domain.String()+" phys", d.PhysLimit)
		checkBand(d.Domain.String()+" log", d.RemainLog)
		checkBand(d.Domain.String()+" linear", d.RemainLinear)
		checkBand(d.Domain.String()+" csr", d.FinalCSR)
		for _, p := range []float64{d.PBelowTargetLog, d.PBelowTargetLinear} {
			if p < 0 || p > 1 {
				t.Errorf("%v: probability %g outside [0, 1]", d.Domain, p)
			}
		}
		if d.PointRemainLog <= 0 || d.PointRemainLinear <= 0 {
			t.Errorf("%v: non-positive point estimates %g / %g", d.Domain, d.PointRemainLog, d.PointRemainLinear)
		}
	}
	if res.Replicates+res.Failed != testReplicates {
		t.Errorf("usable %d + failed %d != %d", res.Replicates, res.Failed, testReplicates)
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error, "" for valid
	}{
		{"zero is valid", Config{}, ""},
		{"too few replicates", Config{Replicates: 5}, "replicates"},
		{"too many replicates", Config{Replicates: MaxReplicates + 1}, "replicates"},
		{"confidence at 1", Config{Confidence: 1}, "confidence"},
		{"negative confidence", Config{Confidence: -0.5}, "confidence"},
		{"negative gain target", Config{GainTarget: -2}, "gain target"},
		{"jitter too large", Config{CMOSJitter: 0.5}, "jitter"},
		{"jitter negative", Config{CMOSJitter: -0.1}, "jitter"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestNormalized checks worker count is scrubbed from the memoization key
// while every default is pinned.
func TestNormalized(t *testing.T) {
	a := Config{Workers: 4}.Normalized()
	b := Config{Workers: 16}.Normalized()
	if a != b {
		t.Errorf("normalized configs differ only by workers: %+v vs %+v", a, b)
	}
	if a.Replicates != DefaultReplicates || a.Seed != 1 || a.Confidence != DefaultConfidence {
		t.Errorf("defaults not applied: %+v", a)
	}
	if a.Workers != 0 {
		t.Errorf("workers not scrubbed: %d", a.Workers)
	}
}

// TestSubstreamDistinct checks replicate substreams never collide over a
// realistic index range, for adjacent root seeds too.
func TestSubstreamDistinct(t *testing.T) {
	seen := make(map[int64]string)
	for _, root := range []int64{0, 1, 2} {
		for i := 0; i < 2000; i++ {
			s := substream(root, i)
			key := fmt.Sprintf("%d:%d", root, i)
			if prev, ok := seen[s]; ok {
				t.Fatalf("substream collision: %s and %s both map to %d", prev, key, s)
			}
			seen[s] = key
		}
	}
}
