package montecarlo

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// TestSnapshotFormatPinned pins the Monte Carlo checkpoint and cluster
// slice bytes: a small fixed run is encoded as snapshots and as slices and
// each payload's length and SHA-256 must match the recorded values, so a
// codec refactor cannot silently change the on-disk or internode format.
func TestSnapshotFormatPinned(t *testing.T) {
	e, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Replicates: 10, Seed: 9, CorpusSeed: 1, Workers: 1}.withDefaults()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	outs := e.runReplicates(context.Background(), cfg)
	outs[2] = replicateOut{} // pin the failed-replicate flag byte too
	for _, tc := range []struct {
		name string
		p    []byte
		want string
	}{
		{"snapshot/0", encodeSnapshot(cfg, outs, 0), "26:b8baae2dff7ab5c0b69eed313afc7ab7e11af72c180eef79785375bcb9df7d0e"},
		{"snapshot/4", encodeSnapshot(cfg, outs, 4), "1134:2164a64abb90cb21c538cd61691076c99da2406a05401916a9b4a41b787caf79"},
		{"snapshot/10", encodeSnapshot(cfg, outs, 10), "3348:1c7f6e1a97eb716058fc8a86aab6a543654288dec871dc30ec23ae09007826be"},
		{"slice/3-7", encodeSlice(cfg, outs, 3, 7), "1506:0a14e1ae7f6507506aaa043bd1c74e17a6c6ee32320407e3b3f90c3226c51c56"},
		{"slice/0-10", encodeSlice(cfg, outs, 0, 10), "3352:0e3a06cdb08088a3911e0545e4dbed876f6db27f754dbe39f4a07bc488067ab9"},
	} {
		if got := pinOf(tc.p); got != tc.want {
			t.Errorf("%s: payload %s, want %s", tc.name, got, tc.want)
		}
	}
}

// pinOf summarizes a payload as its length and SHA-256.
func pinOf(p []byte) string { return fmt.Sprintf("%d:%x", len(p), sha256.Sum256(p)) }

// TestResultDigestPinned pins full reduced Results: a SHA-256 over the
// IEEE-754 bits of every band, point estimate and probability, plus the
// usable and failed replicate counts, for two (corpus, seed, replicates)
// runs. Any change to the replicate pipeline that moves a single bit of
// output fails it.
func TestResultDigestPinned(t *testing.T) {
	for _, tc := range []struct {
		corpus, seed int64
		replicates   int
		want         string
	}{
		{1, 1, 57, "57/0:b5f1a7879c1d5c053670b2ac5b54dea3b0f2c702396ff0f9400413abab0d0aa7"},
		{7, 424242, 10, "10/0:56b2406769bb1bca61f1cbe256a24693df41f12bd0fe2870ec201d669fa5422f"},
	} {
		e, err := New(tc.corpus)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.RunContext(context.Background(), Config{Replicates: tc.replicates, Seed: tc.seed, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got := resultDigest(res); got != tc.want {
			t.Errorf("corpus %d seed %d replicates %d: digest %s, want %s", tc.corpus, tc.seed, tc.replicates, got, tc.want)
		}
	}
}

// resultDigest hashes every float of a Result in field order.
func resultDigest(r *Result) string {
	h := sha256.New()
	put := func(vs ...float64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	band := func(b Band) { put(b.P5, b.P25, b.P50, b.P75, b.P95, b.Lo, b.Hi) }
	put(float64(r.Replicates), float64(r.Failed))
	band(r.AreaFitA)
	band(r.AreaFitB)
	for _, n := range r.Nodes {
		put(n.NodeNM)
		band(n.Throughput)
		band(n.Efficiency)
	}
	for _, d := range r.Domains {
		put(float64(d.Domain), float64(d.Target), d.PointRemainLog, d.PointRemainLinear, d.PBelowTargetLog, d.PBelowTargetLinear)
		band(d.PhysLimit)
		band(d.RemainLog)
		band(d.RemainLinear)
		band(d.FinalCSR)
	}
	return fmt.Sprintf("%d/%d:%x", r.Replicates, r.Failed, h.Sum(nil))
}
