package montecarlo

import (
	"context"
	"crypto/sha256"
	"fmt"
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
