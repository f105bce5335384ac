package montecarlo

import (
	"context"
	"errors"
	"math"
	"testing"

	"accelwall/internal/checkpoint"
)

// TestReplicatesFinite is the property the replicate decoder's finite
// check rests on: every figure of every successful replicate is finite,
// across corpus seeds, run seeds and CMOS jitter up to nearly the largest
// accepted sigma. A replicate that fails (a degenerate resample at high
// jitter) is a zero slot, which round-trips as failed; a successful one
// round-trips bit for bit through the checked decoder.
func TestReplicatesFinite(t *testing.T) {
	nNodes, nDomains := snapshotDims()
	for corpus := int64(1); corpus <= 3; corpus++ {
		e, err := New(corpus)
		if err != nil {
			t.Fatal(err)
		}
		for _, jitter := range []float64{DefaultCMOSJitter, 0.49} {
			failed := 0
			for seed := int64(1); seed <= 20; seed++ {
				cfg := Config{Replicates: 50, Seed: seed, CorpusSeed: corpus, CMOSJitter: jitter}.withDefaults()
				for i, out := range e.runReplicates(context.Background(), cfg) {
					if !out.ok {
						failed++
					}
					for _, v := range figures(out) {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							t.Fatalf("corpus %d jitter %g seed %d replicate %d: non-finite figure in %+v", corpus, jitter, seed, i, out)
						}
					}
					w := checkpoint.NewWriter(recordBytes(nNodes, nDomains))
					putReplicate(w, out)
					r := checkpoint.NewReader(w.Bytes())
					back := readReplicate(r, nNodes, nDomains)
					if r.Bad() || r.Rest() != 0 {
						t.Fatalf("corpus %d jitter %g seed %d replicate %d: %+v does not decode", corpus, jitter, seed, i, out)
					}
					if back.ok != out.ok || !sameBits(figures(back), figures(out)) {
						t.Fatalf("corpus %d jitter %g seed %d replicate %d: round trip changed the replicate", corpus, jitter, seed, i)
					}
				}
			}
			t.Logf("corpus %d jitter %g: %d of 1000 replicates failed", corpus, jitter, failed)
		}
	}
}

// figures lists every float a replicate record carries.
func figures(o replicateOut) []float64 {
	out := append([]float64{o.fitA, o.fitB}, o.nodeTP...)
	out = append(out, o.nodeEff...)
	for _, d := range o.domains {
		out = append(out, d.physLimit, d.remainLog, d.remainLinear, d.finalCSR)
	}
	return out
}

// sameBits compares two float lists bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestResumeRejectsNonFiniteSnapshot: a snapshot whose replicate 0 carries
// a NaN fit is corrupt, not a resume point that yields NaN bands.
func TestResumeRejectsNonFiniteSnapshot(t *testing.T) {
	cfg := Config{Replicates: 10, Seed: 7, CorpusSeed: 7, Workers: 1}.withDefaults()
	sink := &memorySink{}
	if _, err := RunCheckpointed(context.Background(), cfg, &Checkpoint{Sink: sink, Every: 10}); err != nil {
		t.Fatal(err)
	}
	outs, err := decodeSnapshot(cfg, sink.last())
	if err != nil {
		t.Fatal(err)
	}
	if !outs[0].ok {
		t.Fatal("replicate 0 failed; pick a seed where it succeeds")
	}
	outs[0].fitA = math.NaN()
	bad := encodeSnapshot(cfg, outs, len(outs))
	res, err := RunCheckpointed(context.Background(), cfg, &Checkpoint{Resume: bad})
	if !errors.Is(err, checkpoint.ErrSnapshotCorrupt) {
		t.Fatalf("resume from a NaN replicate: err %v, want ErrSnapshotCorrupt (area fit A P5 %v)", err, bandP5(res))
	}
}

// TestMergeRejectsNonFiniteSlice: a slice whose replicate 0 carries a +Inf
// fit does not merge.
func TestMergeRejectsNonFiniteSlice(t *testing.T) {
	cfg := Config{Replicates: 10, Seed: 7, CorpusSeed: 7, Workers: 1}.withDefaults()
	e, err := New(cfg.CorpusSeed)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := e.RunSlice(context.Background(), cfg, 0, cfg.Replicates)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]replicateOut, cfg.Replicates)
	if _, _, err := decodeSlice(cfg, outs, payload); err != nil {
		t.Fatal(err)
	}
	if !outs[0].ok {
		t.Fatal("replicate 0 failed; pick a seed where it succeeds")
	}
	outs[0].fitA = math.Inf(1)
	if _, err := e.MergeSlices(cfg, [][]byte{encodeSlice(cfg, outs, 0, cfg.Replicates)}); !errors.Is(err, checkpoint.ErrSnapshotCorrupt) {
		t.Fatalf("merge of a +Inf replicate: err %v, want ErrSnapshotCorrupt", err)
	}
}

// bandP5 names what a wrongly accepted resume produced, for the failure
// message.
func bandP5(res *Result) float64 {
	if res == nil {
		return 0
	}
	return res.AreaFitA.P5
}
