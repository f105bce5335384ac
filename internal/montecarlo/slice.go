// Replicate-range slices: the distribution unit of a Monte Carlo run.
//
// The SplitMix64 substream design makes a replicate range [lo, hi) a pure
// function of (config, range): any peer can compute any range with no
// shared state, and a coordinator that merges full coverage of [0,
// Replicates) reduces to bands bit-identical to a single-process run. The
// slice payload reuses the checkpoint record layout (flag byte + raw
// IEEE-754 bits) plus the covered range, and is guarded by the same
// config digest so a slice computed under a different configuration can
// never be merged silently.
package montecarlo

import (
	"context"
	"fmt"

	"accelwall/internal/checkpoint"
)

// sliceVersion frames the slice payload; bumped on layout changes.
const sliceVersion = 1

// RunSlice computes replicates [lo, hi) of the configuration and returns
// them as an opaque slice payload for MergeSlices. The range bounds are
// validated against the defaulted config; workers are clamped to the
// range width by the pool itself.
func (e *Engine) RunSlice(ctx context.Context, cfg Config, lo, hi int) ([]byte, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if lo < 0 || hi > cfg.Replicates || lo >= hi {
		return nil, fmt.Errorf("montecarlo: slice [%d, %d) outside [0, %d)", lo, hi, cfg.Replicates)
	}
	// runReplicatesInto runs replicates [lo, sub.Replicates); bounding
	// Replicates at hi confines the pool to exactly this range. Replicate
	// output depends only on (Seed, CorpusSeed, CMOSJitter, index), never
	// on Replicates, so the records match a full run's bit for bit.
	sub := cfg
	sub.Replicates = hi
	outs := make([]replicateOut, hi)
	e.runReplicatesInto(ctx, sub, outs, lo, nil)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return encodeSlice(cfg, outs, lo, hi), nil
}

// encodeSlice renders replicates [lo, hi) of outs with the full-run shape
// in the header.
func encodeSlice(cfg Config, outs []replicateOut, lo, hi int) []byte {
	nNodes, nDomains := snapshotDims()
	w := checkpoint.NewWriter(34 + (hi-lo)*recordBytes(nNodes, nDomains))
	w.PutHeader(sliceVersion, configDigest(cfg))
	w.U32(uint32(cfg.Replicates))
	w.U32(uint32(nNodes))
	w.U32(uint32(nDomains))
	w.U32(uint32(lo))
	w.U32(uint32(hi))
	for _, o := range outs[lo:hi] {
		putReplicate(w, o)
	}
	return w.Bytes()
}

// decodeSlice validates one slice payload against cfg and fills outs with
// its range, reporting the range covered.
func decodeSlice(cfg Config, outs []replicateOut, payload []byte) (lo, hi int, err error) {
	r := checkpoint.NewReader(payload)
	if err := r.CheckHeader("montecarlo slice", sliceVersion, configDigest(cfg)); err != nil {
		return 0, 0, err
	}
	total, err := readShape(r, cfg, "montecarlo slice")
	if err != nil {
		return 0, 0, err
	}
	lo, hi = int(r.U32()), int(r.U32())
	if r.Bad() || lo < 0 || hi > total || lo >= hi {
		return 0, 0, fmt.Errorf("montecarlo slice: %w: range [%d, %d) outside [0, %d)", checkpoint.ErrSnapshotCorrupt, lo, hi, total)
	}
	nNodes, nDomains := snapshotDims()
	for i := lo; i < hi; i++ {
		outs[i] = readReplicate(r, nNodes, nDomains)
	}
	if err := r.End("montecarlo slice", "slice records"); err != nil {
		return 0, 0, err
	}
	return lo, hi, nil
}

// MergeSlices reassembles a full run from slice payloads and reduces it.
// The payloads must jointly cover [0, Replicates) — overlaps are fine
// (duplicated ranges are bit-identical by construction), gaps are an
// error. The result is bit-identical to RunContext with the same config.
func (e *Engine) MergeSlices(cfg Config, payloads [][]byte) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	outs := make([]replicateOut, cfg.Replicates)
	covered := make([]bool, cfg.Replicates)
	for _, p := range payloads {
		lo, hi, err := decodeSlice(cfg, outs, p)
		if err != nil {
			return nil, err
		}
		for i := lo; i < hi; i++ {
			covered[i] = true
		}
	}
	for i, ok := range covered {
		if !ok {
			return nil, fmt.Errorf("montecarlo: merge is missing replicate %d of [0, %d)", i, cfg.Replicates)
		}
	}
	return e.reduce(cfg, outs)
}
