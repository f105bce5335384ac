// Checkpointed Monte Carlo runs: periodic durable snapshots of the
// completed replicate prefix, and bit-identical resume from them.
//
// The SplitMix64 substream design makes this safe by construction: every
// replicate derives its PRNG stream from (root seed, replicate index)
// alone, so a run restored from a snapshot of replicates [0, n) and
// continued at n produces exactly the bytes an uninterrupted run would
// have — no RNG state needs saving, only the finished outputs.
package montecarlo

import (
	"context"
	"fmt"

	"accelwall/internal/casestudy"
	"accelwall/internal/checkpoint"
	"accelwall/internal/cmos"
)

// Checkpoint configures durable progress snapshots for one run; Every
// counts completed-prefix replicates. The zero value (and a nil pointer)
// disables checkpointing entirely — the engines pay one pointer test.
type Checkpoint = checkpoint.Options

const snapshotVersion = 1

// configDigest fingerprints everything that determines replicate output:
// the normalized config minus Workers (worker count never changes
// results, so a snapshot taken at 8 workers resumes fine at 1).
func configDigest(cfg Config) uint64 {
	h := checkpoint.NewDigest()
	h.U64(uint64(cfg.Replicates))
	h.U64(uint64(cfg.Seed))
	h.U64(uint64(cfg.CorpusSeed))
	h.F64(cfg.Confidence)
	h.F64(cfg.GainTarget)
	h.F64(cfg.CMOSJitter)
	return h.Sum()
}

// snapshotDims returns the per-replicate vector lengths the codec frames.
func snapshotDims() (nNodes, nDomains int) {
	return len(cmos.Fig3aNodes()), len(targets()) * len(casestudy.Domains())
}

// encodeSnapshot renders replicates [0, n) of outs. Floats are stored as
// raw IEEE-754 bits, so a restored replicate is bit-identical to the
// computed one. Failed (degenerate-resample) replicates are stored as a
// single flag byte: the failure set is a pure function of the substreams,
// so restoring "failed" is as faithful as recomputing it.
func encodeSnapshot(cfg Config, outs []replicateOut, n int) []byte {
	nNodes, nDomains := snapshotDims()
	w := checkpoint.NewWriter(26 + n*recordBytes(nNodes, nDomains))
	w.PutHeader(snapshotVersion, configDigest(cfg))
	w.U32(uint32(cfg.Replicates))
	w.U32(uint32(nNodes))
	w.U32(uint32(nDomains))
	w.U32(uint32(n))
	for _, o := range outs[:n] {
		putReplicate(w, o)
	}
	return w.Bytes()
}

// recordBytes is the framed size of one successful replicate.
func recordBytes(nNodes, nDomains int) int { return 1 + 8*(2+2*nNodes+4*nDomains) }

// putReplicate frames one replicate record: a flag byte, then (for a
// successful replicate) the fit, the per-node ratios and the per-domain
// cells as raw float bits.
func putReplicate(w *checkpoint.Writer, o replicateOut) {
	if !o.ok {
		w.U8(0)
		return
	}
	w.U8(1)
	w.F64(o.fitA)
	w.F64(o.fitB)
	for _, v := range o.nodeTP {
		w.F64(v)
	}
	for _, v := range o.nodeEff {
		w.F64(v)
	}
	for _, d := range o.domains {
		w.F64(d.physLimit)
		w.F64(d.remainLog)
		w.F64(d.remainLinear)
		w.F64(d.finalCSR)
	}
}

// readReplicate decodes one putReplicate record; a failed replicate
// decodes to the zero (ok=false) slot, and a non-finite figure marks the
// reader bad.
func readReplicate(r *checkpoint.Reader, nNodes, nDomains int) replicateOut {
	if r.U8() == 0 {
		return replicateOut{}
	}
	o := replicateOut{ok: true, nodeTP: make([]float64, nNodes), nodeEff: make([]float64, nNodes)}
	o.fitA, o.fitB = r.Finite(), r.Finite()
	for j := range o.nodeTP {
		o.nodeTP[j] = r.Finite()
	}
	for j := range o.nodeEff {
		o.nodeEff[j] = r.Finite()
	}
	o.domains = make([]domainOut, nDomains)
	for j := range o.domains {
		o.domains[j] = domainOut{
			physLimit: r.Finite(), remainLog: r.Finite(),
			remainLinear: r.Finite(), finalCSR: r.Finite(),
		}
	}
	return o
}

// decodeSnapshot validates payload against cfg and returns the restored
// replicate prefix.
func decodeSnapshot(cfg Config, payload []byte) ([]replicateOut, error) {
	r := checkpoint.NewReader(payload)
	if err := r.CheckHeader("montecarlo", snapshotVersion, configDigest(cfg)); err != nil {
		return nil, err
	}
	total, err := readShape(r, cfg, "montecarlo")
	if err != nil {
		return nil, err
	}
	n := int(r.U32())
	if r.Bad() || n < 0 || n > total {
		return nil, fmt.Errorf("montecarlo: %w: prefix %d outside [0, %d]", checkpoint.ErrSnapshotCorrupt, n, total)
	}
	nNodes, nDomains := snapshotDims()
	outs := make([]replicateOut, n)
	for i := range outs {
		outs[i] = readReplicate(r, nNodes, nDomains)
	}
	if err := r.End("montecarlo", "replicate records"); err != nil {
		return nil, err
	}
	return outs, nil
}

// readShape reads the run shape that follows the snapshot and slice
// headers — replicates, nodes and domains — and checks it against cfg.
func readShape(r *checkpoint.Reader, cfg Config, engine string) (total int, err error) {
	nNodes, nDomains := snapshotDims()
	total, gotNodes, gotDomains := int(r.U32()), int(r.U32()), int(r.U32())
	if r.Bad() {
		return 0, fmt.Errorf("%s: %w: truncated header", engine, checkpoint.ErrSnapshotCorrupt)
	}
	if total != cfg.Replicates || gotNodes != nNodes || gotDomains != nDomains {
		return 0, fmt.Errorf("%s: %w: payload shape (%d replicates, %d nodes, %d domains) vs run (%d, %d, %d)",
			engine, checkpoint.ErrSnapshotMismatch, total, gotNodes, gotDomains, cfg.Replicates, nNodes, nDomains)
	}
	return total, nil
}

// SnapshotProgress reports how many of how many replicates a snapshot
// payload covers, without validating it against a configuration. Serving
// layers use it to surface job progress.
func SnapshotProgress(payload []byte) (done, total int, err error) {
	r := checkpoint.NewReader(payload)
	if _, err := r.ReadHeader("montecarlo", snapshotVersion); err != nil {
		return 0, 0, err
	}
	total = int(r.U32())
	r.U32() // nodes
	r.U32() // domains
	done = int(r.U32())
	if r.Bad() || done < 0 || done > total {
		return 0, 0, fmt.Errorf("montecarlo: %w: progress %d of %d", checkpoint.ErrSnapshotCorrupt, done, total)
	}
	return done, total, nil
}

// RunCheckpointed is the one-shot durable run: New(cfg.CorpusSeed) plus
// Engine.RunCheckpointed.
func RunCheckpointed(ctx context.Context, cfg Config, ck *Checkpoint) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e, err := New(cfg.CorpusSeed)
	if err != nil {
		return nil, err
	}
	return e.RunCheckpointed(ctx, cfg, ck)
}

// RunCheckpointed runs the replicates with optional durable progress
// snapshots: the completed replicate prefix is persisted through ck.Sink
// at the configured cadence, a cancelled run leaves one final snapshot
// behind, and ck.Resume restores a previous run's prefix instead of
// recomputing it (Result.Resumed counts it). A nil ck runs cold.
func (e *Engine) RunCheckpointed(ctx context.Context, cfg Config, ck *Checkpoint) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	outs := make([]replicateOut, cfg.Replicates)
	start := 0
	if ck != nil && len(ck.Resume) > 0 {
		prefix, err := decodeSnapshot(cfg, ck.Resume)
		if err != nil {
			return nil, err
		}
		copy(outs, prefix)
		start = len(prefix)
	}
	tr := ck.Tracker(cfg.Replicates, start, func(n int) ([]byte, error) {
		return encodeSnapshot(cfg, outs, n), nil
	})
	e.runReplicatesInto(ctx, cfg, outs, start, tr)
	if err := ctx.Err(); err != nil {
		// The parting snapshot: whatever prefix is complete right now is
		// what a restarted process (or a drained daemon) resumes from.
		tr.Final()
		return nil, err
	}
	res, err := e.reduce(cfg, outs)
	if err != nil {
		return nil, err
	}
	res.Resumed = start
	return res, nil
}
