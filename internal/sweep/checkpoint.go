// Checkpointed design-space sweeps: durable snapshots of the completed
// unique-design prefix, and bit-identical resume from them.
//
// The unit of durable work is the deduplicated unique-design list in its
// deterministic enumeration order — the same list every parallel sweep
// iterates — so a snapshot is just the simulation results of a prefix of
// that list. The simulator is deterministic per design, which makes a
// restored slot indistinguishable from a recomputed one; only successful
// slots ever enter the durable prefix (an errored design pins the prefix
// behind it so the resumed run retries it).
package sweep

import (
	"context"
	"fmt"
	"math"

	"accelwall/internal/aladdin"
	"accelwall/internal/checkpoint"
	"accelwall/internal/dfg"
)

// Checkpoint configures durable progress snapshots for one sweep; Every
// counts completed-prefix unique design points. The zero value (and a nil
// pointer) disables checkpointing entirely.
type Checkpoint = checkpoint.Options

const snapshotVersion = 1

// sweepDigest fingerprints everything that determines the unique-design
// results: the compiled workload's identity (name plus graph shape, which
// also pins the partition plateau) and every unique design in order. Worker
// count is deliberately excluded — it never changes results, so a snapshot
// taken at 8 workers resumes fine at 1.
func sweepDigest(c *aladdin.Compiled, uniques []aladdin.Design) uint64 {
	h := checkpoint.NewDigest()
	h.String(c.Name())
	st := c.Stats()
	h.U64(uint64(st.V))
	h.U64(uint64(st.E))
	h.U64(uint64(st.VCmp))
	h.U64(uint64(st.Depth))
	h.U64(uint64(len(uniques)))
	for _, d := range uniques {
		for _, v := range DesignWords(d) {
			h.U64(v)
		}
	}
	return h.Sum()
}

// DesignWords is the word form of a design: NodeNM and ClockGHz as raw
// IEEE-754 bits, the integer knobs as two's-complement words and Fusion
// as 0 or 1. Sweep digests and search snapshots frame designs with it,
// and search indexes its genotypes by it.
func DesignWords(d aladdin.Design) [6]uint64 {
	w := [6]uint64{
		math.Float64bits(d.NodeNM), uint64(d.Partition), uint64(d.Simplification),
		0, math.Float64bits(d.ClockGHz), uint64(d.MemoryBanks),
	}
	if d.Fusion {
		w[3] = 1
	}
	return w
}

// DesignOf inverts DesignWords; a Fusion word other than 1 reads as false.
func DesignOf(w [6]uint64) aladdin.Design {
	return aladdin.Design{
		NodeNM: math.Float64frombits(w[0]), Partition: int(int64(w[1])), Simplification: int(int64(w[2])),
		Fusion: w[3] == 1, ClockGHz: math.Float64frombits(w[4]), MemoryBanks: int(int64(w[5])),
	}
}

// ResultWords is the width of one PutResult record in 8-byte words.
const ResultWords = 9

// PutResult frames the figures of one simulation result: Cycles and
// FusedOps as int64, then the seven float64 figures of merit as raw
// IEEE-754 bits, so a restored result is bit-identical to the simulated
// one. The Design is not framed; every reader re-derives or frames it
// itself. Sweep snapshots, search snapshots and internode slice responses
// all use this one record.
func PutResult(w *checkpoint.Writer, r aladdin.Result) {
	w.U64(uint64(r.Cycles))
	w.U64(uint64(r.FusedOps))
	w.F64(r.RuntimeNS)
	w.F64(r.DynEnergy)
	w.F64(r.LeakEnergy)
	w.F64(r.Energy)
	w.F64(r.Power)
	w.F64(r.Area)
	w.F64(r.Utilization)
}

// ReadResult decodes one PutResult record (with a zero Design). A
// non-finite figure marks the reader bad: the simulator never produces
// one, so it can only come from a corrupt payload.
func ReadResult(r *checkpoint.Reader) aladdin.Result {
	return aladdin.Result{
		Cycles:      int(int64(r.U64())),
		FusedOps:    int(int64(r.U64())),
		RuntimeNS:   r.Finite(),
		DynEnergy:   r.Finite(),
		LeakEnergy:  r.Finite(),
		Energy:      r.Finite(),
		Power:       r.Finite(),
		Area:        r.Finite(),
		Utilization: r.Finite(),
	}
}

// encodeSweepSnapshot renders the first n unique-design results. Floats
// are stored as raw IEEE-754 bits, so a restored slot is bit-identical to
// the simulated one. Every slot below the durable prefix is successful by
// construction (errored designs never advance it), so no per-slot flag is
// framed; the Design itself is re-derived from the unique list on decode.
func encodeSweepSnapshot(digest uint64, total int, results []aladdin.Result, n int) []byte {
	w := checkpoint.NewWriter(18 + n*8*ResultWords)
	w.PutHeader(snapshotVersion, digest)
	w.U32(uint32(total))
	w.U32(uint32(n))
	for _, r := range results[:n] {
		PutResult(w, r)
	}
	return w.Bytes()
}

// decodeSweepSnapshot validates payload against the sweep's digest and
// unique-design count and returns the restored prefix length, filling
// results[0:n] (with designs re-derived from uniques).
func decodeSweepSnapshot(digest uint64, uniques []aladdin.Design, results []aladdin.Result, payload []byte) (int, error) {
	r := checkpoint.NewReader(payload)
	if err := r.CheckHeader("sweep", snapshotVersion, digest); err != nil {
		return 0, err
	}
	total, n := int(r.U32()), int(r.U32())
	if r.Bad() {
		return 0, fmt.Errorf("sweep: %w: truncated header", checkpoint.ErrSnapshotCorrupt)
	}
	if total != len(uniques) {
		return 0, fmt.Errorf("sweep: %w: payload covers %d unique designs, this sweep has %d", checkpoint.ErrSnapshotMismatch, total, len(uniques))
	}
	if n < 0 || n > total {
		return 0, fmt.Errorf("sweep: %w: prefix %d outside [0, %d]", checkpoint.ErrSnapshotCorrupt, n, total)
	}
	for i := 0; i < n; i++ {
		results[i] = ReadResult(r)
		results[i].Design = uniques[i]
	}
	if err := r.End("sweep", "design records"); err != nil {
		return 0, err
	}
	return n, nil
}

// SnapshotProgress reports how many of how many unique design points a
// snapshot payload covers, without validating it against a sweep. Serving
// layers use it to surface job progress.
func SnapshotProgress(payload []byte) (done, total int, err error) {
	return checkpoint.Progress("sweep", snapshotVersion, payload)
}

// RunParallelCheckpointed is the one-shot durable sweep: NewEngine plus
// Engine.RunCheckpointed.
func RunParallelCheckpointed(ctx context.Context, g *dfg.Graph, p Params, workers int, ck *Checkpoint) ([]Point, int, error) {
	e, err := NewEngine(g)
	if err != nil {
		return nil, 0, err
	}
	return e.RunCheckpointed(ctx, p, workers, ck)
}
