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
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"accelwall/internal/aladdin"
	"accelwall/internal/checkpoint"
	"accelwall/internal/dfg"
)

// Checkpoint configures durable progress snapshots for one sweep; Every
// counts completed-prefix unique design points. The zero value (and a nil
// pointer) disables checkpointing entirely.
type Checkpoint = checkpoint.Options

// Named snapshot decode causes.
var (
	// ErrSnapshotVersion: the payload was written by an incompatible build.
	ErrSnapshotVersion = errors.New("sweep: unsupported snapshot version")
	// ErrSnapshotMismatch: the payload belongs to a different workload or grid.
	ErrSnapshotMismatch = errors.New("sweep: snapshot does not match this sweep")
	// ErrSnapshotCorrupt: the payload is structurally broken.
	ErrSnapshotCorrupt = errors.New("sweep: corrupt snapshot payload")
)

const snapshotVersion = 1

// sweepDigest fingerprints everything that determines the unique-design
// results: the compiled workload's identity (name plus graph shape, which
// also pins the partition plateau) and every unique design in order. Worker
// count is deliberately excluded — it never changes results, so a snapshot
// taken at 8 workers resumes fine at 1.
func sweepDigest(c *aladdin.Compiled, uniques []aladdin.Design) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(c.Name()))
	st := c.Stats()
	put(uint64(st.V))
	put(uint64(st.E))
	put(uint64(st.VCmp))
	put(uint64(st.Depth))
	put(uint64(len(uniques)))
	for _, d := range uniques {
		put(math.Float64bits(d.NodeNM))
		put(uint64(d.Partition))
		put(uint64(d.Simplification))
		if d.Fusion {
			put(1)
		} else {
			put(0)
		}
		put(math.Float64bits(d.ClockGHz))
		put(uint64(d.MemoryBanks))
	}
	return h.Sum64()
}

// resultWords is the per-slot record width in 8-byte words: Cycles and
// FusedOps as int64, then the seven float64 figures of merit.
const resultWords = 9

// encodeSweepSnapshot renders the first n unique-design results. Floats
// are stored as raw IEEE-754 bits, so a restored slot is bit-identical to
// the simulated one. Every slot below the durable prefix is successful by
// construction (errored designs never advance it), so no per-slot flag is
// framed; the Design itself is re-derived from the unique list on decode.
func encodeSweepSnapshot(digest uint64, total int, results []aladdin.Result, n int) []byte {
	w := checkpoint.NewWriter(18 + n*8*resultWords)
	w.U16(snapshotVersion)
	w.U64(digest)
	w.U32(uint32(total))
	w.U32(uint32(n))
	for i := 0; i < n; i++ {
		r := results[i]
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
	return w.Bytes()
}

// decodeSweepSnapshot validates payload against the sweep's digest and
// unique-design count and returns the restored prefix length, filling
// results[0:n] (with designs re-derived from uniques).
func decodeSweepSnapshot(digest uint64, uniques []aladdin.Design, results []aladdin.Result, payload []byte) (int, error) {
	r := checkpoint.NewReader(payload)
	if v := r.U16(); r.Bad() || v != snapshotVersion {
		return 0, fmt.Errorf("%w: payload version %d, this build reads %d", ErrSnapshotVersion, v, snapshotVersion)
	}
	if d := r.U64(); r.Bad() || d != digest {
		return 0, fmt.Errorf("%w: workload/grid digest mismatch", ErrSnapshotMismatch)
	}
	total, n := int(r.U32()), int(r.U32())
	if r.Bad() {
		return 0, fmt.Errorf("%w: truncated header", ErrSnapshotCorrupt)
	}
	if total != len(uniques) {
		return 0, fmt.Errorf("%w: payload covers %d unique designs, this sweep has %d", ErrSnapshotMismatch, total, len(uniques))
	}
	if n < 0 || n > total {
		return 0, fmt.Errorf("%w: prefix %d outside [0, %d]", ErrSnapshotCorrupt, n, total)
	}
	for i := 0; i < n; i++ {
		res := aladdin.Result{Design: uniques[i]}
		res.Cycles = int(int64(r.U64()))
		res.FusedOps = int(int64(r.U64()))
		res.RuntimeNS = r.F64()
		res.DynEnergy = r.F64()
		res.LeakEnergy = r.F64()
		res.Energy = r.F64()
		res.Power = r.F64()
		res.Area = r.F64()
		res.Utilization = r.F64()
		results[i] = res
	}
	if r.Bad() {
		return 0, fmt.Errorf("%w: truncated design records", ErrSnapshotCorrupt)
	}
	if r.Rest() != 0 {
		return 0, fmt.Errorf("%w: %d trailing bytes", ErrSnapshotCorrupt, r.Rest())
	}
	return n, nil
}

// SnapshotProgress reports how many of how many unique design points a
// snapshot payload covers, without validating it against a sweep. Serving
// layers use it to surface job progress.
func SnapshotProgress(payload []byte) (done, total int, err error) {
	r := checkpoint.NewReader(payload)
	if v := r.U16(); r.Bad() || v != snapshotVersion {
		return 0, 0, ErrSnapshotVersion
	}
	r.U64() // digest
	total = int(r.U32())
	done = int(r.U32())
	if r.Bad() || done < 0 || done > total {
		return 0, 0, ErrSnapshotCorrupt
	}
	return done, total, nil
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
