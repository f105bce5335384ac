// Checkpointed searches: durable per-generation snapshots and
// bit-identical resume from them.
//
// The unit of durable work is the archive — every evaluated (design,
// result) pair in first-seen order — plus the live candidate set as
// archive indices. Because all search logic is sequential and every
// random draw derives from (seed, generation, slot), a restored archive
// and candidate set put the coordinator in exactly the state an
// uninterrupted run had at that generation boundary: the remaining
// generations replay identically, so the final frontier is byte-identical.
package search

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"accelwall/internal/aladdin"
	"accelwall/internal/checkpoint"
)

// Checkpoint configures durable progress snapshots for one search; Every
// counts completed steps — the seeding lattice plus each generation or
// rung (<= 0 snapshots every step). The zero value (and a nil pointer)
// disables checkpointing entirely.
type Checkpoint = checkpoint.Options

// Named snapshot decode causes.
var (
	// ErrSnapshotVersion: the payload was written by an incompatible build.
	ErrSnapshotVersion = errors.New("search: unsupported snapshot version")
	// ErrSnapshotMismatch: the payload belongs to a different workload or config.
	ErrSnapshotMismatch = errors.New("search: snapshot does not match this search")
	// ErrSnapshotCorrupt: the payload is structurally broken.
	ErrSnapshotCorrupt = errors.New("search: corrupt snapshot payload")
)

const snapshotVersion = 1

// entryWords is the per-archive-entry record width in 8-byte words: the
// six design knobs followed by the nine result figures.
const entryWords = 15

// configDigest fingerprints everything that determines a search's archive
// and frontier: the evaluator's workload identity (name plus graph shape,
// which also pins the partition plateau) and the full normalized config —
// strategy, space axes, objectives, constraints, population, generations,
// seed. Worker count is deliberately excluded: it never changes results,
// so a snapshot taken at 8 workers resumes fine at 1.
func configDigest(eval Evaluator, cfg Config) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(eval.Name()))
	st := eval.Stats()
	put(uint64(st.V))
	put(uint64(st.E))
	put(uint64(st.VCmp))
	put(uint64(st.Depth))
	put(uint64(cfg.Strategy))
	put(uint64(cfg.Population))
	put(uint64(cfg.Generations))
	put(uint64(cfg.Seed))
	put(math.Float64bits(cfg.Constraints.MaxArea))
	put(math.Float64bits(cfg.Constraints.MaxPowerW))
	put(uint64(len(cfg.Objectives)))
	for _, o := range cfg.Objectives {
		put(uint64(o))
	}
	s := cfg.Space
	put(uint64(len(s.Nodes)))
	for _, v := range s.Nodes {
		put(math.Float64bits(v))
	}
	put(uint64(len(s.Partitions)))
	for _, v := range s.Partitions {
		put(uint64(v))
	}
	put(uint64(len(s.Simplifications)))
	for _, v := range s.Simplifications {
		put(uint64(v))
	}
	put(uint64(len(s.Fusion)))
	for _, v := range s.Fusion {
		if v {
			put(1)
		} else {
			put(0)
		}
	}
	put(uint64(len(s.Clocks)))
	for _, v := range s.Clocks {
		put(math.Float64bits(v))
	}
	put(uint64(len(s.MemoryBanks)))
	for _, v := range s.MemoryBanks {
		put(uint64(v))
	}
	return h.Sum64()
}

// encodeSnapshot renders the search state at a step boundary: the archive
// in first-seen order and the live candidate set as archive indices.
// Floats are stored as raw IEEE-754 bits, so a restored evaluation is
// bit-identical to a recomputed one.
func encodeSnapshot(digest uint64, totalSteps, doneSteps int, entries []entry, current []int) []byte {
	w := checkpoint.NewWriter(22 + len(entries)*8*entryWords + 4 + len(current)*4)
	w.U16(snapshotVersion)
	w.U64(digest)
	w.U32(uint32(totalSteps))
	w.U32(uint32(doneSteps))
	w.U32(uint32(len(entries)))
	for i := range entries {
		d, r := entries[i].design, entries[i].result
		w.F64(d.NodeNM)
		w.U64(uint64(d.Partition))
		w.U64(uint64(d.Simplification))
		if d.Fusion {
			w.U64(1)
		} else {
			w.U64(0)
		}
		w.F64(d.ClockGHz)
		w.U64(uint64(d.MemoryBanks))
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
	w.U32(uint32(len(current)))
	for _, id := range current {
		w.U32(uint32(id))
	}
	return w.Bytes()
}

// SnapshotProgress reports how many of how many search steps a snapshot
// payload covers (the seeding lattice plus each generation or rung),
// without validating it against a search. Serving layers use it to
// surface job progress.
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

// saver owns one search's snapshot lifecycle: cadence, the parting
// snapshot on cancellation, and resume decoding. A nil-sink saver is a
// no-op, mirroring checkpoint.Tracker's nil tolerance.
type saver struct {
	st         *state
	ck         *Checkpoint
	digest     uint64
	totalSteps int
	every      int
	lastSaved  int
	failed     bool
}

func newSaver(st *state, ck *Checkpoint, totalSteps int) *saver {
	sv := &saver{st: st, ck: ck, totalSteps: totalSteps, every: 1, lastSaved: -1}
	if ck != nil {
		sv.digest = configDigest(st.eval, st.cfg)
		if ck.Every > 0 {
			sv.every = ck.Every
		}
	}
	return sv
}

// step snapshots the state after doneSteps completed steps when the
// cadence is due. Save failures stop further snapshots (the search
// continues) and are reported through OnError once.
func (sv *saver) step(doneSteps int, current []int) {
	if sv.ck == nil || sv.ck.Sink == nil || sv.failed {
		return
	}
	if doneSteps < sv.totalSteps && doneSteps%sv.every != 0 {
		return
	}
	sv.save(doneSteps, current)
}

// parting snapshots the last completed step unconditionally — the state a
// restarted process resumes from after cancellation.
func (sv *saver) parting(doneSteps int, current []int) {
	if sv.ck == nil || sv.ck.Sink == nil || sv.failed || sv.lastSaved == doneSteps {
		return
	}
	sv.save(doneSteps, current)
}

func (sv *saver) save(doneSteps int, current []int) {
	payload := encodeSnapshot(sv.digest, sv.totalSteps, doneSteps, sv.st.entries, current)
	if err := sv.ck.Sink.Save(payload); err != nil {
		sv.failed = true
		if sv.ck.OnError != nil {
			sv.ck.OnError(err)
		}
		return
	}
	sv.lastSaved = doneSteps
}

// restore validates a resume payload against the search's digest and
// rebuilds the archive and candidate set, returning the step to continue
// from.
func (sv *saver) restore(payload []byte) (startStep int, current []int, err error) {
	r := checkpoint.NewReader(payload)
	if v := r.U16(); r.Bad() || v != snapshotVersion {
		return 0, nil, fmt.Errorf("%w: payload version %d, this build reads %d", ErrSnapshotVersion, v, snapshotVersion)
	}
	if d := r.U64(); r.Bad() || d != sv.digest {
		return 0, nil, fmt.Errorf("%w: workload/config digest mismatch", ErrSnapshotMismatch)
	}
	total, done := int(r.U32()), int(r.U32())
	n := int(r.U32())
	if r.Bad() {
		return 0, nil, fmt.Errorf("%w: truncated header", ErrSnapshotCorrupt)
	}
	if total != sv.totalSteps {
		return 0, nil, fmt.Errorf("%w: payload covers %d steps, this search has %d", ErrSnapshotMismatch, total, sv.totalSteps)
	}
	if done < 0 || done > total {
		return 0, nil, fmt.Errorf("%w: step %d outside [0, %d]", ErrSnapshotCorrupt, done, total)
	}
	if n < 0 || n > r.Rest()/(8*entryWords) {
		return 0, nil, fmt.Errorf("%w: archive count %d exceeds payload", ErrSnapshotCorrupt, n)
	}
	for i := 0; i < n; i++ {
		var d aladdin.Design
		d.NodeNM = r.F64()
		d.Partition = int(int64(r.U64()))
		d.Simplification = int(int64(r.U64()))
		d.Fusion = r.U64() == 1
		d.ClockGHz = r.F64()
		d.MemoryBanks = int(int64(r.U64()))
		res := aladdin.Result{Design: d}
		res.Cycles = int(int64(r.U64()))
		res.FusedOps = int(int64(r.U64()))
		res.RuntimeNS = r.F64()
		res.DynEnergy = r.F64()
		res.LeakEnergy = r.F64()
		res.Energy = r.F64()
		res.Power = r.F64()
		res.Area = r.F64()
		res.Utilization = r.F64()
		if r.Bad() {
			return 0, nil, fmt.Errorf("%w: truncated archive records", ErrSnapshotCorrupt)
		}
		if err := sv.st.addEntry(d, res); err != nil {
			return 0, nil, fmt.Errorf("%w: %v", ErrSnapshotMismatch, err)
		}
	}
	m := int(r.U32())
	if r.Bad() || m < 0 || m > r.Rest()/4 {
		return 0, nil, fmt.Errorf("%w: truncated candidate set", ErrSnapshotCorrupt)
	}
	current = make([]int, m)
	for i := range current {
		id := int(r.U32())
		if id < 0 || id >= n {
			return 0, nil, fmt.Errorf("%w: candidate index %d outside archive of %d", ErrSnapshotCorrupt, id, n)
		}
		current[i] = id
	}
	if r.Bad() {
		return 0, nil, fmt.Errorf("%w: truncated candidate set", ErrSnapshotCorrupt)
	}
	if r.Rest() != 0 {
		return 0, nil, fmt.Errorf("%w: %d trailing bytes", ErrSnapshotCorrupt, r.Rest())
	}
	sv.lastSaved = done
	return done, current, nil
}
