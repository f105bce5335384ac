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
	"fmt"

	"accelwall/internal/checkpoint"
	"accelwall/internal/sweep"
)

// Checkpoint configures durable progress snapshots for one search; Every
// counts completed steps — the seeding lattice plus each generation or
// rung (<= 0 snapshots every step). The zero value (and a nil pointer)
// disables checkpointing entirely.
type Checkpoint = checkpoint.Options

const snapshotVersion = 1

// entryWords is the per-archive-entry record width in 8-byte words: the
// six design knobs followed by the result record.
const entryWords = 6 + sweep.ResultWords

// configDigest fingerprints everything that determines a search's archive
// and frontier: the evaluator's workload identity (name plus graph shape,
// which also pins the partition plateau) and the full normalized config —
// strategy, space axes, objectives, constraints, population, generations,
// seed. Worker count is deliberately excluded: it never changes results,
// so a snapshot taken at 8 workers resumes fine at 1.
func configDigest(eval Evaluator, cfg Config) uint64 {
	h := checkpoint.NewDigest()
	h.String(eval.Name())
	st := eval.Stats()
	h.U64(uint64(st.V))
	h.U64(uint64(st.E))
	h.U64(uint64(st.VCmp))
	h.U64(uint64(st.Depth))
	h.U64(uint64(cfg.Strategy))
	h.U64(uint64(cfg.Population))
	h.U64(uint64(cfg.Generations))
	h.U64(uint64(cfg.Seed))
	h.F64(cfg.Constraints.MaxArea)
	h.F64(cfg.Constraints.MaxPowerW)
	h.U64(uint64(len(cfg.Objectives)))
	for _, o := range cfg.Objectives {
		h.U64(uint64(o))
	}
	for _, axis := range cfg.Space.axisWords() {
		h.U64(uint64(len(axis)))
		for _, v := range axis {
			h.U64(v)
		}
	}
	return h.Sum()
}

// encodeSnapshot renders the search state at a step boundary: the archive
// in first-seen order and the live candidate set as archive indices.
// Floats are stored as raw IEEE-754 bits, so a restored evaluation is
// bit-identical to a recomputed one.
func encodeSnapshot(digest uint64, totalSteps, doneSteps int, entries []entry, current []int) []byte {
	w := checkpoint.NewWriter(22 + len(entries)*8*entryWords + 4 + len(current)*4)
	w.PutHeader(snapshotVersion, digest)
	w.U32(uint32(totalSteps))
	w.U32(uint32(doneSteps))
	w.U32(uint32(len(entries)))
	for i := range entries {
		for _, v := range sweep.DesignWords(entries[i].design) {
			w.U64(v)
		}
		sweep.PutResult(w, entries[i].result)
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
	return checkpoint.Progress("search", snapshotVersion, payload)
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
	if err := r.CheckHeader("search", snapshotVersion, sv.digest); err != nil {
		return 0, nil, err
	}
	total, done := int(r.U32()), int(r.U32())
	n := int(r.U32())
	if r.Bad() {
		return 0, nil, fmt.Errorf("search: %w: truncated header", checkpoint.ErrSnapshotCorrupt)
	}
	if total != sv.totalSteps {
		return 0, nil, fmt.Errorf("search: %w: payload covers %d steps, this search has %d", checkpoint.ErrSnapshotMismatch, total, sv.totalSteps)
	}
	if done < 0 || done > total {
		return 0, nil, fmt.Errorf("search: %w: step %d outside [0, %d]", checkpoint.ErrSnapshotCorrupt, done, total)
	}
	if n < 0 || n > r.Rest()/(8*entryWords) {
		return 0, nil, fmt.Errorf("search: %w: archive count %d exceeds payload", checkpoint.ErrSnapshotCorrupt, n)
	}
	for i := 0; i < n; i++ {
		var words [6]uint64
		for j := range words {
			words[j] = r.U64()
		}
		d := sweep.DesignOf(words)
		res := sweep.ReadResult(r)
		res.Design = d
		if r.Bad() {
			return 0, nil, fmt.Errorf("search: %w: truncated or invalid archive records", checkpoint.ErrSnapshotCorrupt)
		}
		if err := sv.st.addEntry(d, res); err != nil {
			return 0, nil, fmt.Errorf("search: %w: %v", checkpoint.ErrSnapshotMismatch, err)
		}
	}
	m := int(r.U32())
	if r.Bad() || m < 0 || m > r.Rest()/4 {
		return 0, nil, fmt.Errorf("search: %w: truncated candidate set", checkpoint.ErrSnapshotCorrupt)
	}
	current = make([]int, m)
	for i := range current {
		id := int(r.U32())
		if id < 0 || id >= n {
			return 0, nil, fmt.Errorf("search: %w: candidate index %d outside archive of %d", checkpoint.ErrSnapshotCorrupt, id, n)
		}
		current[i] = id
	}
	if err := r.End("search", "candidate set"); err != nil {
		return 0, nil, err
	}
	sv.lastSaved = done
	return done, current, nil
}
