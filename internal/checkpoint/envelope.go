package checkpoint

import (
	"errors"
	"fmt"
	"math"

	"accelwall/internal/mix"
)

// The snapshot envelope every engine payload shares: a [u16 layout
// version][u64 configuration digest] header, and three decode causes the
// engines wrap with their own name ("sweep: corrupt snapshot payload:
// truncated header"), so a caller tells "this resume payload is not
// usable" apart from every other failure with three errors.Is checks.
var (
	// ErrSnapshotVersion: the payload was written by an incompatible build.
	ErrSnapshotVersion = errors.New("unsupported snapshot version")
	// ErrSnapshotMismatch: the payload belongs to a different run.
	ErrSnapshotMismatch = errors.New("snapshot does not match this run")
	// ErrSnapshotCorrupt: the payload is structurally broken.
	ErrSnapshotCorrupt = errors.New("corrupt snapshot payload")
)

// IsSnapshotErr reports whether err wraps one of the three envelope
// causes.
func IsSnapshotErr(err error) bool {
	return errors.Is(err, ErrSnapshotVersion) || errors.Is(err, ErrSnapshotMismatch) || errors.Is(err, ErrSnapshotCorrupt)
}

// Digest fingerprints everything that determines a snapshot's contents:
// 64-bit FNV-1a over a name's bytes and little-endian words, in the order
// they are fed. Start one with NewDigest.
type Digest struct{ h mix.FNV }

// NewDigest returns a digest of no input.
func NewDigest() Digest { return Digest{mix.NewFNV()} }

// String feeds the bytes of s.
func (d *Digest) String(s string) { d.h = d.h.String(s) }

// U64 and F64 feed one word; a float is fed as its IEEE-754 bits.
func (d *Digest) U64(v uint64)  { d.h = d.h.Word(v) }
func (d *Digest) F64(v float64) { d.U64(math.Float64bits(v)) }

// Sum returns the digest of everything fed so far.
func (d *Digest) Sum() uint64 { return uint64(d.h) }

// PutHeader starts a snapshot payload: the layout version, then the
// configuration digest.
func (w *Writer) PutHeader(version uint16, digest uint64) {
	w.U16(version)
	w.U64(digest)
}

// ReadHeader reads a snapshot header, checks its layout version and
// returns the stored digest. engine names the payload in the error.
func (r *Reader) ReadHeader(engine string, version uint16) (uint64, error) {
	v, d := r.U16(), r.U64()
	switch {
	case v != version:
		return 0, fmt.Errorf("%s: %w %d, this build reads %d", engine, ErrSnapshotVersion, v, version)
	case r.bad:
		return 0, fmt.Errorf("%s: %w: truncated header", engine, ErrSnapshotCorrupt)
	}
	return d, nil
}

// CheckHeader reads a snapshot header and checks both its layout version
// and that it was written for the run whose digest is given.
func (r *Reader) CheckHeader(engine string, version uint16, digest uint64) error {
	d, err := r.ReadHeader(engine, version)
	if err == nil && d != digest {
		err = fmt.Errorf("%s: %w: configuration digest mismatch", engine, ErrSnapshotMismatch)
	}
	return err
}

// End closes a decode: what names the records just read, reported if any
// read ran out of bytes or failed a check, and any unread bytes are
// reported as trailing.
func (r *Reader) End(engine, what string) error {
	if r.bad {
		return fmt.Errorf("%s: %w: truncated or invalid %s", engine, ErrSnapshotCorrupt, what)
	}
	if r.Rest() != 0 {
		return fmt.Errorf("%s: %w: %d trailing bytes", engine, ErrSnapshotCorrupt, r.Rest())
	}
	return nil
}

// Progress reports how many of how many work units a snapshot covers,
// without validating it against a run, for the layout the sweep and
// search snapshots share: [header][u32 total][u32 done]. Serving layers
// use it to surface job progress.
func Progress(engine string, version uint16, payload []byte) (done, total int, err error) {
	r := NewReader(payload)
	if _, err := r.ReadHeader(engine, version); err != nil {
		return 0, 0, err
	}
	total, done = int(r.U32()), int(r.U32())
	if r.bad || done < 0 || done > total {
		return 0, 0, fmt.Errorf("%s: %w: progress %d of %d", engine, ErrSnapshotCorrupt, done, total)
	}
	return done, total, nil
}
