package checkpoint

import (
	"encoding/binary"
	"math"
)

// Writer appends the little-endian words of a snapshot payload. Engines
// frame their snapshot and slice payloads with it so every codec shares
// one byte order and one float encoding: floats are stored as raw
// IEEE-754 bits, so a restored value is bit-identical to the computed one.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer whose buffer starts with the given capacity.
func NewWriter(capacity int) *Writer { return &Writer{buf: make([]byte, 0, capacity)} }

// Bytes returns the payload written so far.
func (w *Writer) Bytes() []byte { return w.buf }

// U8, U16, U32, U64 and F64 append one word.
func (w *Writer) U8(v byte)     { w.buf = append(w.buf, v) }
func (w *Writer) U16(v uint16)  { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *Writer) U32(v uint32)  { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *Writer) U64(v uint64)  { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Raw appends p verbatim.
func (w *Writer) Raw(p []byte) { w.buf = append(w.buf, p...) }

// Reader is the bounds-checked little-endian cursor matching Writer. A
// read past the end returns zero and marks the reader bad; decoders check
// Bad once per section instead of after every word.
type Reader struct {
	b   []byte
	off int
	bad bool
}

// NewReader returns a cursor at the start of payload.
func NewReader(payload []byte) *Reader { return &Reader{b: payload} }

// Bad reports whether any read ran past the end of the payload.
func (r *Reader) Bad() bool { return r.bad }

// Rest reports how many bytes are left unread.
func (r *Reader) Rest() int { return len(r.b) - r.off }

// Fail marks the reader bad: decoders call it when a value they read is
// out of range, so one Bad check covers truncation and validation alike.
func (r *Reader) Fail() { r.bad = true }

// Raw reads the next n bytes (aliasing the payload), or nil once the
// reader is bad.
func (r *Reader) Raw(n int) []byte { return r.take(n) }

func (r *Reader) take(n int) []byte {
	if r.bad || n < 0 || n > r.Rest() {
		r.bad = true
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

// U8, U16, U32, U64 and F64 read one word, or zero once the reader is
// bad.
func (r *Reader) U8() byte {
	if s := r.take(1); s != nil {
		return s[0]
	}
	return 0
}

func (r *Reader) U16() uint16 {
	if s := r.take(2); s != nil {
		return binary.LittleEndian.Uint16(s)
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if s := r.take(4); s != nil {
		return binary.LittleEndian.Uint32(s)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if s := r.take(8); s != nil {
		return binary.LittleEndian.Uint64(s)
	}
	return 0
}

func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Finite reads a float and marks the reader bad if it is NaN or infinite:
// the compute layers assume finite inputs, so no decoder lets one in.
func (r *Reader) Finite() float64 {
	v := r.F64()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.bad = true
	}
	return v
}
