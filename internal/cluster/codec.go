// The internode slice codec: the binary request/response frames peers
// exchange on POST /v1/internal/slice. Binary rather than JSON because
// the payloads are dense float vectors whose bit patterns must survive
// the trip exactly — results are merged into responses that have to be
// byte-identical to a single-node run, so floats travel as raw IEEE-754
// bits, never through a decimal round-trip.
//
// Decoding is fully bounds- and sanity-checked: frames come only from
// peers we configured, but the codec is fuzzed to the same standard as
// the public JSON bodies — no input may panic, over-allocate, or smuggle
// a non-finite float into the compute layers.
package cluster

import (
	"errors"
	"fmt"

	"accelwall/internal/aladdin"
	"accelwall/internal/checkpoint"
	"accelwall/internal/montecarlo"
	"accelwall/internal/sweep"
)

// Slice kinds: which endpoint's work a slice carries.
const (
	KindSweep       = 1 // evaluate a unique-design index range of a grid
	KindUncertainty = 2 // compute a Monte Carlo replicate range
	KindSearch      = 3 // evaluate an explicit design list (search batch)
)

// Frame magics and the codec version.
var (
	reqMagic  = [4]byte{'a', 'w', 's', 'q'}
	respMagic = [4]byte{'a', 'w', 's', 'p'}
)

const codecVersion = 1

// Decode limits. Generous multiples of what the server-side request
// bounds allow, so a legitimate frame never trips them while a corrupt
// length field cannot drive allocation.
const (
	maxWorkloadLen  = 256
	maxAxisLen      = 4096
	maxSliceDesigns = 1 << 20
	maxSliceWidth   = 1 << 24
	maxMCPayload    = 64 << 20
)

// ErrCodec is the sentinel wrapped by every decode failure.
var ErrCodec = errors.New("cluster: malformed slice frame")

// SliceRequest is one unit of scattered work. Kind selects which optional
// fields are meaningful: sweeps carry Workload/Size/Grid and the unique-
// design index range [Lo, Hi); uncertainty carries MC and the replicate
// range; search carries Workload/Size and an explicit design list
// (Lo/Hi frame the batch's position for logging and merging).
type SliceRequest struct {
	Kind     int
	Lo, Hi   int
	Workload string
	Size     int
	Grid     *sweep.Params
	MC       *montecarlo.Config
	Designs  []aladdin.Design
}

// SliceResponse carries the computed results of one slice. Sweep and
// search slices return bare result records in request order (the designs
// are re-derived by the coordinator, which knows the list); uncertainty
// slices return an opaque montecarlo slice payload with its own digest
// guard.
type SliceResponse struct {
	Kind    int
	Lo, Hi  int
	Results []aladdin.Result
	Payload []byte
}

// Cluster-specific checks over the shared word codec (checkpoint.Writer
// and Reader): length-prefixed strings, strict 0/1 bools and bounded
// axis lengths.

func putStr(w *checkpoint.Writer, s string) {
	w.U16(uint16(len(s)))
	w.Raw([]byte(s))
}

func readStr(r *checkpoint.Reader, max int) string {
	n := int(r.U16())
	if n > max {
		r.Fail()
		return ""
	}
	return string(r.Raw(n))
}

func putBool(w *checkpoint.Writer, v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// readBool reads a strict 0/1 byte; any other value marks the frame bad so
// every accepted frame has exactly one encoding.
func readBool(r *checkpoint.Reader) bool {
	v := r.U8()
	if v > 1 {
		r.Fail()
	}
	return v == 1
}

// putHead and readHead frame what requests and responses share: the
// magic, the codec version, the slice kind and the slice range.
func putHead(w *checkpoint.Writer, magic [4]byte, kind, lo, hi int) {
	w.Raw(magic[:])
	w.U16(codecVersion)
	w.U8(byte(kind))
	putInt(w, lo)
	putInt(w, hi)
}

func readHead(r *checkpoint.Reader, magic [4]byte, what string) (kind, lo, hi int, err error) {
	if m := r.Raw(4); m == nil || [4]byte(m) != magic {
		return 0, 0, 0, fmt.Errorf("%w: bad %s magic", ErrCodec, what)
	}
	if v := r.U16(); r.Bad() || v != codecVersion {
		return 0, 0, 0, fmt.Errorf("%w: %s version %d, this build reads %d", ErrCodec, what, v, codecVersion)
	}
	kind, lo, hi = int(r.U8()), readInt(r), readInt(r)
	switch {
	case r.Bad():
		err = fmt.Errorf("%w: truncated %s header", ErrCodec, what)
	case kind < KindSweep || kind > KindSearch:
		err = fmt.Errorf("%w: unknown slice kind %d", ErrCodec, kind)
	case lo < 0 || hi < lo || hi > maxSliceWidth:
		err = fmt.Errorf("%w: slice range [%d, %d)", ErrCodec, lo, hi)
	}
	return kind, lo, hi, err
}

// EncodeRequest renders one slice request frame.
func EncodeRequest(req *SliceRequest) []byte {
	w := checkpoint.NewWriter(64 + len(req.Designs)*33)
	putHead(w, reqMagic, req.Kind, req.Lo, req.Hi)
	putStr(w, req.Workload)
	putInt(w, req.Size)

	var flags byte
	if req.Grid != nil {
		flags |= 1
	}
	if req.MC != nil {
		flags |= 2
	}
	w.U8(flags)
	if g := req.Grid; g != nil {
		putAxis(w, g.Nodes, (*checkpoint.Writer).F64)
		putAxis(w, g.Partitions, putInt)
		putAxis(w, g.Simplifications, putInt)
		putAxis(w, g.Fusion, putBool)
	}
	if req.MC != nil {
		putInt(w, req.MC.Replicates)
		w.U64(uint64(req.MC.Seed))
		w.U64(uint64(req.MC.CorpusSeed))
		w.F64(req.MC.Confidence)
		w.F64(req.MC.GainTarget)
		w.F64(req.MC.CMOSJitter)
	}
	w.U32(uint32(len(req.Designs)))
	for _, d := range req.Designs {
		w.F64(d.NodeNM)
		putInt(w, d.Partition)
		putInt(w, d.Simplification)
		putBool(w, d.Fusion)
		w.F64(d.ClockGHz)
		putInt(w, d.MemoryBanks)
	}
	return w.Bytes()
}

// DecodeRequest parses and sanity-checks one slice request frame.
func DecodeRequest(b []byte) (*SliceRequest, error) {
	r := checkpoint.NewReader(b)
	req := &SliceRequest{}
	var err error
	if req.Kind, req.Lo, req.Hi, err = readHead(r, reqMagic, "request"); err != nil {
		return nil, err
	}
	req.Workload = readStr(r, maxWorkloadLen)
	req.Size = readInt(r)
	flags := r.U8()
	if r.Bad() {
		return nil, fmt.Errorf("%w: truncated request header", ErrCodec)
	}
	if req.Size < 0 || req.Size > maxSliceWidth {
		return nil, fmt.Errorf("%w: workload size %d", ErrCodec, req.Size)
	}
	if flags&^3 != 0 {
		return nil, fmt.Errorf("%w: unknown request flags %#x", ErrCodec, flags)
	}
	if flags&1 != 0 {
		g := &sweep.Params{}
		g.Nodes = readAxis(r, (*checkpoint.Reader).Finite)
		g.Partitions = readAxis(r, readInt)
		g.Simplifications = readAxis(r, readInt)
		g.Fusion = readAxis(r, readBool)
		req.Grid = g
	}
	if flags&2 != 0 {
		mc := &montecarlo.Config{}
		mc.Replicates = readInt(r)
		mc.Seed = int64(r.U64())
		mc.CorpusSeed = int64(r.U64())
		mc.Confidence = r.Finite()
		mc.GainTarget = r.Finite()
		mc.CMOSJitter = r.Finite()
		req.MC = mc
	}
	n := int(r.U32())
	if r.Bad() || n < 0 || n > maxSliceDesigns {
		return nil, fmt.Errorf("%w: design count", ErrCodec)
	}
	if n > 0 {
		req.Designs = make([]aladdin.Design, n)
		for i := range req.Designs {
			d := &req.Designs[i]
			d.NodeNM = r.Finite()
			d.Partition = readInt(r)
			d.Simplification = readInt(r)
			d.Fusion = readBool(r)
			d.ClockGHz = r.Finite()
			d.MemoryBanks = readInt(r)
			if r.Bad() {
				return nil, fmt.Errorf("%w: truncated design %d", ErrCodec, i)
			}
		}
	}
	if r.Bad() {
		return nil, fmt.Errorf("%w: truncated request body", ErrCodec)
	}
	if r.Rest() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCodec, r.Rest())
	}
	return req, nil
}

// putInt and readInt frame an int as a u32 word.
func putInt(w *checkpoint.Writer, v int) { w.U32(uint32(v)) }
func readInt(r *checkpoint.Reader) int   { return int(int32(r.U32())) }

// putAxis and readAxis frame a grid axis: a u32 count (bounded by
// maxAxisLen on read), then the values.
func putAxis[T any](w *checkpoint.Writer, vs []T, put func(*checkpoint.Writer, T)) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		put(w, v)
	}
}

func readAxis[T any](r *checkpoint.Reader, read func(*checkpoint.Reader) T) []T {
	n := int(r.U32())
	if n < 0 || n > maxAxisLen {
		r.Fail()
		return nil
	}
	out := make([]T, 0, n)
	for i := 0; i < n && !r.Bad(); i++ {
		out = append(out, read(r))
	}
	return out
}

// EncodeResponse renders one slice response frame. Result records are
// the sweep checkpoint codec's (sweep.PutResult).
func EncodeResponse(resp *SliceResponse) []byte {
	w := checkpoint.NewWriter(32 + len(resp.Results)*8*sweep.ResultWords + len(resp.Payload))
	putHead(w, respMagic, resp.Kind, resp.Lo, resp.Hi)
	w.U32(uint32(len(resp.Results)))
	for _, res := range resp.Results {
		sweep.PutResult(w, res)
	}
	w.U32(uint32(len(resp.Payload)))
	w.Raw(resp.Payload)
	return w.Bytes()
}

// DecodeResponse parses and sanity-checks one slice response frame.
func DecodeResponse(b []byte) (*SliceResponse, error) {
	r := checkpoint.NewReader(b)
	resp := &SliceResponse{}
	var err error
	if resp.Kind, resp.Lo, resp.Hi, err = readHead(r, respMagic, "response"); err != nil {
		return nil, err
	}
	n := int(r.U32())
	if r.Bad() || n < 0 || n > maxSliceDesigns {
		return nil, fmt.Errorf("%w: result count", ErrCodec)
	}
	if n > 0 {
		resp.Results = make([]aladdin.Result, n)
		for i := range resp.Results {
			resp.Results[i] = sweep.ReadResult(r)
			if r.Bad() {
				return nil, fmt.Errorf("%w: truncated result %d", ErrCodec, i)
			}
		}
	}
	pn := int(r.U32())
	if r.Bad() || pn < 0 || pn > maxMCPayload {
		return nil, fmt.Errorf("%w: payload length", ErrCodec)
	}
	if pn > 0 {
		p := r.Raw(pn)
		if r.Bad() {
			return nil, fmt.Errorf("%w: truncated payload", ErrCodec)
		}
		resp.Payload = append([]byte(nil), p...)
	}
	if r.Rest() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCodec, r.Rest())
	}
	return resp, nil
}
