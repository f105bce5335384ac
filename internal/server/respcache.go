package server

import (
	"encoding/json"
	"net/http"
	"strconv"

	"accelwall/internal/sweep"
)

// respKey identifies one cacheable grid-sweep response. Workers is
// deliberately absent: the pool equivalence suites guarantee every worker
// count produces bit-identical points, so pool width can never change the
// payload. Design-list requests are not cached — they are arbitrary point
// probes served by the engine memo table, which is already allocation-free
// when warm. Stored bodies are immutable and freeze the engine's
// cached_points telemetry at first render, so identical requests report
// identical counters — the invariant the cache-hit tests pin.
type respKey struct {
	engine    string // engineKey(workload, size)
	objective string
	points    bool   // include_points
	grid      string // fingerprint of the resolved sweep.Params
}

// gridFingerprint renders resolved sweep parameters into a stable key
// string. Axis order is meaningful (it fixes the enumeration order of the
// response), so no sorting happens here. Hand-rolled appends keep fmt's
// reflection off the warm serving path.
func gridFingerprint(p sweep.Params) string {
	b := make([]byte, 0, 160)
	for _, n := range p.Nodes {
		b = strconv.AppendFloat(b, n, 'g', -1, 64)
		b = append(b, ',')
	}
	b = append(b, '|')
	for _, f := range p.Partitions {
		b = strconv.AppendInt(b, int64(f), 10)
		b = append(b, ',')
	}
	b = append(b, '|')
	for _, s := range p.Simplifications {
		b = strconv.AppendInt(b, int64(s), 10)
		b = append(b, ',')
	}
	b = append(b, '|')
	for _, f := range p.Fusion {
		if f {
			b = append(b, 't')
		} else {
			b = append(b, 'f')
		}
	}
	return string(b)
}

// maxCachedRespBytes bounds one body in the response memo; a full-grid
// response with include_points can outgrow any reasonable residency
// budget, and a sweep that large is not a hot serving path anyway.
const maxCachedRespBytes = 1 << 20

// marshalJSONBody renders v byte-for-byte as writeJSON would put it on the
// wire (indented encoding plus the Encoder's trailing newline), so cached
// and freshly rendered responses are indistinguishable to clients.
func marshalJSONBody(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// writeJSONBytes puts a pre-rendered JSON body on the wire.
func writeJSONBytes(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body) //nolint:errcheck // headers are sent; nothing left to do
}
