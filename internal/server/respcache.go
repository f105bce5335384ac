package server

import (
	"container/list"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"

	"accelwall/internal/sweep"
)

// respKey identifies one cacheable grid-sweep response. Workers is
// deliberately absent: the pool equivalence suites guarantee every worker
// count produces bit-identical points, so pool width can never change the
// payload. Design-list requests are not cached — they are arbitrary point
// probes served by the engine memo table, which is already allocation-free
// when warm.
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

// maxCachedRespBytes bounds one cached body; a full-grid response with
// include_points can outgrow any reasonable residency budget, and a sweep
// that large is not a hot serving path anyway.
const maxCachedRespBytes = 1 << 20

// respCache is a marshaled-response LRU for grid sweeps: the warm serving
// path answers a repeated sweep with one mutex-guarded map lookup and a
// byte copy onto the wire, skipping grid enumeration, point assembly,
// frontier extraction, and JSON encoding entirely. Bodies are immutable
// once stored. Entries freeze the engine's cached_points telemetry at
// first render — identical requests report identical counters, which is
// exactly the invariant the cache-hit tests pin.
type respCache struct {
	mu      sync.Mutex
	max     int
	entries map[respKey]*list.Element
	lru     *list.List // front = most recent; values are *respEntry
}

type respEntry struct {
	key  respKey
	body []byte
}

// newRespCache builds a cache of at most max bodies (max <= 0 selects 64).
func newRespCache(max int) *respCache {
	if max <= 0 {
		max = 64
	}
	return &respCache{
		max:     max,
		entries: make(map[respKey]*list.Element),
		lru:     list.New(),
	}
}

// get returns the cached body for the key, or nil.
func (c *respCache) get(k respKey) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*respEntry).body
}

// put stores a rendered body, evicting the least-recent entry beyond
// capacity. Oversized bodies are dropped silently.
func (c *respCache) put(k respKey, body []byte) {
	if len(body) > maxCachedRespBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.lru.MoveToFront(el)
		el.Value.(*respEntry).body = body
		return
	}
	c.entries[k] = c.lru.PushFront(&respEntry{key: k, body: body})
	for c.lru.Len() > c.max {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.entries, back.Value.(*respEntry).key)
	}
}

// len reports resident bodies.
func (c *respCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

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
