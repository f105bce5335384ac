// Package cluster is the distribution layer of accelwalld: static peer
// membership with failure detection, a consistent-hash ring assigning
// engine-cache keys, request slices, and durable jobs to peers, and a
// scatter–gather client with per-slice deadlines and work-stealing
// reassignment when a peer sheds (429/503) or dies.
//
// The design leans entirely on the determinism the compute engines
// already guarantee: every slice is a pure function of (request, range),
// so a stolen slice's work is bit-identical and the merged output
// matches a single-node run byte for byte at any shard count.
package cluster

import (
	"fmt"
	"sort"

	"accelwall/internal/mix"
)

// virtualNodes is how many ring points each peer owns. 64 keeps the
// assignment spread within a few percent of uniform for small clusters
// while the whole ring stays a few KB.
const virtualNodes = 64

// ringPoint is one virtual node: a hash position owned by a peer.
type ringPoint struct {
	hash uint64
	peer string
}

// Ring is an immutable consistent-hash ring over the member peers.
// Ownership moves only when membership changes (a peer is declared dead),
// and only the dead peer's keys move — the survivors' assignments are
// untouched, which is what makes cache affinity and job adoption cheap.
type Ring struct {
	peers  []string
	points []ringPoint
}

// hashKey is the ring hash: FNV-1a finished with a SplitMix64-style
// avalanche so nearby keys (job-000001, job-000002) land far apart.
func hashKey(s string) uint64 { return mix.Mix64(mix.FNV1a(s)) }

// NewRing builds the ring over the peer list. Order does not matter; the
// same membership always produces the same ring on every peer.
func NewRing(peers []string) *Ring {
	r := &Ring{peers: append([]string(nil), peers...)}
	sort.Strings(r.peers)
	r.points = make([]ringPoint, 0, len(r.peers)*virtualNodes)
	for _, p := range r.peers {
		for v := 0; v < virtualNodes; v++ {
			r.points = append(r.points, ringPoint{hash: hashKey(fmt.Sprintf("%s#%d", p, v)), peer: p})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].peer < r.points[b].peer
	})
	return r
}

// Peers returns the full membership, sorted.
func (r *Ring) Peers() []string { return r.peers }

// Owner returns the peer owning key: the first virtual node clockwise
// from the key's hash.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(key)].peer
}

// search locates the first ring point at or after the key's hash.
func (r *Ring) search(key string) int {
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Successors walks clockwise from the key and returns up to n distinct
// peers in ring order, the owner first. This is both the replica chain
// (jobs replicate to Successors(id, 2)[1]) and the steal order (a shed
// slice retries down the same list).
func (r *Ring) Successors(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.peers) {
		n = len(r.peers)
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i, start := 0, r.search(key); len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)].peer
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// OwnerAmong returns the first peer in clockwise order that alive reports
// true for — the key's owner under the current failure view. An empty
// string means no member is alive.
func (r *Ring) OwnerAmong(key string, alive func(string) bool) string {
	for _, p := range r.Successors(key, len(r.peers)) {
		if alive(p) {
			return p
		}
	}
	return ""
}
