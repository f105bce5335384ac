// Package mix holds the two bit-exact hash primitives every seeded stream
// and fingerprint in the program derives from: the SplitMix64 finalizer
// and 64-bit FNV-1a. Monte Carlo and search substreams, fault-injection
// firing, retry jitter, ring placement and snapshot digests all reduce to
// these, so their outputs are pinned by the tests of those packages; a
// change here moves every one of them.
package mix

// Gamma is the SplitMix64 increment (the golden ratio in 64-bit fixed
// point).
const Gamma = 0x9E3779B97F4A7C15

// Mix64 is the SplitMix64 finalizer: a bijective avalanche of x.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Substream derives the i-th SplitMix64 output of the stream seeded at
// root: the seed of an independent per-index stream.
func Substream(root, i uint64) uint64 { return Mix64(root + (i+1)*Gamma) }

// FNV is a running 64-bit FNV-1a hash; NewFNV starts one.
type FNV uint64

const fnvPrime = 1099511628211

// NewFNV returns the hash of no bytes (the FNV-1a offset basis).
func NewFNV() FNV { return 14695981039346656037 }

// String folds the bytes of s into h.
func (h FNV) String(s string) FNV {
	for i := 0; i < len(s); i++ {
		h = (h ^ FNV(s[i])) * fnvPrime
	}
	return h
}

// Word folds the eight little-endian bytes of v into h.
func (h FNV) Word(v uint64) FNV {
	for i := 0; i < 8; i++ {
		h = (h ^ FNV(byte(v>>(8*i)))) * fnvPrime
	}
	return h
}

// FNV1a hashes s.
func FNV1a(s string) uint64 { return uint64(NewFNV().String(s)) }
