package aladdin

import (
	"math"
	"sync"
	"sync/atomic"

	"accelwall/internal/cmos"
)

// maxSchedSummaries bounds the per-Compiled schedule-class cache. Table III
// style lattices collapse to on the order of a hundred classes, so 256
// keeps every class of a realistic sweep resident while bounding memory on
// adversarial design streams; replacement is round-robin.
const maxSchedSummaries = 256

// maxEnergySums bounds each energyMemo. The dynamic-energy sum depends on
// the design only through the energy scale energyScale(simplification) ×
// node.DynEnergy() and on the summary only through its chained flags. A
// summary serves one pipeline-depth class, i.e. at most four
// simplification degrees, so over a Table III grid's seven nodes a memo
// sees at most 28 scales and 32 keeps every scale of a full grid. Scales
// past the bound are summed on every call and not stored.
//
// Memory: a memo is a 24 B header plus a slab that doubles from 4 sums of
// 16 B up to 32, so at the bound it holds 24 + 24 + 512 = 560 B. Every
// summary without a chained operation shares its Compiled's one memo, so
// a Compiled holds at most 1 + maxSchedSummaries memos: 141 KiB at the
// bound, 4.4 MiB over a 32-engine cache. The reduced Table III grid
// leaves about 30 memos of 1–4 sums per Compiled (3–4 KiB).
const maxEnergySums = 32

// schedKey identifies a schedule class: the complete set of design knobs
// the scheduling walk can observe. Metrics knobs (NodeNM except through
// window, ClockGHz) are deliberately absent — designs differing only in
// them share one walk. The window is normalized to 1 whenever chaining is
// structurally impossible (deep pipelining, or a graph with no single-cycle
// compute op), collapsing those classes together.
type schedKey struct {
	partition int
	banks     int
	extra     int
	window    int
}

// schedSummary is the design-independent outcome of one scheduling walk:
// everything finishResult needs (cycles, op counts, the per-node chained
// flags driving the fused energy discount) plus the saturation facts that
// let the summary stand in for other lane capacities.
//
// The saturation argument: the walk consults partition and banks only in
// the contention probe's two skip branches, and both branches have the
// identical observable effect (advance the candidate cycle by one). A walk
// where the datapath branch never fired (dpSkipped false) would replay
// move-for-move under ANY partition ≥ its high-water per-cycle lane
// occupancy maxLane, because no probe ever observed the capacity; likewise
// for banks/maxMem independently. A summary's walk outcome is immutable
// once built; only its dynamic-energy memo grows, up to maxEnergySums.
type schedSummary struct {
	key         schedKey
	cycles      int
	issuedOps   int
	fusedOps    int
	maxLane     int
	maxMem      int
	dpSkipped   bool
	bankSkipped bool
	chained     []bool
	energy      *energyMemo // shared by every summary with no chained op
}

// energyMemo memoizes dynamic-energy sums per energy scale for summaries
// with identical chained flags. Entries are append-only: (*slab)[:n] holds
// the sums stored so far. A writer (serialized by mu) publishes a grown
// slab before the count that needs it and writes an entry before the
// count that covers it, so a reader that loads n and then slab may read
// the entries below n without a lock.
type energyMemo struct {
	mu   sync.Mutex
	n    atomic.Int32
	slab atomic.Pointer[[]energySum]
}

// energySum is one memoized sum.
type energySum struct {
	scale uint64 // math.Float64bits of the energy scale
	sum   float64
}

// matches reports whether a walk under k would be move-for-move identical
// to the walk this summary records. Exact key equality always matches;
// beyond that, each capacity knob may differ independently when this
// summary's walk never saturated it (see the type comment).
func (s *schedSummary) matches(k schedKey) bool {
	if k.extra != s.key.extra || k.window != s.key.window {
		return false
	}
	if k.partition != s.key.partition && (s.dpSkipped || k.partition < s.maxLane) {
		return false
	}
	if k.banks != s.key.banks && (s.bankSkipped || k.banks < s.maxMem) {
		return false
	}
	return true
}

// dynEnergy returns the dynamic energy of sum's schedule at energy scale
// eScale through the summary's memo. A stored sum is the value sumEnergy
// returned for the same scale bits on the same chained flags, so a memo
// hit is bit-identical to a fresh sum.
func (c *Compiled) dynEnergy(sum *schedSummary, eScale float64) float64 {
	m, bits := sum.energy, math.Float64bits(eScale)
	n := int(m.n.Load())
	if n > 0 {
		for _, s := range (*m.slab.Load())[:n] {
			if s.scale == bits {
				return s.sum
			}
		}
	}
	e := c.sumEnergy(sum, eScale)
	m.mu.Lock()
	defer m.mu.Unlock()
	stored := int(m.n.Load())
	var slab []energySum
	if p := m.slab.Load(); p != nil {
		slab = *p
	}
	for _, s := range slab[n:stored] {
		if s.scale == bits {
			return e // another goroutine stored this scale meanwhile
		}
	}
	if stored == maxEnergySums {
		return e
	}
	if stored == len(slab) {
		grown := make([]energySum, max(4, 2*len(slab)))
		copy(grown, slab)
		m.slab.Store(&grown)
		slab = grown
	}
	slab[stored] = energySum{scale: bits, sum: e}
	m.n.Store(int32(stored + 1))
	return e
}

// walkKey derives the schedule class of a design. d must already carry its
// ClockGHz default; banks defaulting is replicated here and in finishResult
// so the key never depends on the caller's spelling.
func (c *Compiled) walkKey(d Design, node cmos.Node) schedKey {
	banks := d.MemoryBanks
	if banks == 0 {
		banks = d.Partition
	}
	extra := extraLatency(d.Simplification)
	window := fusionWindow(node, d.Fusion)
	// Chaining requires a registered-free unit (extra == 0) and at least one
	// single-cycle compute op; otherwise the window is unobservable.
	if extra > 0 || !c.hasCheap {
		window = 1
	}
	return schedKey{partition: d.Partition, banks: banks, extra: extra, window: window}
}

// lookupSched returns a cached summary whose walk is move-for-move
// identical to the key's, or nil.
func (c *Compiled) lookupSched(key schedKey) *schedSummary {
	c.schedMu.RLock()
	defer c.schedMu.RUnlock()
	for _, s := range c.scheds {
		if s.matches(key) {
			c.schedHits.Add(1)
			return s
		}
	}
	return nil
}

// storeSched inserts a freshly walked summary, deduplicating exact keys
// and evicting round-robin once the cache is full.
func (c *Compiled) storeSched(sum *schedSummary) {
	c.schedMu.Lock()
	defer c.schedMu.Unlock()
	for _, s := range c.scheds {
		if s.key == sum.key {
			return
		}
	}
	if len(c.scheds) < maxSchedSummaries {
		c.scheds = append(c.scheds, sum)
		return
	}
	c.scheds[c.schedClock] = sum
	c.schedClock = (c.schedClock + 1) % maxSchedSummaries
}

// ScheduleCacheStats reports how many full scheduling walks the engine has
// executed and how many designs were served from a cached or reused
// schedule summary instead. The ratio hits/(walks+hits) is the incremental
// reuse rate of a sweep.
func (c *Compiled) ScheduleCacheStats() (walks, hits uint64) {
	return c.schedWalks.Load(), c.schedHits.Load()
}
