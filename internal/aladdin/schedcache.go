package aladdin

import "accelwall/internal/cmos"

// maxSchedSummaries bounds the per-Compiled schedule-class cache. Table III
// style lattices collapse to on the order of a hundred classes, so 256
// keeps every class of a realistic sweep resident while bounding memory on
// adversarial design streams; replacement is round-robin.
const maxSchedSummaries = 256

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
// for banks/maxMem independently. Summaries are immutable once built.
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
