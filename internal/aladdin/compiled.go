package aladdin

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"accelwall/internal/cmos"
	"accelwall/internal/dfg"
)

// numExtraClasses is the number of distinct pipeline-depth penalties over
// the legal simplification range 1..MaxSimplification. It mirrors the
// integer division in extraLatency; TestExtraClassesCoverRange pins the two
// together.
const numExtraClasses = (MaxSimplification-1)/4 + 1

// Compiled is the per-graph compiled simulation state: every invariant the
// scheduler needs that does not depend on the design point, precomputed
// once so a design-space sweep pays for graph analysis a single time
// instead of once per design.
//
// The precomputed state is a flat CSR-style adjacency (predecessor and
// successor index slices instead of per-node slice-of-slice walks), per-op
// cost metadata, the graph statistics that feed the area model, and — built
// lazily per pipeline-depth class — the longest-downstream-path priorities
// and the static issue order the list scheduler follows. Per-call scratch
// buffers (start, finish, chain-depth, and lane-occupancy arrays) are
// pooled and reused, so a Simulate call performs zero graph traversal and,
// in steady state, zero per-node allocation.
//
// A Compiled is immutable after Compile and safe for concurrent use by any
// number of goroutines; the underlying graph must not be mutated once
// compiled.
type Compiled struct {
	name string
	n    int

	// CSR adjacency: the predecessors of node i are
	// preds[predStart[i]:predStart[i+1]], in the same order the builder
	// recorded them (the scheduler's tie-breaking depends on that order).
	predStart []int32
	preds     []int32
	succStart []int32
	succs     []int32

	ops       []dfg.Op
	baseLat   []int32   // Op.Latency() for compute nodes, 0 for structural
	energy    []float64 // Op.Energy() for compute nodes, 0 for structural
	isCompute []bool
	isMem     []bool // load or store: consumes a memory bank port
	cheap     []bool // single-cycle compute op: eligible for chaining

	stats      dfg.Stats
	mixArea    float64 // TotalArea / VCmp: average functional-unit mix per lane
	numCompute int
	hasCheap   bool // any single-cycle compute op: chaining is possible at all

	// Critical-path priorities depend on the design only through the
	// pipeline-depth penalty extraLatency(Simplification), which takes
	// numExtraClasses distinct values; each class's arrays are computed
	// once on first use. order[e] is the class's issue order (see class).
	prioOnce [numExtraClasses]sync.Once
	prio     [numExtraClasses][]int32
	order    [numExtraClasses][]int32

	pool sync.Pool // of *scratch

	// Schedule-class cache (see schedcache.go): the scheduling walk
	// depends on the design only through its schedKey, and the saturation
	// argument in schedSummary.matches lets one walk stand in for every
	// lane-capacity plateau above its high-water occupancy. Summaries are
	// immutable once stored; the slice is guarded by schedMu and bounded
	// by maxSchedSummaries with round-robin replacement.
	schedMu    sync.RWMutex
	scheds     []*schedSummary
	schedClock int

	schedWalks atomic.Uint64 // full scheduling walks executed
	schedHits  atomic.Uint64 // designs served from a cached/reused summary
}

// scratch is the reusable per-simulation working memory. Vertices without
// predecessors are never written: they keep the zero start, finish and
// chain entries they were allocated with (inputs are available at cycle
// 0), and a walk writes every other entry before reading it.
type scratch struct {
	start    []int
	finish   []int
	chain    []int // chained ops executed in the same cycle so far
	lanes    []int // cycle -> datapath lanes used, or a full-cycle link (see nextFree)
	memLanes []int // cycle -> memory bank ports used, likewise
}

// Compile analyzes the graph once and returns the compiled engine. The
// graph must be valid (workload builders guarantee this), numbered in
// topological order (the dfg builder guarantees this), and must not be
// mutated afterwards.
func Compile(g *dfg.Graph) (*Compiled, error) {
	if g == nil {
		return nil, errors.New("aladdin: nil graph")
	}
	nodes := g.Nodes()
	n := len(nodes)
	c := &Compiled{
		name:      g.Name,
		n:         n,
		predStart: make([]int32, n+1),
		succStart: make([]int32, n+1),
		ops:       make([]dfg.Op, n),
		baseLat:   make([]int32, n),
		energy:    make([]float64, n),
		isCompute: make([]bool, n),
		isMem:     make([]bool, n),
		cheap:     make([]bool, n),
	}
	maxLat := 0
	for _, nd := range nodes {
		c.ops[nd.ID] = nd.Op
		if nd.Op.IsCompute() {
			c.isCompute[nd.ID] = true
			c.baseLat[nd.ID] = int32(nd.Op.Latency())
			c.energy[nd.ID] = nd.Op.Energy()
			c.isMem[nd.ID] = nd.Op == dfg.OpLoad || nd.Op == dfg.OpStore
			c.cheap[nd.ID] = nd.Op.Latency() == 1
			if c.cheap[nd.ID] {
				c.hasCheap = true
			}
			c.numCompute++
			if l := nd.Op.Latency(); l > maxLat {
				maxLat = l
			}
		}
	}
	// Priorities are int32 path sums, each at most n*(maxLat+extra).
	if int64(n)*int64(maxLat+numExtraClasses) > math.MaxInt32 {
		return nil, fmt.Errorf("aladdin: graph %q too large to compile (%d vertices)", g.Name, n)
	}
	// Flatten adjacency. Both directions preserve the builder's edge order.
	for _, nd := range nodes {
		for _, p := range g.Preds(nd.ID) {
			if p >= nd.ID {
				return nil, fmt.Errorf("aladdin: graph %q is not topologically numbered: vertex %d reads vertex %d", g.Name, nd.ID, p)
			}
		}
		c.predStart[nd.ID+1] = c.predStart[nd.ID] + int32(len(g.Preds(nd.ID)))
		c.succStart[nd.ID+1] = c.succStart[nd.ID] + int32(len(g.Succs(nd.ID)))
	}
	c.preds = make([]int32, c.predStart[n])
	c.succs = make([]int32, c.succStart[n])
	for _, nd := range nodes {
		pi := c.predStart[nd.ID]
		for _, p := range g.Preds(nd.ID) {
			c.preds[pi] = int32(p)
			pi++
		}
		si := c.succStart[nd.ID]
		for _, s := range g.Succs(nd.ID) {
			c.succs[si] = int32(s)
			si++
		}
	}
	c.stats = g.ComputeStats()
	if c.stats.VCmp > 0 {
		c.mixArea = g.TotalArea() / float64(c.stats.VCmp)
	}
	// A fresh walk scratch for the compiled graph; Simulate drops a
	// panicking walk's scratch instead of re-pooling it.
	c.pool.New = func() any {
		return &scratch{
			start:  make([]int, c.n),
			finish: make([]int, c.n),
			chain:  make([]int, c.n),
		}
	}
	return c, nil
}

// Name returns the compiled graph's name.
func (c *Compiled) Name() string { return c.name }

// NumVertices returns the vertex count of the compiled graph.
func (c *Compiled) NumVertices() int { return c.n }

// Stats returns the compiled graph's statistics (computed once at compile
// time). The WorkingSets slice is shared; do not mutate it.
func (c *Compiled) Stats() dfg.Stats { return c.stats }

// class returns one pipeline-depth class's critical-path priorities and
// issue order, computing them on first use. The priority of a node is the
// longest downstream latency sum including the node's own latency.
//
// The issue order lists every vertex that has predecessors, sorted by
// (priority desc, id asc): the scheduler places vertices one at a time in
// this static critical-path-first order, each at the earliest cycle its
// operands and a free lane allow. The order is topological — a
// predecessor's priority is at least its successor's, and equal
// priorities fall back to the topological IDs — so a walk always finds
// its operands' finish times already written. A counting sort over
// priorities builds it: scanning IDs in ascending order into
// per-priority buckets yields the ID tiebreak for free.
func (c *Compiled) class(extra int) (prio, order []int32) {
	c.prioOnce[extra].Do(func() {
		p := make([]int32, c.n)
		maxP := int32(0)
		for i := c.n - 1; i >= 0; i-- {
			best := int32(0)
			for _, s := range c.succs[c.succStart[i]:c.succStart[i+1]] {
				if p[s] > best {
					best = p[s]
				}
			}
			lat := int32(0)
			if c.isCompute[i] {
				lat = c.baseLat[i] + int32(extra)
			}
			p[i] = best + lat
			maxP = max(maxP, p[i])
		}
		// next[maxP-p] is where the next vertex of priority p goes.
		next := make([]int32, maxP+2)
		for i := 0; i < c.n; i++ {
			if c.predStart[i+1] > c.predStart[i] {
				next[maxP-p[i]+1]++
			}
		}
		for b := 1; b < len(next); b++ {
			next[b] += next[b-1]
		}
		o := make([]int32, next[maxP+1])
		for i := 0; i < c.n; i++ {
			if c.predStart[i+1] > c.predStart[i] {
				b := maxP - p[i]
				o[next[b]] = int32(i)
				next[b]++
			}
		}
		c.prio[extra] = p
		c.order[extra] = o
	})
	return c.prio[extra], c.order[extra]
}

// Simulate schedules the compiled graph onto the design point and returns
// the pre-RTL estimates. Safe for concurrent use.
func (c *Compiled) Simulate(d Design) (Result, error) {
	res, _, err := c.simulate(d, false)
	return res, err
}

// Trace simulates like Simulate but additionally returns the per-operation
// schedule, ordered by (Start, ID).
func (c *Compiled) Trace(d Design) (Schedule, error) {
	res, slots, err := c.simulate(d, true)
	if err != nil {
		return Schedule{}, err
	}
	sort.Slice(slots, func(i, j int) bool {
		if slots[i].Start != slots[j].Start {
			return slots[i].Start < slots[j].Start
		}
		return slots[i].ID < slots[j].ID
	})
	return Schedule{Result: res, Slots: slots}, nil
}

// growTo extends s with zeros until index i is addressable.
func growTo(s []int, i int) []int {
	if i < len(s) {
		return s
	}
	return append(s, make([]int, i+1-len(s))...)
}

// simulate is the single scheduling core behind every Simulate and Trace
// entry point; with capture set it records per-operation slots. The work
// splits in two: walk runs the critical-path-first list scheduler (the
// part that depends on the design only through its schedule class), and
// finishResult derives the per-design metrics from the walk's summary.
// Without capture, a design whose class has already been walked skips the
// scheduler entirely and pays only the metric derivation.
func (c *Compiled) simulate(d Design, capture bool) (Result, []OpSlot, error) {
	if err := d.Validate(); err != nil {
		return Result{}, nil, err
	}
	if d.ClockGHz == 0 {
		d.ClockGHz = 1
	}
	node := cmos.MustLookup(d.NodeNM)
	key := c.walkKey(d, node)
	if !capture {
		if sum := c.lookupSched(key); sum != nil {
			return c.finishResult(d, node, sum), nil, nil
		}
	}
	s := c.pool.Get().(*scratch)
	sum, slots := c.walk(key, s, capture)
	// The scratch is re-pooled only after a clean walk: a panic in walk
	// propagates past this point and the possibly mid-schedule scratch is
	// dropped for the collector instead of poisoning the pool.
	c.pool.Put(s)
	c.storeSched(sum)
	return c.finishResult(d, node, sum), slots, nil
}

// nextFree returns the first cycle at or after cyc whose occupancy entry
// has room. An occupancy slice holds a count for each cycle with room; a
// full cycle instead holds a negative link, minus the distance to a later
// cycle that may have room. Following the links with path halving (each
// visited link is redirected past its successor) makes the probe
// amortized near-constant instead of a cycle-by-cycle scan of full
// cycles. Cycles beyond the slice are untouched, i.e. free.
func nextFree(occ []int, cyc int) int {
	for cyc < len(occ) && occ[cyc] < 0 {
		next := cyc - occ[cyc]
		if next < len(occ) && occ[next] < 0 {
			next -= occ[next]
			occ[cyc] = cyc - next
		}
		cyc = next
	}
	return cyc
}

// occupy takes one unit of cycle cyc in occ, whose capacity is limit, and
// returns the cycle's new occupancy; a cycle that fills becomes a link to
// the next cycle.
func occupy(occ []int, cyc, limit int) int {
	occ[cyc]++
	used := occ[cyc]
	if used == limit {
		occ[cyc] = -1
	}
	return used
}

// walk runs the critical-path-first list scheduler for one schedule class
// over pooled scratch buffers with no graph traversal: all structure comes
// from the compiled CSR slices and the class's static issue order. It
// returns the class's schedule summary — everything finishResult needs
// plus the saturation facts (high-water lane and bank occupancy, whether
// any contention skip fired) that let the summary stand in for other lane
// capacities. With capture set it also records per-operation slots.
func (c *Compiled) walk(key schedKey, s *scratch, capture bool) (*schedSummary, []OpSlot) {
	partition, banks := key.partition, key.banks
	extra, window := key.extra, key.window
	_, order := c.class(extra)
	c.schedWalks.Add(1)

	start, finish, chain := s.start, s.finish, s.chain
	maxCycle := 0
	lanes, memLanes := s.lanes, s.memLanes
	lanesHi, memHi := 0, 0 // exclusive high-water marks for cheap reset
	issuedOps := 0
	fusedOps := 0
	maxLane, maxMem := 0, 0 // high-water per-cycle occupancy
	dpSkipped, bankSkipped := false, false

	for _, nid := range order {
		id := int(nid)
		predsOf := c.preds[c.predStart[id]:c.predStart[id+1]]
		if c.ops[id] == dfg.OpOutput {
			// Outputs materialize when their producer finishes; no lane use.
			p := predsOf[0]
			start[id], finish[id], chain[id] = finish[p], finish[p], 0
			if finish[id] > maxCycle {
				maxCycle = finish[id]
			}
			continue
		}
		// Earliest normal issue: all operand values available.
		earliest := 0
		for _, p := range predsOf {
			if finish[p] > earliest {
				earliest = finish[p]
			}
		}
		// Chaining (heterogeneity): a cheap op may issue in the same cycle
		// as cheap predecessors — a combinational cascade — provided every
		// operand is either already finished by that cycle or is itself a
		// same-cycle chain link, and the total cascade depth stays within
		// the node's window. Deep-pipelined designs (extra latency) cannot
		// chain: their units are registered.
		chained := false
		issue := earliest
		if window > 1 && c.cheap[id] && extra == 0 {
			// Candidate cycle: treat chain-eligible cheap operands as
			// available at their start cycle rather than their finish.
			candidate := 0
			for _, p := range predsOf {
				a := finish[p]
				if c.cheap[p] && chain[p]+1 < window {
					a = start[p]
				}
				if a > candidate {
					candidate = a
				}
			}
			if candidate < earliest {
				pos, feasible := 0, true
				for _, p := range predsOf {
					switch {
					case finish[p] <= candidate:
						// Operand ready before the cycle starts.
					case start[p] == candidate && c.cheap[p] && chain[p]+1 < window:
						if chain[p]+1 > pos {
							pos = chain[p] + 1
						}
					default:
						feasible = false
					}
				}
				if feasible && pos > 0 {
					chained = true
					issue = candidate
					chain[id] = pos
				}
			}
		}
		isMem := c.isMem[id]
		if !chained {
			// Find the first cycle at or after earliest with a free lane
			// and, for memory operations, a free bank port. The skip flags
			// record whether either capacity was ever binding: a walk that
			// never skipped replays identically under any capacity at or
			// above its high-water occupancy (see schedSummary.matches).
			// They keep the meaning of a cycle-by-cycle probe that asks
			// "lane full?" before "bank full?": a passed cycle with full
			// lanes is a datapath skip, any other passed cycle a bank skip.
			issue = nextFree(lanes, earliest)
			dpSkipped = dpSkipped || issue > earliest
			for isMem {
				free := nextFree(memLanes, issue)
				if free == issue {
					break
				}
				// Cycles issue..free-1 have full banks; issue has a free
				// lane, the others may not. memLanes never outgrows lanes.
				bankSkipped = true
				for cyc := issue + 1; cyc < free && !dpSkipped; cyc++ {
					dpSkipped = lanes[cyc] < 0
				}
				issue = nextFree(lanes, free)
				dpSkipped = dpSkipped || issue > free
			}
			lanes = growTo(lanes, issue)
			maxLane = max(maxLane, occupy(lanes, issue, partition))
			lanesHi = max(lanesHi, issue+1)
			if isMem {
				memLanes = growTo(memLanes, issue)
				maxMem = max(maxMem, occupy(memLanes, issue, banks))
				memHi = max(memHi, issue+1)
			}
			chain[id] = 0
		} else {
			fusedOps++
		}
		issuedOps++
		start[id] = issue
		if chained {
			// A chained op completes within the shared cycle.
			finish[id] = issue + 1
		} else {
			finish[id] = issue + int(c.baseLat[id]) + extra
		}
		if finish[id] > maxCycle {
			maxCycle = finish[id]
		}
	}
	// Return the grown buffers to the scratch, zeroing only the touched
	// occupancy prefix.
	clear(lanes[:lanesHi])
	clear(memLanes[:memHi])
	s.lanes, s.memLanes = lanes, memLanes
	if maxCycle < 1 {
		maxCycle = 1
	}

	sum := &schedSummary{
		key:         key,
		cycles:      maxCycle,
		issuedOps:   issuedOps,
		fusedOps:    fusedOps,
		maxLane:     maxLane,
		maxMem:      maxMem,
		dpSkipped:   dpSkipped,
		bankSkipped: bankSkipped,
		chained:     make([]bool, c.n),
	}
	for i := 0; i < c.n; i++ {
		sum.chained[i] = chain[i] > 0
	}

	var slots []OpSlot
	if capture {
		slots = make([]OpSlot, 0, issuedOps)
		for i := 0; i < c.n; i++ {
			if !c.isCompute[i] {
				continue
			}
			slots = append(slots, OpSlot{
				ID:      dfg.NodeID(i),
				Op:      c.ops[i],
				Start:   start[i],
				Finish:  finish[i],
				Chained: chain[i] > 0,
			})
		}
	}
	return sum, slots
}

// finishResult derives one design point's metrics from its schedule-class
// summary. The ClockGHz default must already be applied to d. Every float
// operation here replays the pre-split engine's exact sequence — in
// particular the dynamic-energy summation iterates nodes in ID order with
// the per-node fused discount, never a pre-aggregated sum — so a summary
// hit is bit-identical to a fresh walk.
func (c *Compiled) finishResult(d Design, node cmos.Node, sum *schedSummary) Result {
	banks := d.MemoryBanks
	if banks == 0 {
		banks = d.Partition
	}
	maxCycle := sum.cycles

	// Energy, area, power from the schedule. The summation iterates nodes
	// in ID order, matching the pre-compiled engine bit for bit.
	eScale := energyScale(d.Simplification) * node.DynEnergy()
	var dynEnergy float64
	for i := 0; i < c.n; i++ {
		if !c.isCompute[i] {
			continue
		}
		e := c.energy[i] * eScale
		if sum.chained[i] {
			e *= fusedEnergyScale
		}
		dynEnergy += e
	}
	// Lane area: each lane carries the workload's average functional-unit
	// mix; storage covers the largest working set.
	area := (float64(d.Partition)*c.mixArea + float64(banks)*bankArea + float64(c.stats.MaxWS)*regArea) * areaScale(d.Simplification)

	cycleNS := 1 / (d.ClockGHz * node.Freq)
	runtime := float64(maxCycle) * cycleNS
	leakEnergy := leakPerAreaNS * area * node.LeakPower() * runtime
	energy := dynEnergy + leakEnergy

	util := 0.0
	if maxCycle > 0 && d.Partition > 0 {
		util = float64(sum.issuedOps-sum.fusedOps) / (float64(d.Partition) * float64(maxCycle))
	}

	return Result{
		Design:      d,
		Cycles:      maxCycle,
		RuntimeNS:   runtime,
		DynEnergy:   dynEnergy,
		LeakEnergy:  leakEnergy,
		Energy:      energy,
		Power:       energy / runtime,
		Area:        area,
		Utilization: util,
		FusedOps:    sum.fusedOps,
	}
}
