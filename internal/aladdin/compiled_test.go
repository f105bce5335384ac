package aladdin

import (
	"container/heap"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"accelwall/internal/cmos"
	"accelwall/internal/dfg"
	"accelwall/internal/workloads"
)

// item is a ready operation in the reference scheduler's priority queue.
type item struct {
	id       dfg.NodeID
	earliest int // earliest issue cycle (all operands ready)
	priority int // length of the longest downstream path (critical path first)
}

type readyQueue []item

func (q readyQueue) Len() int { return len(q) }
func (q readyQueue) Less(i, j int) bool {
	if q[i].earliest != q[j].earliest {
		return q[i].earliest < q[j].earliest
	}
	if q[i].priority != q[j].priority {
		return q[i].priority > q[j].priority
	}
	return q[i].id < q[j].id
}
func (q readyQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *readyQueue) Push(x any)   { *q = append(*q, x.(item)) }
func (q *readyQueue) Pop() any     { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

// referenceSimulate is the pre-compiled-engine scheduler, kept verbatim as
// the oracle for the equivalence suite: Compiled.Simulate must reproduce
// its Result — and Trace its slots — bit for bit. It walks the graph
// directly and tracks lane occupancy in maps, exactly as the engine did
// before the Compile/Simulate split.
func referenceSimulate(g *dfg.Graph, d Design, capture bool) (Result, []OpSlot, error) {
	if g == nil {
		return Result{}, nil, fmt.Errorf("aladdin: nil graph")
	}
	if err := d.Validate(); err != nil {
		return Result{}, nil, err
	}
	if d.ClockGHz == 0 {
		d.ClockGHz = 1
	}
	node := cmos.MustLookup(d.NodeNM)
	window := fusionWindow(node, d.Fusion)
	extra := extraLatency(d.Simplification)
	banks := d.MemoryBanks
	if banks == 0 {
		banks = d.Partition
	}

	nodes := g.Nodes()
	n := len(nodes)
	latency := make([]int, n)
	for _, nd := range nodes {
		if nd.Op.IsCompute() {
			latency[nd.ID] = nd.Op.Latency() + extra
		}
	}
	prio := make([]int, n)
	for i := n - 1; i >= 0; i-- {
		id := nodes[i].ID
		best := 0
		for _, s := range g.Succs(id) {
			if p := prio[s]; p > best {
				best = p
			}
		}
		prio[id] = best + latency[id]
	}

	start := make([]int, n)
	finish := make([]int, n)
	chain := make([]int, n)
	pendingPreds := make([]int, n)
	scheduled := make([]bool, n)
	var q readyQueue
	for _, nd := range nodes {
		pendingPreds[nd.ID] = len(g.Preds(nd.ID))
	}
	for _, nd := range nodes {
		if pendingPreds[nd.ID] != 0 {
			continue
		}
		scheduled[nd.ID] = true
		start[nd.ID], finish[nd.ID], chain[nd.ID] = 0, 0, 0
		for _, s := range g.Succs(nd.ID) {
			pendingPreds[s]--
			if pendingPreds[s] == 0 {
				heap.Push(&q, item{id: s, earliest: 0, priority: prio[s]})
			}
		}
	}

	cheap := func(id dfg.NodeID) bool {
		return nodes[id].Op.IsCompute() && nodes[id].Op.Latency() == 1
	}

	maxCycle := 0
	issuedAt := make(map[int]int)
	memIssuedAt := make(map[int]int)
	issuedOps := 0
	fusedOps := 0

	for q.Len() > 0 {
		it := heap.Pop(&q).(item)
		id := it.id
		if nodes[id].Op == dfg.OpOutput {
			p := g.Preds(id)[0]
			start[id], finish[id] = finish[p], finish[p]
			scheduled[id] = true
			if finish[id] > maxCycle {
				maxCycle = finish[id]
			}
			continue
		}
		earliest := 0
		for _, p := range g.Preds(id) {
			if finish[p] > earliest {
				earliest = finish[p]
			}
		}
		chained := false
		issue := earliest
		if window > 1 && cheap(id) && extra == 0 {
			candidate := 0
			for _, p := range g.Preds(id) {
				a := finish[p]
				if cheap(p) && chain[p]+1 < window {
					a = start[p]
				}
				if a > candidate {
					candidate = a
				}
			}
			if candidate < earliest {
				pos, feasible := 0, true
				for _, p := range g.Preds(id) {
					switch {
					case finish[p] <= candidate:
					case start[p] == candidate && cheap(p) && chain[p]+1 < window:
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
		isMem := nodes[id].Op == dfg.OpLoad || nodes[id].Op == dfg.OpStore
		if !chained {
			for issuedAt[issue] >= d.Partition || (isMem && memIssuedAt[issue] >= banks) {
				issue++
			}
			issuedAt[issue]++
			if isMem {
				memIssuedAt[issue]++
			}
			chain[id] = 0
		} else {
			fusedOps++
		}
		issuedOps++
		start[id] = issue
		if chained {
			finish[id] = issue + 1
		} else {
			finish[id] = issue + latency[id]
		}
		scheduled[id] = true
		if finish[id] > maxCycle {
			maxCycle = finish[id]
		}
		for _, s := range g.Succs(id) {
			pendingPreds[s]--
			if pendingPreds[s] == 0 {
				heap.Push(&q, item{id: s, earliest: finish[id], priority: prio[s]})
			}
		}
	}
	for i := range scheduled {
		if !scheduled[i] {
			return Result{}, nil, fmt.Errorf("aladdin: scheduler failed to place vertex %d", i)
		}
	}
	if maxCycle < 1 {
		maxCycle = 1
	}

	eScale := energyScale(d.Simplification) * node.DynEnergy()
	var dynEnergy float64
	for _, nd := range nodes {
		if !nd.Op.IsCompute() {
			continue
		}
		e := nd.Op.Energy() * eScale
		if chain[nd.ID] > 0 {
			e *= fusedEnergyScale
		}
		dynEnergy += e
	}
	stats := g.ComputeStats()
	var mixArea float64
	if stats.VCmp > 0 {
		mixArea = g.TotalArea() / float64(stats.VCmp)
	}
	area := (float64(d.Partition)*mixArea + float64(banks)*bankArea + float64(stats.MaxWS)*regArea) * areaScale(d.Simplification)

	cycleNS := 1 / (d.ClockGHz * node.Freq)
	runtime := float64(maxCycle) * cycleNS
	leakEnergy := leakPerAreaNS * area * node.LeakPower() * runtime
	energy := dynEnergy + leakEnergy

	util := 0.0
	if maxCycle > 0 && d.Partition > 0 {
		util = float64(issuedOps-fusedOps) / (float64(d.Partition) * float64(maxCycle))
	}

	var slots []OpSlot
	if capture {
		slots = make([]OpSlot, 0, issuedOps)
		for _, nd := range nodes {
			if !nd.Op.IsCompute() {
				continue
			}
			slots = append(slots, OpSlot{
				ID:      nd.ID,
				Op:      nd.Op,
				Start:   start[nd.ID],
				Finish:  finish[nd.ID],
				Chained: chain[nd.ID] > 0,
			})
		}
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
		FusedOps:    fusedOps,
	}, slots, nil
}

// referenceSkipFlags replays a reference schedule in the scheduler's issue
// order (priority desc, id asc) and derives the saturation facts a walk's
// summary records. Each non-chained op passed every cycle from its
// operands' ready time to its start: a datapath skip where the ops placed
// before it had filled the cycle's lanes, a bank skip otherwise. The
// high-water lane and bank occupancies come from the same replay.
func referenceSkipFlags(g *dfg.Graph, d Design, slots []OpSlot) (dpSkipped, bankSkipped bool, maxLane, maxMem int) {
	extra := extraLatency(d.Simplification)
	byID := make(map[dfg.NodeID]OpSlot, len(slots))
	for _, s := range slots {
		byID[s.ID] = s
	}
	nodes := g.Nodes()
	prio := make([]int, len(nodes))
	for i := len(nodes) - 1; i >= 0; i-- {
		for _, s := range g.Succs(nodes[i].ID) {
			prio[i] = max(prio[i], prio[s])
		}
		if nodes[i].Op.IsCompute() {
			prio[i] += nodes[i].Op.Latency() + extra
		}
	}
	var order []dfg.NodeID
	for _, nd := range nodes {
		if _, ok := byID[nd.ID]; ok {
			order = append(order, nd.ID)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return prio[order[a]] > prio[order[b]] })
	lanes, mem := make(map[int]int), make(map[int]int)
	for _, id := range order {
		s := byID[id]
		if s.Chained {
			continue
		}
		earliest := 0
		for _, p := range g.Preds(id) {
			earliest = max(earliest, byID[p].Finish) // inputs: zero slot
		}
		for cyc := earliest; cyc < s.Start; cyc++ {
			if lanes[cyc] >= d.Partition {
				dpSkipped = true
			} else {
				bankSkipped = true
			}
		}
		lanes[s.Start]++
		maxLane = max(maxLane, lanes[s.Start])
		if s.Op == dfg.OpLoad || s.Op == dfg.OpStore {
			mem[s.Start]++
			maxMem = max(maxMem, mem[s.Start])
		}
	}
	return dpSkipped, bankSkipped, maxLane, maxMem
}

// checkWalkSummary walks d's schedule class on c directly and compares the
// summary's saturation facts with referenceSkipFlags over the reference
// schedule: summary reuse, and with it ScheduleCacheStats, depends on them
// being exact.
func checkWalkSummary(c *Compiled, g *dfg.Graph, d Design, refSlots []OpSlot) error {
	if d.ClockGHz == 0 {
		d.ClockGHz = 1
	}
	s := c.pool.Get().(*scratch)
	sum, _ := c.walk(c.walkKey(d, cmos.MustLookup(d.NodeNM)), s, false)
	c.pool.Put(s)
	dp, bank, maxLane, maxMem := referenceSkipFlags(g, d, refSlots)
	if sum.dpSkipped != dp || sum.bankSkipped != bank || sum.maxLane != maxLane || sum.maxMem != maxMem {
		return fmt.Errorf("design %+v: summary dp=%v bank=%v maxLane=%d maxMem=%d, reference dp=%v bank=%v maxLane=%d maxMem=%d",
			d, sum.dpSkipped, sum.bankSkipped, sum.maxLane, sum.maxMem, dp, bank, maxLane, maxMem)
	}
	return nil
}

// equivalenceDesigns spans every design axis, including the asymmetric
// memory-bank and explicit-clock knobs the grid sweeps leave at defaults.
func equivalenceDesigns() []Design {
	var ds []Design
	for _, node := range []float64{45, 22, 10, 5} {
		for _, fusion := range []bool{false, true} {
			for _, s := range []int{1, 4, 7, 13} {
				for _, p := range []int{1, 4, 64, 4096} {
					ds = append(ds, Design{NodeNM: node, Partition: p, Simplification: s, Fusion: fusion})
				}
			}
		}
	}
	ds = append(ds,
		Design{NodeNM: 16, Partition: 64, Simplification: 2, Fusion: true, MemoryBanks: 2},
		Design{NodeNM: 16, Partition: 8, Simplification: 1, Fusion: false, MemoryBanks: 128},
		Design{NodeNM: 7, Partition: 32, Simplification: 5, Fusion: true, ClockGHz: 2.5},
		Design{NodeNM: 45, Partition: 16, Simplification: 9, Fusion: true, ClockGHz: 0.5, MemoryBanks: 3},
	)
	return ds
}

// lookupNames lists every kernel workloads.Lookup resolves: the
// applications, the algorithm variants and the case-study domain kernels.
func lookupNames() []string {
	var names []string
	for _, s := range workloads.All() {
		names = append(names, s.Abbrev)
	}
	for _, v := range workloads.Variants() {
		names = append(names, v.Base+"/"+v.Name)
	}
	for _, k := range workloads.DomainKernels() {
		names = append(names, k.Name)
	}
	return names
}

// TestCompiledMatchesReference asserts that the compiled engine reproduces
// the pre-split scheduler bit for bit — same Result, same Schedule slots —
// for every kernel workloads.Lookup resolves across the design axes. One
// Compiled instance is reused across all designs of a kernel, so the test
// also exercises scratch-buffer reuse and schedule-summary reuse between
// calls.
func TestCompiledMatchesReference(t *testing.T) {
	for _, name := range lookupNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			build, err := workloads.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			g, err := build(0)
			if err != nil {
				t.Fatal(err)
			}
			c, err := Compile(g)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range equivalenceDesigns() {
				want, wantSlots, err := referenceSimulate(g, d, true)
				if err != nil {
					t.Fatal(err)
				}
				got, err := c.Simulate(d)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("design %+v:\ncompiled  %+v\nreference %+v", d, got, want)
				}
				if err := checkWalkSummary(c, g, d, wantSlots); err != nil {
					t.Fatal(err)
				}
				sched, err := c.Trace(d)
				if err != nil {
					t.Fatal(err)
				}
				if sched.Result != want {
					t.Fatalf("design %+v: Trace result %+v != reference %+v", d, sched.Result, want)
				}
				// Reference slots are in node-ID order; Trace sorts by
				// (Start, ID). Compare as sets keyed by ID.
				byID := make(map[dfg.NodeID]OpSlot, len(wantSlots))
				for _, s := range wantSlots {
					byID[s.ID] = s
				}
				if len(sched.Slots) != len(wantSlots) {
					t.Fatalf("design %+v: %d slots, reference %d", d, len(sched.Slots), len(wantSlots))
				}
				for _, s := range sched.Slots {
					if byID[s.ID] != s {
						t.Fatalf("design %+v: slot %+v != reference %+v", d, s, byID[s.ID])
					}
				}
			}
		})
	}
}

// TestWrappersMatchCompiled pins the compatibility wrappers to the
// compiled path they delegate to.
func TestWrappersMatchCompiled(t *testing.T) {
	g := mustBuild(t, "RED", 64)
	c, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	d := Design{NodeNM: 7, Partition: 8, Simplification: 2, Fusion: true}
	rw, err := Simulate(g, d)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := c.Simulate(d)
	if err != nil {
		t.Fatal(err)
	}
	if rw != rc {
		t.Fatalf("Simulate wrapper %+v != Compiled.Simulate %+v", rw, rc)
	}
	sw, err := Trace(g, d)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := c.Trace(d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sw, sc) {
		t.Fatal("Trace wrapper and Compiled.Trace disagree")
	}
}

// TestCompiledErrors mirrors the wrapper error contract.
func TestCompiledErrors(t *testing.T) {
	if _, err := Compile(nil); err == nil {
		t.Error("Compile(nil) should error")
	}
	g := mustBuild(t, "RED", 8)
	c, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Design{
		{NodeNM: 45, Partition: 0, Simplification: 1},
		{NodeNM: 45, Partition: 1, Simplification: 0},
		{NodeNM: 45, Partition: 1, Simplification: 1, ClockGHz: -1},
		{NodeNM: 1234, Partition: 1, Simplification: 1},
		{NodeNM: 45, Partition: 1, Simplification: 1, MemoryBanks: -1},
	}
	for i, d := range bad {
		if _, err := c.Simulate(d); err == nil {
			t.Errorf("design %d should be rejected", i)
		}
		if _, err := c.Trace(d); err == nil {
			t.Errorf("design %d should be rejected by Trace", i)
		}
	}
}

// TestCompiledCriticalPath pins the scheduler's priority classes to the
// graph-walking critical path: the largest priority of a class is the
// longest latency path under that class's latency model.
func TestCompiledCriticalPath(t *testing.T) {
	spec, err := workloads.ByAbbrev("FFT")
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{1, 5, 9, 13} {
		d := Design{NodeNM: 22, Partition: 4, Simplification: s}
		want := criticalPathCycles(g, d)
		prio, _ := c.class(extraLatency(s))
		if got := int(slices.Max(prio)); got != want {
			t.Errorf("simplification %d: compiled bound %d, reference %d", s, got, want)
		}
	}
}

// TestExtraClassesCoverRange pins numExtraClasses to extraLatency: every
// legal simplification degree must map to a precomputed priority class.
func TestExtraClassesCoverRange(t *testing.T) {
	for s := 1; s <= MaxSimplification; s++ {
		if e := extraLatency(s); e < 0 || e >= numExtraClasses {
			t.Fatalf("extraLatency(%d) = %d outside [0, %d)", s, e, numExtraClasses)
		}
	}
	if extraLatency(MaxSimplification) != numExtraClasses-1 {
		t.Errorf("numExtraClasses = %d is not tight for extraLatency(%d) = %d",
			numExtraClasses, MaxSimplification, extraLatency(MaxSimplification))
	}
}

// TestCompiledConcurrent hammers one shared *Compiled from many goroutines
// mixing Simulate and Trace across priority classes; run with -race this
// is the engine's thread-safety proof. Every goroutine checks its results
// against serially precomputed expectations.
func TestCompiledConcurrent(t *testing.T) {
	spec, err := workloads.ByAbbrev("S3D")
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	designs := equivalenceDesigns()
	want := make([]Result, len(designs))
	for i, d := range designs {
		r, _, err := referenceSimulate(g, d, false)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	const goroutines = 16
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i := range designs {
					// Stagger the order per goroutine so pool reuse
					// interleaves different designs.
					i := (i + w) % len(designs)
					if w%2 == 0 {
						got, err := c.Simulate(designs[i])
						if err != nil {
							errc <- err
							return
						}
						if got != want[i] {
							errc <- fmt.Errorf("goroutine %d design %d: %+v != %+v", w, i, got, want[i])
							return
						}
					} else {
						sched, err := c.Trace(designs[i])
						if err != nil {
							errc <- err
							return
						}
						if sched.Result != want[i] {
							errc <- fmt.Errorf("goroutine %d design %d: trace %+v != %+v", w, i, sched.Result, want[i])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
