package aladdin

import (
	"math/rand"
	"testing"
	"testing/quick"

	"accelwall/internal/dfg"
)

// randomGraph builds a random layered DAG with mixed operation kinds,
// including memory operations, exercising scheduler paths the structured
// kernels do not.
func randomGraph(seed int64) *dfg.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := dfg.New("fuzz")
	ops := []dfg.Op{dfg.OpAdd, dfg.OpSub, dfg.OpMul, dfg.OpDiv, dfg.OpCmp,
		dfg.OpLogic, dfg.OpShift, dfg.OpLoad, dfg.OpStore, dfg.OpSqrt, dfg.OpNonlinear}
	// 2-4 inputs.
	var pool []dfg.NodeID
	for i := 0; i < 2+rng.Intn(3); i++ {
		pool = append(pool, g.AddInput("in"))
	}
	// 3-6 layers of 1-12 ops, each consuming 1-3 earlier values.
	layers := 3 + rng.Intn(4)
	for l := 0; l < layers; l++ {
		width := 1 + rng.Intn(12)
		var layer []dfg.NodeID
		for i := 0; i < width; i++ {
			op := ops[rng.Intn(len(ops))]
			nPreds := 1 + rng.Intn(3)
			if nPreds > len(pool) {
				nPreds = len(pool)
			}
			preds := make([]dfg.NodeID, 0, nPreds)
			seen := make(map[dfg.NodeID]bool)
			for len(preds) < nPreds {
				p := pool[rng.Intn(len(pool))]
				if !seen[p] {
					seen[p] = true
					preds = append(preds, p)
				}
			}
			layer = append(layer, g.MustOp(op, preds...))
		}
		pool = append(pool, layer...)
	}
	// Every dangling value becomes an output so the graph validates.
	for _, nd := range g.Nodes() {
		if nd.Op.IsCompute() && len(g.Succs(nd.ID)) == 0 {
			g.MustOutput("o", nd.ID)
		}
	}
	// Inputs that ended up unused get a sink through a cheap op.
	for _, nd := range g.Nodes() {
		if nd.Op == dfg.OpInput && len(g.Succs(nd.ID)) == 0 {
			g.MustOutput("sink", g.MustOp(dfg.OpLogic, nd.ID))
		}
	}
	return g
}

// Fuzz the scheduler: every random graph under random (but valid) designs
// must produce a schedule that passes the structural validator, respect
// the critical-path bound without fusion, conserve energy, and match the
// reference scheduler bit for bit through one warm Compiled shared by all
// of the graph's designs. Sharing makes every design after the first a
// candidate for schedule-summary reuse, which is sound only while the
// walk's saturation flags are exact — in particular for memory banks
// narrower than the datapath, the one case where a cycle with a free lane
// can still be skipped.
func TestSchedulerFuzz(t *testing.T) {
	nodes := []float64{45, 28, 16, 10, 7, 5}
	f := func(seed int64, pRaw uint16, sRaw, nRaw uint8, fusion bool, bRaw uint16) bool {
		g := randomGraph(seed)
		if g.Validate() != nil {
			// Construction guarantees validity; failure here is a bug.
			return false
		}
		c, err := Compile(g)
		if err != nil {
			return false
		}
		// The drawn design first, then narrow datapaths with explicit
		// banks below the partition; banks fixed at 1 across ascending
		// partitions invites reuse between their walks.
		designs := []Design{{Partition: 1 + int(pRaw%1024), MemoryBanks: int(bRaw % 8)}} // 0 = banked with datapath
		for _, p := range []int{2, 3, 4, 6, 9} {
			designs = append(designs,
				Design{Partition: p, MemoryBanks: 1},
				Design{Partition: p, MemoryBanks: 1 + int(bRaw)%(p-1)})
		}
		for _, d := range designs {
			d.NodeNM = nodes[int(nRaw)%len(nodes)]
			d.Simplification = 1 + int(sRaw%MaxSimplification)
			d.Fusion = fusion
			want, wantSlots, err := referenceSimulate(g, d, true)
			if err != nil {
				return false
			}
			if got, err := c.Simulate(d); err != nil || got != want {
				t.Logf("seed %d design %+v: shared Compiled %+v, reference %+v", seed, d, got, want)
				return false
			}
			if err := checkWalkSummary(c, g, d, wantSlots); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			sched, err := c.Trace(d)
			if err != nil {
				return false
			}
			if err := sched.Validate(g, d); err != nil {
				t.Logf("seed %d design %+v: %v", seed, d, err)
				return false
			}
			r := sched.Result
			if r != want || r.Cycles <= 0 || r.Energy <= 0 || r.Power <= 0 || r.Area <= 0 {
				return false
			}
			if r.DynEnergy+r.LeakEnergy != r.Energy {
				return false
			}
			if !d.Fusion && r.Cycles < criticalPathCycles(g, d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Fuzz the interaction of graph-level fusion with the scheduler: the fused
// graph must always schedule in at most the original's cycles at high
// parallelism.
func TestFusionTransformFuzz(t *testing.T) {
	f := func(seed int64, wRaw uint8) bool {
		g := randomGraph(seed)
		if g.Validate() != nil {
			return false
		}
		window := 2 + int(wRaw%4)
		fused, _, err := dfg.FuseChains(g, window)
		if err != nil {
			return false
		}
		d := Design{NodeNM: 45, Partition: MaxPartition, Simplification: 1}
		r1, err := Simulate(g, d)
		if err != nil {
			return false
		}
		r2, err := Simulate(fused, d)
		if err != nil {
			return false
		}
		return r2.Cycles <= r1.Cycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
