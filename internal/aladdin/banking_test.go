package aladdin

import (
	"testing"

	"accelwall/internal/dfg"
	"accelwall/internal/workloads"
)

// TRD is a streaming kernel: two loads per element. With a wide datapath
// but a single memory bank, the memory system must serialize it.
func TestMemoryBankBottleneck(t *testing.T) {
	spec, err := workloads.ByAbbrev("TRD")
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Build(64)
	if err != nil {
		t.Fatal(err)
	}
	wide := Design{NodeNM: 45, Partition: 4096, Simplification: 1}
	narrow := wide
	narrow.MemoryBanks = 1
	rWide, err := Simulate(g, wide)
	if err != nil {
		t.Fatal(err)
	}
	rNarrow, err := Simulate(g, narrow)
	if err != nil {
		t.Fatal(err)
	}
	// 64 elements × 3 memory ops each (2 loads + 1 store) through one bank
	// port need at least 192 issue cycles.
	if rNarrow.Cycles < 192 {
		t.Errorf("single-bank schedule = %d cycles, want >= 192 (memory serialized)", rNarrow.Cycles)
	}
	if rWide.Cycles >= rNarrow.Cycles {
		t.Errorf("banked design (%d cycles) should beat single bank (%d)", rWide.Cycles, rNarrow.Cycles)
	}
}

// More banks never slow a schedule down, and beyond the workload's memory
// parallelism they plateau.
func TestMemoryBanksMonotone(t *testing.T) {
	spec, err := workloads.ByAbbrev("SMV")
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Build(16)
	if err != nil {
		t.Fatal(err)
	}
	prev := 1 << 30
	var plateau int
	for _, banks := range []int{1, 2, 4, 16, 256, 4096} {
		r, err := Simulate(g, Design{NodeNM: 45, Partition: 4096, Simplification: 1, MemoryBanks: banks})
		if err != nil {
			t.Fatal(err)
		}
		if r.Cycles > prev {
			t.Errorf("banks %d: cycles grew %d -> %d", banks, prev, r.Cycles)
		}
		prev = r.Cycles
		plateau = r.Cycles
	}
	unconstrained, err := Simulate(g, Design{NodeNM: 45, Partition: 4096, Simplification: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plateau != unconstrained.Cycles {
		t.Errorf("huge bank count (%d cycles) should match banks=partition (%d)", plateau, unconstrained.Cycles)
	}
}

// Banks contribute area: a memory-heavy bank provision must cost more.
func TestMemoryBanksAddArea(t *testing.T) {
	spec, err := workloads.ByAbbrev("RED")
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Build(64)
	if err != nil {
		t.Fatal(err)
	}
	few, err := Simulate(g, Design{NodeNM: 45, Partition: 8, Simplification: 1, MemoryBanks: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, err := Simulate(g, Design{NodeNM: 45, Partition: 8, Simplification: 1, MemoryBanks: 512})
	if err != nil {
		t.Fatal(err)
	}
	if many.Area <= few.Area {
		t.Errorf("512 banks area %g should exceed 1 bank area %g", many.Area, few.Area)
	}
}

func TestMemoryBanksValidation(t *testing.T) {
	bad := Design{NodeNM: 45, Partition: 1, Simplification: 1, MemoryBanks: -1}
	if err := bad.Validate(); err == nil {
		t.Error("negative banks should be invalid")
	}
	bad.MemoryBanks = MaxPartition + 1
	if err := bad.Validate(); err == nil {
		t.Error("excessive banks should be invalid")
	}
}

// Cross-check between the two heterogeneity implementations: scheduling
// the FuseChains-transformed graph without chaining must not beat (in
// cycles) the chained schedule of the original graph by more than the
// conservative-grouping slack, and both must beat the unfused baseline on
// a chain-heavy kernel.
func TestFusionTransformVsSchedulerChaining(t *testing.T) {
	spec, err := workloads.ByAbbrev("AES")
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Build(2)
	if err != nil {
		t.Fatal(err)
	}
	window := 4
	fusedGraph, absorbed, err := dfg.FuseChains(g, window)
	if err != nil {
		t.Fatal(err)
	}
	if absorbed == 0 {
		t.Fatal("AES should have fusable chains")
	}
	base := Design{NodeNM: 10, Partition: MaxPartition, Simplification: 1} // window(10nm) = 4
	plain, err := Simulate(g, base)
	if err != nil {
		t.Fatal(err)
	}
	chainedDesign := base
	chainedDesign.Fusion = true
	chained, err := Simulate(g, chainedDesign)
	if err != nil {
		t.Fatal(err)
	}
	transformed, err := Simulate(fusedGraph, base)
	if err != nil {
		t.Fatal(err)
	}
	if chained.Cycles >= plain.Cycles {
		t.Errorf("scheduler chaining did not help: %d vs %d", chained.Cycles, plain.Cycles)
	}
	if transformed.Cycles >= plain.Cycles {
		t.Errorf("graph fusion did not help: %d vs %d", transformed.Cycles, plain.Cycles)
	}
	// The scheduler's chaining is at least as aggressive as the
	// conservative graph transform.
	if chained.Cycles > transformed.Cycles {
		t.Errorf("scheduler chaining (%d cycles) should not lose to the conservative transform (%d)",
			chained.Cycles, transformed.Cycles)
	}
}

// TestBankSkipPassesFullLanes pins the skip flags where a memory op's
// bank-full run crosses cycles whose lanes are also full — the only lane
// contention in either graph — so the datapath flag must still be set.
// Partition 3, one bank, no fusion. In both graphs load B, placed last
// among the loads, is ready at cycle 0 while loads A0 and A1 hold the bank
// at cycles 0 and 1; B ends up at cycle 2 or 3.
func TestBankSkipPassesFullLanes(t *testing.T) {
	// inside: adds Z1, Z2 join A1 at cycle 1, filling its lanes in the
	// middle of B's bank run.
	inside := dfg.New("inside")
	w := inside.MustOp(dfg.OpAdd, inside.AddInput("w"))
	a0 := inside.MustOp(dfg.OpLoad, inside.AddInput("a0"))
	a1 := inside.MustOp(dfg.OpLoad, inside.AddInput("a1"))
	z1 := inside.MustOp(dfg.OpAdd, w)
	z2 := inside.MustOp(dfg.OpAdd, w)
	b := inside.MustOp(dfg.OpLoad, inside.AddInput("b"))
	for _, id := range []dfg.NodeID{a0, a1, b, inside.MustOp(dfg.OpAdd, z1), inside.MustOp(dfg.OpAdd, z2)} {
		inside.MustOutput("o", id)
	}
	// exit: multiplies X1..X3, whose latency ranks them before B, fill
	// cycle 2, the first cycle after B's bank run.
	exit := dfg.New("exit")
	a0 = exit.MustOp(dfg.OpLoad, exit.AddInput("a0"))
	a1 = exit.MustOp(dfg.OpLoad, exit.AddInput("a1"))
	outs := []dfg.NodeID{a1}
	for i := 0; i < 3; i++ {
		outs = append(outs, exit.MustOp(dfg.OpMul, a0))
	}
	outs = append(outs, exit.MustOp(dfg.OpLoad, exit.AddInput("b")))
	for _, id := range outs {
		exit.MustOutput("o", id)
	}

	d := Design{NodeNM: 45, Partition: 3, Simplification: 1, MemoryBanks: 1}
	for _, g := range []*dfg.Graph{inside, exit} {
		c, err := Compile(g)
		if err != nil {
			t.Fatal(err)
		}
		want, slots, err := referenceSimulate(g, d, true)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := c.Simulate(d); err != nil || got != want {
			t.Fatalf("%s: compiled %+v (%v), reference %+v", g.Name, got, err, want)
		}
		if dp, bank, _, _ := referenceSkipFlags(g, d, slots); !dp || !bank {
			t.Fatalf("%s: reference dp=%v bank=%v; the graph no longer reaches the case", g.Name, dp, bank)
		}
		if err := checkWalkSummary(c, g, d, slots); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
	}
}
