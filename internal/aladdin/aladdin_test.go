package aladdin

import (
	"math"
	"testing"
	"testing/quick"

	"accelwall/internal/dfg"
	"accelwall/internal/workloads"
)

// criticalPathCycles is the schedule-independent lower bound on cycles
// for g under d's latency model: the longest latency path, walked over
// the graph itself. Partitioning can never beat it, so tests compare the
// scheduler's cycle counts against it.
func criticalPathCycles(g *dfg.Graph, d Design) int {
	extra := extraLatency(d.Simplification)
	nodes := g.Nodes()
	dist := make([]int, len(nodes))
	best := 0
	for _, nd := range nodes {
		lat := 0
		if nd.Op.IsCompute() {
			lat = nd.Op.Latency() + extra
		}
		d0 := 0
		for _, p := range g.Preds(nd.ID) {
			d0 = max(d0, dist[p])
		}
		dist[nd.ID] = d0 + lat
		best = max(best, dist[nd.ID])
	}
	return best
}

func mustBuild(t testing.TB, abbrev string, n int) *dfg.Graph {
	t.Helper()
	spec, err := workloads.ByAbbrev(abbrev)
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Build(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func design(node float64, p, s int, fusion bool) Design {
	return Design{NodeNM: node, Partition: p, Simplification: s, Fusion: fusion}
}

func TestDesignValidate(t *testing.T) {
	good := design(45, 1, 1, false)
	if err := good.Validate(); err != nil {
		t.Errorf("valid design rejected: %v", err)
	}
	bad := []Design{
		design(45, 0, 1, false),
		design(45, MaxPartition+1, 1, false),
		design(45, 1, 0, false),
		design(45, 1, MaxSimplification+1, false),
		design(999, 1, 1, false),
		{NodeNM: 45, Partition: 1, Simplification: 1, ClockGHz: -1},
	}
	for _, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("design %+v should be invalid", d)
		}
	}
}

func TestSimulateBasicShape(t *testing.T) {
	g := mustBuild(t, "RED", 64)
	r, err := Simulate(g, design(45, 4, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles <= 0 || r.RuntimeNS <= 0 || r.Energy <= 0 || r.Power <= 0 || r.Area <= 0 {
		t.Errorf("degenerate result: %+v", r)
	}
	if r.DynEnergy+r.LeakEnergy != r.Energy {
		t.Errorf("energy components do not sum: %g + %g != %g", r.DynEnergy, r.LeakEnergy, r.Energy)
	}
	if r.Utilization <= 0 || r.Utilization > 1 {
		t.Errorf("utilization = %g, want in (0, 1]", r.Utilization)
	}
	if math.Abs(r.Throughput()*r.RuntimeNS-1) > 1e-12 {
		t.Errorf("Throughput inconsistent with runtime")
	}
	if math.Abs(r.EnergyEfficiency()*r.Energy-1) > 1e-12 {
		t.Errorf("EnergyEfficiency inconsistent with energy")
	}
}

func TestSimulateErrors(t *testing.T) {
	if _, err := Simulate(nil, design(45, 1, 1, false)); err == nil {
		t.Error("nil graph should error")
	}
	g := mustBuild(t, "RED", 16)
	if _, err := Simulate(g, design(45, 0, 1, false)); err == nil {
		t.Error("invalid design should error")
	}
}

// Invariant (DESIGN.md): more lanes never increases the cycle count.
func TestPartitioningMonotone(t *testing.T) {
	for _, app := range []string{"RED", "GMM", "S3D", "NWN", "FFT"} {
		g := mustBuild(t, app, 0)
		prev := math.MaxInt
		for p := 1; p <= 4096; p *= 4 {
			r, err := Simulate(g, design(45, p, 1, false))
			if err != nil {
				t.Fatal(err)
			}
			if r.Cycles > prev {
				t.Errorf("%s: cycles increased from %d to %d at partition %d", app, prev, r.Cycles, p)
			}
			prev = r.Cycles
		}
	}
}

// Partitioning tapers: beyond the DFG's parallelism, cycles plateau at the
// critical path (the Figure 13 plateau).
func TestPartitioningPlateauAtCriticalPath(t *testing.T) {
	g := mustBuild(t, "RED", 128)
	d := design(45, MaxPartition, 1, false)
	r, err := Simulate(g, d)
	if err != nil {
		t.Fatal(err)
	}
	cp := criticalPathCycles(g, d)
	if r.Cycles != cp {
		t.Errorf("unlimited-lane cycles = %d, want critical path %d", r.Cycles, cp)
	}
	// A constrained schedule can never beat the critical path.
	r1, err := Simulate(g, design(45, 1, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles < cp {
		t.Errorf("1-lane cycles %d beat the critical path %d", r1.Cycles, cp)
	}
}

// Invariant (DESIGN.md): fusion never increases the cycle count, and on a
// chain-heavy workload it strictly reduces it.
func TestFusionNeverHurts(t *testing.T) {
	for _, app := range []string{"AES", "NWN", "SSP", "RED", "S3D"} {
		g := mustBuild(t, app, 0)
		for _, p := range []int{1, 64} {
			off, err := Simulate(g, design(16, p, 1, false))
			if err != nil {
				t.Fatal(err)
			}
			on, err := Simulate(g, design(16, p, 1, true))
			if err != nil {
				t.Fatal(err)
			}
			if on.Cycles > off.Cycles {
				t.Errorf("%s p=%d: fusion increased cycles %d -> %d", app, p, off.Cycles, on.Cycles)
			}
		}
	}
	// AES is a deep chain of cheap ops: fusion must strictly help at high
	// partitioning and actually fuse operations.
	g := mustBuild(t, "AES", 0)
	off, _ := Simulate(g, design(16, 4096, 1, false))
	on, _ := Simulate(g, design(16, 4096, 1, true))
	if on.Cycles >= off.Cycles {
		t.Errorf("AES: fusion did not shorten the schedule (%d vs %d)", on.Cycles, off.Cycles)
	}
	if on.FusedOps == 0 {
		t.Error("AES: no operations fused")
	}
	if off.FusedOps != 0 {
		t.Error("fusion disabled but FusedOps > 0")
	}
}

// Newer CMOS nodes widen the fusion window (Section VI: "more computation
// units are fused and scheduled in a cycle" on newer processes).
func TestFusionWindowWidensOnNewerNodes(t *testing.T) {
	g := mustBuild(t, "AES", 2)
	old, err := Simulate(g, design(45, 4096, 1, true))
	if err != nil {
		t.Fatal(err)
	}
	newer, err := Simulate(g, design(5, 4096, 1, true))
	if err != nil {
		t.Fatal(err)
	}
	if newer.Cycles >= old.Cycles {
		t.Errorf("5nm fused schedule (%d cycles) should beat 45nm (%d)", newer.Cycles, old.Cycles)
	}
}

// Simplification monotonically reduces dynamic energy and area, and its
// latency penalty kicks in at high degrees.
func TestSimplificationEffects(t *testing.T) {
	g := mustBuild(t, "S3D", 0)
	prevDyn, prevArea := math.Inf(1), math.Inf(1)
	for s := 1; s <= MaxSimplification; s++ {
		r, err := Simulate(g, design(45, 16, s, false))
		if err != nil {
			t.Fatal(err)
		}
		if r.DynEnergy >= prevDyn {
			t.Errorf("degree %d: dynamic energy %g did not decrease (prev %g)", s, r.DynEnergy, prevDyn)
		}
		if r.Area >= prevArea {
			t.Errorf("degree %d: area %g did not decrease (prev %g)", s, r.Area, prevArea)
		}
		prevDyn, prevArea = r.DynEnergy, r.Area
	}
	lo, _ := Simulate(g, design(45, 16, 1, false))
	hi, _ := Simulate(g, design(45, 16, 13, false))
	if hi.Cycles <= lo.Cycles {
		t.Errorf("deep pipelining at degree 13 should add latency: %d vs %d cycles", hi.Cycles, lo.Cycles)
	}
}

// CMOS advancement reduces both runtime (faster cycles) and energy
// (lower C·V²) for a fixed microarchitecture — the Figure 13 arrows.
func TestCMOSScalingEffects(t *testing.T) {
	g := mustBuild(t, "S3D", 0)
	nodes := []float64{45, 32, 22, 14, 10, 7, 5}
	prevRT, prevE := math.Inf(1), math.Inf(1)
	for _, nm := range nodes {
		r, err := Simulate(g, design(nm, 16, 1, false))
		if err != nil {
			t.Fatal(err)
		}
		if r.RuntimeNS >= prevRT {
			t.Errorf("%gnm: runtime %g did not improve (prev %g)", nm, r.RuntimeNS, prevRT)
		}
		if r.Energy >= prevE {
			t.Errorf("%gnm: energy %g did not improve (prev %g)", nm, r.Energy, prevE)
		}
		prevRT, prevE = r.RuntimeNS, r.Energy
	}
}

// Partitioning trades power for runtime: more lanes concentrate the same
// switching energy into less time (the up-and-left movement in Figure 13).
func TestPartitioningRaisesPower(t *testing.T) {
	g := mustBuild(t, "S3D", 0)
	serial, err := Simulate(g, design(45, 1, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Simulate(g, design(45, 256, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	if parallel.RuntimeNS >= serial.RuntimeNS {
		t.Error("parallel design should be faster")
	}
	if parallel.Power <= serial.Power {
		t.Errorf("parallel power %g should exceed serial %g", parallel.Power, serial.Power)
	}
}

func TestDefaultClock(t *testing.T) {
	g := mustBuild(t, "RED", 16)
	r, err := Simulate(g, Design{NodeNM: 45, Partition: 1, Simplification: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Design.ClockGHz != 1 {
		t.Errorf("default clock = %g, want 1", r.Design.ClockGHz)
	}
	// Doubling the clock halves the runtime.
	r2, err := Simulate(g, Design{NodeNM: 45, Partition: 1, Simplification: 1, ClockGHz: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r2.RuntimeNS*2-r.RuntimeNS) > 1e-9*r.RuntimeNS {
		t.Errorf("clock scaling wrong: %g vs %g", r2.RuntimeNS*2, r.RuntimeNS)
	}
}

// Property: for random valid designs on a fixed workload, the simulator
// never produces non-physical results and respects the critical-path bound.
func TestSimulateSanityProperty(t *testing.T) {
	g := mustBuild(t, "GMM", 4)
	nodes := []float64{45, 28, 16, 10, 7, 5}
	f := func(pRaw uint32, sRaw, nRaw uint8, fusion bool) bool {
		d := Design{
			NodeNM:         nodes[int(nRaw)%len(nodes)],
			Partition:      1 << (pRaw % 16),
			Simplification: int(sRaw%MaxSimplification) + 1,
			Fusion:         fusion,
		}
		r, err := Simulate(g, d)
		if err != nil {
			return false
		}
		if r.Cycles <= 0 || r.Energy <= 0 || r.Power <= 0 || r.Area <= 0 {
			return false
		}
		if r.Utilization < 0 || r.Utilization > 1+1e-9 {
			return false
		}
		if !fusion && r.Cycles < criticalPathCycles(g, d) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// The Table III sweep relies on runs at partition factors beyond the DFG's
// parallelism being identical; verify the plateau is exact.
func TestPlateauExact(t *testing.T) {
	g := mustBuild(t, "RED", 64)
	a, err := Simulate(g, design(45, 65536, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(g, design(45, MaxPartition, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.DynEnergy != b.DynEnergy {
		t.Errorf("plateau not flat: %+v vs %+v", a, b)
	}
}
