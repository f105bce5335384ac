package sweep

import (
	"math"
	"testing"

	"accelwall/internal/aladdin"
	"accelwall/internal/dfg"
	"accelwall/internal/workloads"
)

// tiny returns a small grid that keeps tests fast while covering every axis.
func tiny() Params {
	return Params{
		Nodes:           []float64{45, 10, 5},
		Partitions:      []int{1, 16, 256, 65536},
		Simplifications: []int{1, 7, 13},
		Fusion:          []bool{false, true},
	}
}

func buildApp(t *testing.T, abbrev string, n int) *dfg.Graph {
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

func TestDefaultGridMatchesTableIII(t *testing.T) {
	p := Default()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Partitions) != 20 {
		t.Errorf("partition axis has %d values, want 20 (1..524288)", len(p.Partitions))
	}
	if p.Partitions[0] != 1 || p.Partitions[len(p.Partitions)-1] != aladdin.MaxPartition {
		t.Errorf("partition endpoints = %d, %d", p.Partitions[0], p.Partitions[len(p.Partitions)-1])
	}
	if len(p.Simplifications) != 13 {
		t.Errorf("simplification axis has %d values, want 13", len(p.Simplifications))
	}
	if len(p.Nodes) != 7 {
		t.Errorf("node axis has %d values, want 7 (45..5)", len(p.Nodes))
	}
}

func TestReducedGridValid(t *testing.T) {
	if err := Reduced().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{},
		{Nodes: []float64{45}, Partitions: []int{0}, Simplifications: []int{1}, Fusion: []bool{false}},
		{Nodes: []float64{45}, Partitions: []int{1}, Simplifications: []int{99}, Fusion: []bool{false}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("params %d should be invalid", i)
		}
	}
}

func TestRunCoversGrid(t *testing.T) {
	g := buildApp(t, "RED", 64)
	p := tiny()
	points, err := refRun(g, p)
	if err != nil {
		t.Fatal(err)
	}
	want := len(p.Nodes) * len(p.Partitions) * len(p.Simplifications) * len(p.Fusion)
	if len(points) != want {
		t.Fatalf("points = %d, want %d", len(points), want)
	}
	for _, pt := range points {
		if pt.Result.RuntimeNS <= 0 || pt.Result.Energy <= 0 {
			t.Fatalf("degenerate point %+v", pt.Design)
		}
		if pt.Design != pt.Result.Design {
			// The memoizing runner must report the requested design, not
			// the cache key it collapsed onto.
			t.Fatalf("design mismatch: %+v vs %+v", pt.Design, pt.Result.Design)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := refRun(nil, tiny()); err == nil {
		t.Error("nil graph should error")
	}
	g := buildApp(t, "RED", 16)
	if _, err := refRun(g, Params{}); err == nil {
		t.Error("empty params should error")
	}
}

func TestMemoizationCollapsesPlateau(t *testing.T) {
	g := buildApp(t, "RED", 32) // 31 compute ops: partitions 256 and 65536 collapse
	r, err := newRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	a, err := r.simulate(aladdin.Design{NodeNM: 45, Partition: 256, Simplification: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.simulate(aladdin.Design{NodeNM: 45, Partition: 65536, Simplification: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Energy != b.Energy {
		t.Errorf("plateau designs differ: %+v vs %+v", a, b)
	}
	if b.Design.Partition != 65536 {
		t.Errorf("reported design partition = %d, want the requested 65536", b.Design.Partition)
	}
	if len(r.cache) != 1 {
		t.Errorf("cache has %d entries, want 1 (collapsed)", len(r.cache))
	}
}

func TestBestSelectsOptimum(t *testing.T) {
	g := buildApp(t, "S3D", 3)
	points, err := refRun(g, tiny())
	if err != nil {
		t.Fatal(err)
	}
	bp, err := Best(points, Performance)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range points {
		if pt.Result.Throughput() > bp.Result.Throughput() {
			t.Fatalf("Best missed a faster point: %+v", pt.Design)
		}
	}
	be, err := Best(points, Efficiency)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range points {
		if pt.Result.EnergyEfficiency() > be.Result.EnergyEfficiency() {
			t.Fatalf("Best missed a more efficient point: %+v", pt.Design)
		}
	}
	if _, err := Best(nil, Performance); err == nil {
		t.Error("Best of no points should error")
	}
}

// The paper's Figure 13 findings: the energy-efficiency optimum lands on
// the newest node, and the best-performance point uses heavy partitioning.
func TestFig13OptimumShape(t *testing.T) {
	g := buildApp(t, "S3D", 3)
	rows, best, err := fig13(g, tiny(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no Fig13 rows")
	}
	if best.Design.NodeNM != 5 {
		t.Errorf("efficiency optimum at %gnm, want 5nm (the newest swept node)", best.Design.NodeNM)
	}
	if best.Design.Partition <= 1 {
		t.Errorf("efficiency optimum uses partition %d, want > 1", best.Design.Partition)
	}
	if best.Design.Simplification <= 1 {
		t.Errorf("efficiency optimum uses simplification %d, want > 1", best.Design.Simplification)
	}
	if _, _, err := fig13(nil, tiny(), 0); err == nil {
		t.Error("Fig13 nil graph should error")
	}
}

// CMOS advancement reduces power at fixed design (the "CMOS Process" arrow
// of Figure 13 points down in power).
func TestFig13CMOSPowerArrow(t *testing.T) {
	g := buildApp(t, "S3D", 3)
	rows, _, err := fig13(g, tiny(), 0)
	if err != nil {
		t.Fatal(err)
	}
	find := func(node float64) Fig13Row {
		for _, r := range rows {
			if r.NodeNM == node && r.Partition == 16 && r.Simplification == 1 && !r.Fusion {
				return r
			}
		}
		t.Fatalf("missing row for node %g", node)
		return Fig13Row{}
	}
	if old, newer := find(45), find(5); newer.PowerW >= old.PowerW {
		t.Errorf("5nm power %g should be below 45nm power %g", newer.PowerW, old.PowerW)
	}
}

func TestAttributeDecomposition(t *testing.T) {
	for _, objective := range []Objective{Performance, Efficiency} {
		g := buildApp(t, "S3D", 3)
		a, err := refAttribute("S3D", g, tiny(), objective)
		if err != nil {
			t.Fatal(err)
		}
		// Factors multiply to the total.
		prod := a.Partitioning * a.Heterogeneity * a.Simplification * a.CMOS
		if math.Abs(prod-a.Total) > 1e-9*a.Total {
			t.Errorf("%v: factors multiply to %g, total %g", objective, prod, a.Total)
		}
		// Every factor >= 1 (each stage searches a superset).
		for name, f := range map[string]float64{
			"partitioning": a.Partitioning, "heterogeneity": a.Heterogeneity,
			"simplification": a.Simplification, "cmos": a.CMOS,
		} {
			if f < 1-1e-9 {
				t.Errorf("%v: %s factor = %g, want >= 1", objective, name, f)
			}
		}
		// Percentages sum to 100.
		sum := a.PctPartitioning + a.PctHeterogeneity + a.PctSimplification + a.PctCMOS
		if math.Abs(sum-100) > 1e-6 {
			t.Errorf("%v: percentage shares sum to %g", objective, sum)
		}
		// CSR is the CMOS-independent product.
		if math.Abs(a.CSR-a.Heterogeneity*a.Simplification) > 1e-12 {
			t.Errorf("%v: CSR = %g, want het × simp", objective, a.CSR)
		}
	}
}

// The paper's Figure 14 findings: partitioning is the primary source of
// performance gain; CMOS saving dominates energy efficiency; CSR is low
// relative to total gain for both targets.
func TestAttributePaperShape(t *testing.T) {
	g := buildApp(t, "S3D", 3)
	perf, err := refAttribute("S3D", g, tiny(), Performance)
	if err != nil {
		t.Fatal(err)
	}
	if perf.PctPartitioning < perf.PctSimplification || perf.PctPartitioning < perf.PctHeterogeneity {
		t.Errorf("performance: partitioning share %.1f%% should dominate (het %.1f%%, simp %.1f%%)",
			perf.PctPartitioning, perf.PctHeterogeneity, perf.PctSimplification)
	}
	eff, err := refAttribute("S3D", g, tiny(), Efficiency)
	if err != nil {
		t.Fatal(err)
	}
	if eff.PctCMOS < eff.PctHeterogeneity || eff.PctCMOS < eff.PctSimplification {
		t.Errorf("efficiency: CMOS share %.1f%% should dominate (het %.1f%%, simp %.1f%%)",
			eff.PctCMOS, eff.PctHeterogeneity, eff.PctSimplification)
	}
	// CSR is far below total gain for both.
	if perf.CSR*2 > perf.Total {
		t.Errorf("performance CSR %g not low relative to total %g", perf.CSR, perf.Total)
	}
	if eff.CSR*2 > eff.Total {
		t.Errorf("efficiency CSR %g not low relative to total %g", eff.CSR, eff.Total)
	}
}

func TestAttributeErrors(t *testing.T) {
	if _, err := refAttribute("x", nil, tiny(), Performance); err == nil {
		t.Error("nil graph should error")
	}
	g := buildApp(t, "RED", 16)
	if _, err := refAttribute("RED", g, Params{}, Performance); err == nil {
		t.Error("bad params should error")
	}
}

func TestObjectiveString(t *testing.T) {
	if Performance.String() == "" || Efficiency.String() == "" {
		t.Error("objective names must be non-empty")
	}
	if Objective(9).String() != "Objective(9)" {
		t.Errorf("unknown objective = %q", Objective(9).String())
	}
}

func TestDesignFrontier(t *testing.T) {
	g := buildApp(t, "S3D", 3)
	points, err := refRun(g, tiny())
	if err != nil {
		t.Fatal(err)
	}
	frontier := DesignFrontier(points)
	if len(frontier) < 2 {
		t.Fatalf("frontier has %d designs, want several", len(frontier))
	}
	// Staircase: runtime strictly increasing... frontier is sorted by
	// ascending runtime with strictly decreasing power.
	for i := 1; i < len(frontier); i++ {
		if frontier[i].RuntimeNS < frontier[i-1].RuntimeNS {
			t.Error("frontier not sorted by runtime")
		}
		if frontier[i].PowerW >= frontier[i-1].PowerW {
			t.Error("frontier power not strictly decreasing")
		}
	}
	// No swept point dominates a frontier point.
	for _, fp := range frontier {
		for _, pt := range points {
			if pt.Result.RuntimeNS < fp.RuntimeNS && pt.Result.Power < fp.PowerW {
				t.Fatalf("frontier point %+v dominated by %+v", fp.Design, pt.Design)
			}
		}
	}
	if DesignFrontier(nil) != nil {
		t.Error("empty frontier should be nil")
	}
}

// TestRunParallelMatchesRun: a fresh engine must return exactly what the
// sequential reference returns, in the same order, for any worker count.
func TestRunParallelMatchesRun(t *testing.T) {
	g := buildApp(t, "GMM", 4)
	p := tiny()
	sequential, err := refRun(g, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 4, 16} {
		parallel, err := runParallel(g, p, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(parallel) != len(sequential) {
			t.Fatalf("workers=%d: %d points vs %d", workers, len(parallel), len(sequential))
		}
		for i := range sequential {
			if sequential[i].Design != parallel[i].Design {
				t.Fatalf("workers=%d point %d: design order diverged", workers, i)
			}
			if sequential[i].Result.Cycles != parallel[i].Result.Cycles ||
				sequential[i].Result.Energy != parallel[i].Result.Energy {
				t.Fatalf("workers=%d point %d: results diverged", workers, i)
			}
		}
	}
}

func TestRunParallelErrors(t *testing.T) {
	if _, err := runParallel(nil, tiny(), 2); err == nil {
		t.Error("nil graph should error")
	}
	g := buildApp(t, "RED", 8)
	if _, err := runParallel(g, Params{}, 2); err == nil {
		t.Error("invalid params should error")
	}
}
