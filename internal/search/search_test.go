package search

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"accelwall/internal/aladdin"
	"accelwall/internal/dfg"
	"accelwall/internal/sweep"
	"accelwall/internal/workloads"
)

// mustGraph builds one registered workload's default graph.
func mustGraph(t *testing.T, abbrev string) *dfg.Graph {
	t.Helper()
	spec, err := workloads.ByAbbrev(abbrev)
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// buildEngine compiles one workload's default graph into an engine.
func buildEngine(t *testing.T, abbrev string) *sweep.Engine {
	t.Helper()
	eng, err := sweep.NewEngine(mustGraph(t, abbrev))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// enumerateSpace lists every genotype of the space in axis-major order.
func enumerateSpace(s Space) []genotype {
	lens := s.axisLens()
	var out []genotype
	var g genotype
	var rec func(a int)
	rec = func(a int) {
		if a == numAxes {
			out = append(out, g)
			return
		}
		for i := 0; i < lens[a]; i++ {
			g[a] = i
			rec(a + 1)
		}
	}
	rec(0)
	return out
}

// trueFrontier computes the exhaustive-grid frontier with the same
// dominance and tie rules the search reports, plus the grid's unique
// evaluation count — the baseline the search competes against.
func trueFrontier(t *testing.T, eng *sweep.Engine, cfg Config) ([]Point, int) {
	t.Helper()
	cfg = cfg.Normalized()
	st := newState(cfg, eng)
	if _, err := st.evalBatch(t.Context(), enumerateSpace(cfg.Space)); err != nil {
		t.Fatal(err)
	}
	return st.frontier(), len(st.entries)
}

// pointKey identifies a frontier point by its exact objective vector.
func pointKey(p Point) string { return fmt.Sprintf("%x", p.Values) }

// coverage is the fraction of true-frontier objective vectors the found
// frontier reproduces exactly (the simulator is deterministic, so exact
// float equality is the right comparison).
func coverage(truth, got []Point) float64 {
	have := make(map[string]bool, len(got))
	for _, p := range got {
		have[pointKey(p)] = true
	}
	hit := 0
	for _, p := range truth {
		if have[pointKey(p)] {
			hit++
		}
	}
	if len(truth) == 0 {
		return 1
	}
	return float64(hit) / float64(len(truth))
}

func TestParseObjective(t *testing.T) {
	for in, want := range map[string]Objective{
		"delay": Delay, "latency": Delay, "runtime": Delay, "performance": Delay,
		"energy": Energy, "EDP": EDP, "energy-delay": EDP,
		"efficiency": Efficiency, "Energy-Efficiency": Efficiency,
	} {
		got, err := ParseObjective(in)
		if err != nil || got != want {
			t.Errorf("ParseObjective(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseObjective("nope"); err == nil {
		t.Error("unknown objective should error")
	}
	for _, o := range []Objective{Delay, Energy, EDP, Efficiency} {
		back, err := ParseObjective(o.String())
		if err != nil || back != o {
			t.Errorf("round trip %v -> %q -> %v, %v", o, o.String(), back, err)
		}
	}
}

func TestParseStrategy(t *testing.T) {
	for in, want := range map[string]Strategy{
		"": NSGA2, "nsga2": NSGA2, "NSGA-II": NSGA2, "evolutionary": NSGA2,
		"halving": Halving, "successive-halving": Halving,
	} {
		got, err := ParseStrategy(in)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseStrategy("grid"); err == nil {
		t.Error("unknown strategy should error")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config should normalize valid: %v", err)
	}
	bad := []Config{
		{Space: Space{Nodes: []float64{45}}}, // missing axes
		{Space: Space{Nodes: []float64{-1}, Partitions: []int{1}, Simplifications: []int{1}, Fusion: []bool{false}}}, // bad node
		{Population: 1},
		{Objectives: []Objective{Objective(99)}},
		{Constraints: Constraints{MaxArea: -5}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid: %+v", i, c)
		}
	}
}

func TestSpaceSizeAndTableIII(t *testing.T) {
	s := TableIII()
	if got := s.Size(); got != 3640 {
		t.Errorf("Table III space size = %d, want 3640 (7 nodes x 20 partitions x 13 degrees x 2 fusion)", got)
	}
}

// The headline determinism contract: same seed, bit-identical result at
// any worker count, for both strategies.
func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	eng := buildEngine(t, "S3D")
	for _, strat := range []Strategy{NSGA2, Halving} {
		var ref *Result
		for _, workers := range []int{1, 4, 8} {
			res, err := RunContext(context.Background(), eng, Config{Strategy: strat, Seed: 7, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = res
				continue
			}
			if !reflect.DeepEqual(ref, res) {
				t.Errorf("%v: results differ between 1 and %d workers", strat, workers)
			}
		}
		// And across repeated runs over the now-warm memo table.
		again, err := RunContext(context.Background(), eng, Config{Strategy: strat, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, again) {
			t.Errorf("%v: warm rerun diverged from cold run", strat)
		}
	}
}

func TestSearchSeedMatters(t *testing.T) {
	eng := buildEngine(t, "S3D")
	a, err := RunContext(context.Background(), eng, Config{Seed: 1, Generations: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), eng, Config{Seed: 2, Generations: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.Evaluations == b.Evaluations && reflect.DeepEqual(a.Frontier, b.Frontier) {
		t.Error("seeds 1 and 2 explored identically — the seed is not reaching the substreams")
	}
}

// Frontier invariants: mutually non-dominated, feasible, and a subset of
// the exhaustive frontier's objective vectors (every search point is a
// real grid point, so anything off the true frontier would be dominated).
func TestFrontierInvariants(t *testing.T) {
	eng := buildEngine(t, "S2D")
	cfg := Config{Objectives: []Objective{Delay, Energy, EDP}}
	res, err := RunContext(context.Background(), eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	objs := res.Objectives
	for i, p := range res.Frontier {
		if len(p.Values) != len(objs) {
			t.Fatalf("point %d has %d values, want %d", i, len(p.Values), len(objs))
		}
		for j, q := range res.Frontier {
			if i != j && dominates(objs, q.Values, p.Values) {
				t.Errorf("frontier point %d dominates %d", j, i)
			}
		}
	}
	truth, _ := trueFrontier(t, eng, cfg)
	if cov := coverage(res.Frontier, truth); cov < 1 {
		// coverage(res.Frontier, truth) asks: is every found point on the
		// true frontier? (arguments deliberately swapped)
		t.Errorf("%.0f%% of found frontier points are not on the true frontier", 100*(1-cov))
	}
}

func TestSingleObjectiveFindsOptimum(t *testing.T) {
	eng := buildEngine(t, "S3D")
	res, err := RunContext(context.Background(), eng, Config{Objectives: []Objective{Efficiency}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) != 1 {
		t.Fatalf("single-objective frontier has %d points, want 1", len(res.Frontier))
	}
	truth, _ := trueFrontier(t, eng, Config{Objectives: []Objective{Efficiency}})
	if res.Frontier[0].Values[0] != truth[0].Values[0] {
		t.Errorf("best efficiency %g, exhaustive optimum %g", res.Frontier[0].Values[0], truth[0].Values[0])
	}
}

func TestConstraintsRestrictFrontier(t *testing.T) {
	eng := buildEngine(t, "S3D")
	free, err := RunContext(context.Background(), eng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Bound power at the median frontier power so the constraint bites.
	bound := free.Frontier[len(free.Frontier)/2].Result.Power
	cfg := Config{Constraints: Constraints{MaxPowerW: bound}}
	res, err := RunContext(context.Background(), eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) == 0 {
		t.Fatal("constrained frontier is empty")
	}
	for _, p := range res.Frontier {
		if p.Result.Power > bound {
			t.Errorf("frontier point at %g W exceeds the %g W bound", p.Result.Power, bound)
		}
	}
	truth, _ := trueFrontier(t, eng, cfg)
	if cov := coverage(truth, res.Frontier); cov < 0.95 {
		t.Errorf("constrained coverage %.0f%%, want >= 95%%", 100*cov)
	}
}

func TestEvaluatorSeamMatchesEvaluate(t *testing.T) {
	eng := buildEngine(t, "FFT")
	designs := []aladdin.Design{
		{NodeNM: 45, Partition: 1, Simplification: 1},
		{NodeNM: 22, Partition: 64, Simplification: 7, Fusion: true},
		{NodeNM: 22, Partition: 64, Simplification: 7, Fusion: true}, // duplicate
		{NodeNM: 5, Partition: 524288, Simplification: 13},
	}
	batch, err := eng.EvaluateBatchContext(context.Background(), designs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range designs {
		one, err := eng.EvaluateContext(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != one {
			t.Errorf("design %d: batch %+v != sequential %+v", i, batch[i], one)
		}
	}
}
