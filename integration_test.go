package accelwall_test

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"accelwall/internal/aladdin"
	"accelwall/internal/budget"
	"accelwall/internal/casestudy"
	"accelwall/internal/chipdb"
	"accelwall/internal/core"
	"accelwall/internal/csr"
	"accelwall/internal/dfg"
	"accelwall/internal/gains"
	"accelwall/internal/projection"
	"accelwall/internal/sweep"
	"accelwall/internal/workloads"
)

// TestEquationOneEverywhere asserts the central Equation 1 identity
// (Gain = CSR × PhysicalGain) across every case-study row the system
// produces — the end-to-end consistency of the whole model stack.
func TestEquationOneEverywhere(t *testing.T) {
	checkRow := func(name string, gain, phys, csrVal float64) {
		t.Helper()
		if phys <= 0 || gain <= 0 || csrVal <= 0 {
			t.Errorf("%s: non-positive decomposition (%g, %g, %g)", name, gain, phys, csrVal)
			return
		}
		if math.Abs(csrVal*phys-gain) > 1e-9*gain {
			t.Errorf("%s: CSR×Phy = %g, Gain = %g", name, csrVal*phys, gain)
		}
	}
	for _, target := range []gains.Target{gains.TargetThroughput, gains.TargetEfficiency} {
		rows4, err := casestudy.Fig4(target)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows4 {
			checkRow("fig4/"+r.Pub, r.RelGain, r.RelGain/r.CSR, r.CSR)
		}
		rows9, err := casestudy.Fig9(target)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows9 {
			checkRow("fig9/"+r.Name, r.RelGain, r.RelGain/r.CSR, r.CSR)
		}
		for _, model := range []casestudy.CNNModel{casestudy.AlexNet, casestudy.VGG16} {
			rows8, err := casestudy.Fig8(model, target)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows8 {
				checkRow("fig8/"+r.Pub, r.RelGain, r.RelGain/r.CSR, r.CSR)
			}
		}
		arch, err := casestudy.ArchScaling(target)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range arch {
			checkRow("fig6/"+r.Arch, r.RelGain, r.RelGain/r.CSR, r.CSR)
		}
	}
}

// TestCorpusRoundTripThroughModels exports the synthetic corpus to CSV,
// re-imports it, refits the budget model, and verifies the physical gain
// model built on it agrees with the original to numerical precision.
func TestCorpusRoundTripThroughModels(t *testing.T) {
	orig := chipdb.Synthetic(5)
	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := chipdb.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := budget.Fit(orig)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := budget.Fit(parsed)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []gains.Config{
		{NodeNM: 45, DieMM2: 100, TDPW: 100, FreqGHz: 1},
		{NodeNM: 7, DieMM2: 400, TDPW: 300, FreqGHz: 1.5},
	}
	g1 := gains.NewModel(m1)
	g2 := gains.NewModel(m2)
	for _, cfg := range cfgs {
		a, err := g1.Throughput(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := g2.Throughput(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a-b) > 1e-6*a {
			t.Errorf("round-tripped model diverged at %+v: %g vs %g", cfg, a, b)
		}
	}
}

// TestFittedVsPublishedAgreement verifies the corpus-fitted model and the
// published-constants model tell the same macro story: physical gain
// ratios agree within 25% across representative configurations.
func TestFittedVsPublishedAgreement(t *testing.T) {
	fitted, err := core.New(1)
	if err != nil {
		t.Fatal(err)
	}
	published := core.NewPublished()
	base := gains.Baseline()
	for _, cfg := range []gains.Config{
		{NodeNM: 28, DieMM2: 200, TDPW: 150, FreqGHz: 1},
		{NodeNM: 7, DieMM2: 400, TDPW: 300, FreqGHz: 1},
		{NodeNM: 5, DieMM2: 800, TDPW: 800, FreqGHz: 1},
	} {
		a, err := fitted.Gains.Ratio(gains.TargetThroughput, cfg, base)
		if err != nil {
			t.Fatal(err)
		}
		b, err := published.Gains.Ratio(gains.TargetThroughput, cfg, base)
		if err != nil {
			t.Fatal(err)
		}
		if ratio := a / b; ratio < 0.75 || ratio > 1.33 {
			t.Errorf("fitted vs published ratio at %+v: %g vs %g (%.2fx apart)", cfg, a, b, ratio)
		}
	}
}

// TestWorkloadsThroughFullPipeline drives every Table IV kernel through
// DFG construction, Table II bounds, graph fusion, simulation, and a
// minimal sweep — the full Section V/VI pipeline.
func TestWorkloadsThroughFullPipeline(t *testing.T) {
	params := sweep.Params{
		Nodes:           []float64{45, 5},
		Partitions:      []int{1, 256},
		Simplifications: []int{1, 7},
		Fusion:          []bool{false, true},
	}
	for _, spec := range workloads.All() {
		spec := spec
		t.Run(spec.Abbrev, func(t *testing.T) {
			g, err := spec.Build(0)
			if err != nil {
				t.Fatal(err)
			}
			st := g.ComputeStats()
			if _, err := dfg.LimitTable(st); err != nil {
				t.Fatalf("Table II bounds: %v", err)
			}
			fused, _, err := dfg.FuseChains(g, 3)
			if err != nil {
				t.Fatalf("fusion: %v", err)
			}
			if fused.ComputeStats().Depth > st.Depth {
				t.Error("fusion increased depth")
			}
			eng, err := sweep.NewEngine(g)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			points, err := eng.RunContext(context.Background(), params, 1)
			if err != nil {
				t.Fatalf("sweep: %v", err)
			}
			best, err := sweep.Best(points, sweep.Efficiency)
			if err != nil {
				t.Fatal(err)
			}
			// The 5nm point always beats the 45nm baseline on efficiency.
			if best.Design.NodeNM != 5 {
				t.Errorf("efficiency optimum at %gnm, want 5nm", best.Design.NodeNM)
			}
			// And the DOT export is well-formed for every kernel.
			var sb strings.Builder
			if err := g.WriteDOT(&sb); err != nil {
				t.Fatalf("DOT: %v", err)
			}
			if !strings.HasPrefix(sb.String(), "digraph") {
				t.Error("DOT output malformed")
			}
		})
	}
}

// TestProjectionConsistencyWithCaseStudies: every wall projection's input
// cloud must contain its domain's best observed gain, and the wall gain
// must lie beyond it under the linear model.
func TestProjectionConsistencyWithCaseStudies(t *testing.T) {
	for _, target := range []gains.Target{gains.TargetThroughput, gains.TargetEfficiency} {
		for _, domain := range casestudy.Domains() {
			p, err := projection.Project(domain, target)
			if err != nil {
				t.Fatal(err)
			}
			foundBest := false
			for _, pt := range p.Points {
				if pt.Y == p.CurrentBest {
					foundBest = true
					break
				}
			}
			if !foundBest {
				t.Errorf("%v/%v: CurrentBest %g not among the points", domain, target, p.CurrentBest)
			}
			if p.ProjLinear <= p.CurrentBest {
				t.Errorf("%v/%v: linear wall %g does not exceed current best %g",
					domain, target, p.ProjLinear, p.CurrentBest)
			}
		}
	}
}

// TestRelationMatrixMatchesDirectRatios: for architectures that share
// benchmarks directly, the Equation 3/4 machinery must reproduce the plain
// CSR pairwise decomposition.
func TestRelationMatrixMatchesDirectRatios(t *testing.T) {
	m := gains.NewModel(nil)
	a := csr.Observation{Name: "new", Chip: gains.Config{NodeNM: 16, DieMM2: 300, TDPW: 180, FreqGHz: 1.4}, Gain: 120}
	b := csr.Observation{Name: "old", Chip: gains.Config{NodeNM: 65, DieMM2: 576, TDPW: 236, FreqGHz: 0.6}, Gain: 10}
	reported, cmosDriven, csrRatio, err := csr.Pairwise(m, gains.TargetThroughput, a, b)
	if err != nil {
		t.Fatal(err)
	}
	ag := csr.AppGains{
		"new": {"g1": 120, "g2": 240, "g3": 60, "g4": 120, "g5": 120},
		"old": {"g1": 10, "g2": 20, "g3": 5, "g4": 10, "g5": 10},
	}
	rm, err := csr.BuildRelations(ag, 5)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := rm.ChainGain("new", "old")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rel-reported) > 1e-9*reported {
		t.Errorf("relation gain %g != pairwise reported %g", rel, reported)
	}
	if math.Abs(rel/cmosDriven-csrRatio) > 1e-9*csrRatio {
		t.Errorf("CSR through relations %g != pairwise CSR %g", rel/cmosDriven, csrRatio)
	}
}

// TestSimulatorEnergyConservation: total energy equals the sum of its
// components under every knob combination for a mid-size kernel.
func TestSimulatorEnergyConservation(t *testing.T) {
	spec, err := workloads.ByAbbrev("FFT")
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Build(32)
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range []float64{45, 7} {
		for _, p := range []int{1, 64} {
			for _, s := range []int{1, 13} {
				for _, f := range []bool{false, true} {
					r, err := aladdin.Simulate(g, aladdin.Design{NodeNM: node, Partition: p, Simplification: s, Fusion: f})
					if err != nil {
						t.Fatal(err)
					}
					if math.Abs(r.DynEnergy+r.LeakEnergy-r.Energy) > 1e-9*r.Energy {
						t.Errorf("energy components do not sum at %+v", r.Design)
					}
					if math.Abs(r.Power*r.RuntimeNS-r.Energy) > 1e-9*r.Energy {
						t.Errorf("power × runtime != energy at %+v", r.Design)
					}
				}
			}
		}
	}
}
