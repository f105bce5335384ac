// Benchmark harness: one benchmark per table and figure of the paper, plus
// ablation benches for the design choices called out in DESIGN.md. Each
// benchmark regenerates its experiment end to end, so `go test -bench=.`
// doubles as a full reproduction run.
package accelwall_test

import (
	"context"
	"testing"

	accelwall "accelwall"
	"accelwall/internal/aladdin"
	"accelwall/internal/budget"
	"accelwall/internal/casestudy"
	"accelwall/internal/chipdb"
	"accelwall/internal/cmos"
	"accelwall/internal/core"
	"accelwall/internal/csr"
	"accelwall/internal/dfg"
	"accelwall/internal/gains"
	"accelwall/internal/projection"
	"accelwall/internal/stats"
	"accelwall/internal/sweep"
	"accelwall/internal/trace"
	"accelwall/internal/workloads"
)

// benchStudy is shared across benches; building it once keeps corpus
// fitting out of the per-figure timings (it has its own bench below).
var benchStudy = func() *core.Study {
	s, err := core.New(1)
	if err != nil {
		panic(err)
	}
	// A compact sweep grid keeps the Table III benches tractable while
	// exercising every axis; BenchmarkFig13Full uses the reduced grid.
	s.Sweep = sweep.Params{
		Nodes:           []float64{45, 10, 5},
		Partitions:      []int{1, 64, 4096},
		Simplifications: []int{1, 7, 13},
		Fusion:          []bool{false, true},
	}
	return s
}()

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := core.ExperimentByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(benchStudy); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkFig3a(b *testing.B)  { benchExperiment(b, "fig3a") }
func BenchmarkFig3b(b *testing.B)  { benchExperiment(b, "fig3b") }
func BenchmarkFig3c(b *testing.B)  { benchExperiment(b, "fig3c") }
func BenchmarkFig3d(b *testing.B)  { benchExperiment(b, "fig3d") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4a") }
func BenchmarkFig4b(b *testing.B)  { benchExperiment(b, "fig4b") }
func BenchmarkFig4c(b *testing.B)  { benchExperiment(b, "fig4c") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5a") }
func BenchmarkFig5b(b *testing.B)  { benchExperiment(b, "fig5b") }
func BenchmarkFig6_7(b *testing.B) { benchExperiment(b, "fig6") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8a") }
func BenchmarkFig8b(b *testing.B)  { benchExperiment(b, "fig8b") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9a") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkTable3 runs the full Table III design-space sweep (all 3,640
// grid points, deduplicated onto the partition plateau) on the 3D-stencil
// kernel — the headline Section VI exploration cost that the compiled-graph
// engine amortizes.
func BenchmarkTable3(b *testing.B) {
	spec, err := workloads.ByAbbrev("S3D")
	if err != nil {
		b.Fatal(err)
	}
	g, err := spec.Build(0)
	if err != nil {
		b.Fatal(err)
	}
	p := sweep.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := sweep.NewEngine(g)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.RunContext(context.Background(), p, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGridDesigns enumerates the raw Table III lattice (3,640 points) for
// BenchmarkBatch, mirroring the sweep's axis nesting.
func benchGridDesigns(p sweep.Params) []aladdin.Design {
	var designs []aladdin.Design
	for _, n := range p.Nodes {
		for _, f := range p.Fusion {
			for _, s := range p.Simplifications {
				for _, part := range p.Partitions {
					designs = append(designs, aladdin.Design{NodeNM: n, Partition: part, Simplification: s, Fusion: f})
				}
			}
		}
	}
	return designs
}

// BenchmarkBatch measures per-design evaluation over the full Table III
// lattice on S3D: a warm sequential Simulate loop, whose schedule-class
// cache serves every design, and the cold path (fresh Compile each
// iteration) that additionally reports the incremental schedule-reuse rate
// a from-scratch sweep achieves.
func BenchmarkBatch(b *testing.B) {
	spec, err := workloads.ByAbbrev("S3D")
	if err != nil {
		b.Fatal(err)
	}
	g, err := spec.Build(0)
	if err != nil {
		b.Fatal(err)
	}
	designs := benchGridDesigns(sweep.Default())
	simulateAll := func(b *testing.B, c *aladdin.Compiled) {
		for _, d := range designs {
			if _, err := c.Simulate(d); err != nil {
				b.Fatal(err)
			}
		}
	}
	reportPoints := func(b *testing.B) {
		b.ReportMetric(float64(b.N*len(designs))/b.Elapsed().Seconds(), "points/sec")
	}

	b.Run("sequential", func(b *testing.B) {
		c, err := aladdin.Compile(g)
		if err != nil {
			b.Fatal(err)
		}
		simulateAll(b, c) // warm the schedule cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			simulateAll(b, c)
		}
		reportPoints(b)
	})
	b.Run("cold", func(b *testing.B) {
		var walks, hits uint64
		for i := 0; i < b.N; i++ {
			c, err := aladdin.Compile(g)
			if err != nil {
				b.Fatal(err)
			}
			simulateAll(b, c)
			w, h := c.ScheduleCacheStats()
			walks += w
			hits += h
		}
		reportPoints(b)
		if walks+hits > 0 {
			b.ReportMetric(float64(hits)/float64(walks+hits)*100, "reuse-%")
		}
	})
}

func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }
func BenchmarkFig15_16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchStudy.Fig15(); err != nil {
			b.Fatal(err)
		}
		if _, err := benchStudy.Fig16(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorpusFit measures building and fitting the full 2613-chip
// synthetic corpus — the Section III model-construction cost.
func BenchmarkCorpusFit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := chipdb.Synthetic(int64(i + 1))
		if _, err := budget.Fit(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBudgetFitSizes ablates corpus-size sensitivity of the Figure 3b
// regression (DESIGN.md ablation).
func BenchmarkBudgetFitSizes(b *testing.B) {
	full := chipdb.Synthetic(1)
	for _, frac := range []int{10, 4, 2, 1} {
		frac := frac
		name := map[int]string{10: "tenth", 4: "quarter", 2: "half", 1: "full"}[frac]
		b.Run(name, func(b *testing.B) {
			keep := 0
			sub := full.Filter(func(chipdb.Chip) bool {
				keep++
				return keep%frac == 0
			})
			b.ResetTimer()
			var exponent float64
			for i := 0; i < b.N; i++ {
				m, err := budget.Fit(sub)
				if err != nil {
					b.Fatal(err)
				}
				exponent = m.TC.B
			}
			b.ReportMetric(exponent, "fitted-exponent")
			b.ReportMetric(float64(sub.Len()), "chips")
		})
	}
}

// BenchmarkSimulate measures the warm per-design path on every Table IV
// workload at its default size and a mid-grade design point: the graph is
// compiled once outside the loop, and since every iteration repeats one
// design, all but the first are schedule-summary hits that pay only the
// per-design metric derivation. BenchmarkScheduleWalk in internal/aladdin
// times the scheduler walk itself.
func BenchmarkSimulate(b *testing.B) {
	d := aladdin.Design{NodeNM: 16, Partition: 64, Simplification: 4, Fusion: true}
	for _, spec := range workloads.All() {
		spec := spec
		b.Run(spec.Abbrev, func(b *testing.B) {
			g, err := spec.Build(0)
			if err != nil {
				b.Fatal(err)
			}
			c, err := aladdin.Compile(g)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Simulate(d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompile measures the one-time per-graph analysis that
// Compiled.Simulate amortizes across a sweep's design points.
func BenchmarkCompile(b *testing.B) {
	for _, abbrev := range []string{"RED", "FFT", "S3D", "AES"} {
		abbrev := abbrev
		b.Run(abbrev, func(b *testing.B) {
			spec, err := workloads.ByAbbrev(abbrev)
			if err != nil {
				b.Fatal(err)
			}
			g, err := spec.Build(0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := aladdin.Compile(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAladdinFusion ablates operation fusion (heterogeneity) on a
// chain-heavy workload (DESIGN.md ablation): compare ns/op and the
// reported cycle counts with fusion on and off.
func BenchmarkAladdinFusion(b *testing.B) {
	spec, err := workloads.ByAbbrev("AES")
	if err != nil {
		b.Fatal(err)
	}
	g, err := spec.Build(0)
	if err != nil {
		b.Fatal(err)
	}
	c, err := aladdin.Compile(g)
	if err != nil {
		b.Fatal(err)
	}
	for _, fusion := range []bool{false, true} {
		fusion := fusion
		name := "off"
		if fusion {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var cycles int
			for i := 0; i < b.N; i++ {
				r, err := c.Simulate(aladdin.Design{NodeNM: 7, Partition: 4096, Simplification: 1, Fusion: fusion})
				if err != nil {
					b.Fatal(err)
				}
				cycles = r.Cycles
			}
			b.ReportMetric(float64(cycles), "schedule-cycles")
		})
	}
}

// BenchmarkProjectionModels ablates the linear vs logarithmic Pareto
// projections (Equations 5 and 6) across all four domains.
func BenchmarkProjectionModels(b *testing.B) {
	pts := func() []stats.Point {
		p, err := projection.Project(casestudy.DomainVideoDecode, gains.TargetThroughput)
		if err != nil {
			b.Fatal(err)
		}
		return p.Frontier
	}()
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = p.X, p.Y
	}
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := stats.FitLinear(xs, ys); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("log", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := stats.FitLogarithmic(xs, ys); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRelationsClosure measures the Equations 3/4 relation matrix
// construction with transitive completion.
func BenchmarkRelationsClosure(b *testing.B) {
	ag := make(csr.AppGains)
	// 12 architectures, overlapping 6-app windows out of 24 apps.
	for a := 0; a < 12; a++ {
		apps := make(map[string]float64)
		for i := a; i < a+6 && i < 24; i++ {
			apps[string(rune('a'+i))] = float64(a+1) * float64(i+1)
		}
		ag[string(rune('A'+a))] = apps
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := csr.BuildRelations(ag, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadBuild measures DFG construction for the largest default
// kernels.
func BenchmarkWorkloadBuild(b *testing.B) {
	for _, abbrev := range []string{"AES", "FFT", "GMM", "S3D", "NWN"} {
		abbrev := abbrev
		b.Run(abbrev, func(b *testing.B) {
			spec, err := workloads.ByAbbrev(abbrev)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := spec.Build(0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCMOSLookup measures the node interpolation hot path.
func BenchmarkCMOSLookup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := cmos.Lookup(36); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIIBounds measures the limit-table evaluation over a large
// DFG.
func BenchmarkTableIIBounds(b *testing.B) {
	spec, err := workloads.ByAbbrev("FFT")
	if err != nil {
		b.Fatal(err)
	}
	g, err := spec.Build(256)
	if err != nil {
		b.Fatal(err)
	}
	s := g.ComputeStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dfg.LimitTable(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublicAPI exercises the root facade end to end.
func BenchmarkPublicAPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := accelwall.Simulate("RED", accelwall.Design{NodeNM: 7, Partition: 64, Simplification: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTracer measures the dynamic front end: tracing a GEMM execution
// into a dataflow graph with memory disambiguation.
func BenchmarkTracer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := trace.GEMM(6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFuseChains measures the graph-level fusion transform on AES.
func BenchmarkFuseChains(b *testing.B) {
	spec, err := workloads.ByAbbrev("AES")
	if err != nil {
		b.Fatal(err)
	}
	g, err := spec.Build(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dfg.FuseChains(g, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlgorithmVariants ablates the algorithm layer: base vs variant
// kernels at the same design point (DESIGN.md: algorithmic-innovation CSR).
func BenchmarkAlgorithmVariants(b *testing.B) {
	d := aladdin.Design{NodeNM: 7, Partition: 256, Simplification: 4, Fusion: true}
	run := func(b *testing.B, build func(int) (*dfg.Graph, error)) {
		g, err := build(0)
		if err != nil {
			b.Fatal(err)
		}
		c, err := aladdin.Compile(g)
		if err != nil {
			b.Fatal(err)
		}
		var cycles int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := c.Simulate(d)
			if err != nil {
				b.Fatal(err)
			}
			cycles = r.Cycles
		}
		b.ReportMetric(float64(cycles), "schedule-cycles")
	}
	for _, v := range workloads.Variants() {
		v := v
		base, err := workloads.ByAbbrev(v.Base)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(v.Base+"-direct", func(b *testing.B) { run(b, base.Build) })
		b.Run(v.Base+"-"+v.Name, func(b *testing.B) { run(b, v.Build) })
	}
}

// BenchmarkDomainKernels measures the case-study kernels end to end.
func BenchmarkDomainKernels(b *testing.B) {
	d := aladdin.Design{NodeNM: 7, Partition: 128, Simplification: 2, Fusion: true}
	for _, k := range workloads.DomainKernels() {
		k := k
		b.Run(k.Name, func(b *testing.B) {
			g, err := k.Build(0)
			if err != nil {
				b.Fatal(err)
			}
			c, err := aladdin.Compile(g)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Simulate(d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScheduleTrace measures the introspecting scheduler (Trace +
// Validate) against plain Simulate.
func BenchmarkScheduleTrace(b *testing.B) {
	spec, err := workloads.ByAbbrev("FFT")
	if err != nil {
		b.Fatal(err)
	}
	g, err := spec.Build(64)
	if err != nil {
		b.Fatal(err)
	}
	d := aladdin.Design{NodeNM: 16, Partition: 32, Simplification: 1, Fusion: true}
	c, err := aladdin.Compile(g)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("simulate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.Simulate(d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("trace+validate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sched, err := c.Trace(d)
			if err != nil {
				b.Fatal(err)
			}
			if err := sched.Validate(g, d); err != nil {
				b.Fatal(err)
			}
		}
	})
}
