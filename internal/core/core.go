// Package core ties the accelerator-wall models together: it owns the
// fitted CMOS potential model and exposes one entry point per table and
// figure of the paper, each returning both typed rows (for programmatic
// use) and a rendered text table (for the CLI and the experiment log).
//
// A Study is cheap to construct; the expensive artifacts (the synthetic
// datasheet corpus and the regressions over it) are built once in New.
package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"text/tabwriter"

	"accelwall/internal/aladdin"
	"accelwall/internal/budget"
	"accelwall/internal/casestudy"
	"accelwall/internal/checkpoint"
	"accelwall/internal/chipdb"
	"accelwall/internal/cmos"
	"accelwall/internal/dfg"
	"accelwall/internal/gains"
	"accelwall/internal/projection"
	"accelwall/internal/stats"
	"accelwall/internal/sweep"
	"accelwall/internal/workloads"
)

// Study holds the fitted models every experiment draws on.
type Study struct {
	Corpus *chipdb.Corpus
	Budget *budget.Model
	Gains  *gains.Model
	// Sweep is the Table III grid used by the design-space experiments.
	// Defaults to the reduced grid; switch to sweep.Default() for the full
	// (slow) exploration.
	Sweep sweep.Params
	// Workers sizes the worker pool the design-space experiments (fig13,
	// fig14, table5) distribute their simulations over; <= 0 selects
	// GOMAXPROCS. Each sweep compiles its workload graph once and shares
	// the compiled state across the pool.
	Workers int
	// Ctx, when non-nil, bounds every parallel computation the study's
	// experiments run: cancelling it stops the sweep pools within one
	// chunk of work and surfaces the context's error. Nil means no bound
	// (context.Background()), preserving the original blocking behavior.
	Ctx context.Context
	// Ckpt, when non-nil, makes the long design-space experiments durable:
	// the Figure 13 sweep appends progress snapshots into this store, so a
	// killed run leaves its completed prefix on disk. Nil disables
	// checkpointing (the default).
	Ckpt *checkpoint.Store
	// CkptResume makes a checkpointed experiment restore the snapshot a
	// previous run left in Ckpt instead of starting cold. A snapshot from a
	// different workload or grid is refused with an error, never blended.
	CkptResume bool
	// CkptLogf, when non-nil, receives human-readable checkpoint progress
	// notes (resume counts, snapshot failures). Nil discards them.
	CkptLogf func(format string, args ...any)
}

// ckptLogf reports checkpoint progress through the study's logger, if any.
func (s *Study) ckptLogf(format string, args ...any) {
	if s.CkptLogf != nil {
		s.CkptLogf(format, args...)
	}
}

// fig13Sweep runs the Figure 13 design-space sweep over the study's grid,
// shared by the table, plot, and JSON renderings. With a checkpoint store
// attached the sweep is durable: progress snapshots land in the
// "sweep-fig13" log, CkptResume restores a prior run's completed prefix,
// and the log is removed once the sweep finishes.
func (s *Study) fig13Sweep() ([]sweep.Fig13Row, sweep.Point, error) {
	spec, err := workloads.ByAbbrev("S3D")
	if err != nil {
		return nil, sweep.Point{}, err
	}
	g, err := spec.Build(0)
	if err != nil {
		return nil, sweep.Point{}, err
	}
	eng, err := sweep.NewEngine(g)
	if err != nil {
		return nil, sweep.Point{}, err
	}
	ck, closeLog, finish, err := s.Ckpt.Durable("sweep-fig13", s.CkptResume, func(format string, args ...any) {
		s.ckptLogf("fig13: "+format, args...)
	})
	if err != nil {
		return nil, sweep.Point{}, fmt.Errorf("core: fig13 checkpoint: %w", err)
	}
	defer closeLog()
	rows, best, resumed, err := eng.Fig13(s.ctx(), s.Sweep, s.Workers, ck)
	if err != nil {
		return nil, sweep.Point{}, err
	}
	if resumed > 0 {
		s.ckptLogf("fig13: resumed from checkpoint, skipped %d unique design points", resumed)
	}
	finish()
	return rows, best, nil
}

// ctx resolves the study's context, defaulting to Background.
func (s *Study) ctx() context.Context {
	if s.Ctx != nil {
		return s.Ctx
	}
	return context.Background()
}

// New builds a study over the synthetic datasheet corpus with the given
// seed and fits the budget model from it.
func New(seed int64) (*Study, error) {
	corpus := chipdb.Synthetic(seed)
	b, err := budget.Fit(corpus)
	if err != nil {
		return nil, fmt.Errorf("core: fitting budget model: %w", err)
	}
	return &Study{
		Corpus: corpus,
		Budget: b,
		Gains:  gains.NewModel(b),
		Sweep:  sweep.Reduced(),
	}, nil
}

// NewPublished builds a study that uses the paper's published regression
// constants instead of corpus fits — the reference configuration for
// reproducing downstream figures exactly.
func NewPublished() *Study {
	b := budget.Published()
	return &Study{
		Corpus: nil,
		Budget: b,
		Gains:  gains.NewModel(b),
		Sweep:  sweep.Reduced(),
	}
}

// table renders rows through a tabwriter.
func table(header string, write func(w *tabwriter.Writer)) string {
	var buf bytes.Buffer
	w := tabwriter.NewWriter(&buf, 2, 4, 2, ' ', 0)
	if header != "" {
		fmt.Fprintln(w, header)
	}
	write(w)
	w.Flush()
	return buf.String()
}

// Fig1 renders the Bitcoin ASIC evolution (Figure 1).
func (s *Study) Fig1() (string, error) {
	rows, err := casestudy.Fig1()
	if err != nil {
		return "", err
	}
	return table("chip\tyear\tnode\tperf[x]\ttransistor-perf[x]\tCSR[x]", func(w *tabwriter.Writer) {
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.1f\t%gnm\t%.1f\t%.1f\t%.2f\n",
				r.Name, r.Year, r.NodeNM, r.RelPerformance, r.TransistorPerformance, r.CSR)
		}
	}), nil
}

// Fig3a renders the device-scaling curves (Figure 3a).
func (s *Study) Fig3a() (string, error) {
	rows, err := cmos.Fig3a()
	if err != nil {
		return "", err
	}
	return table("metric\tnode\trelative", func(w *tabwriter.Writer) {
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%gnm\t%.3f\n", r.Metric, r.NodeNM, r.Value)
		}
	}), nil
}

// Fig3b renders the transistor-count area model (Figure 3b): the fitted
// power law and a per-era summary of the corpus scatter.
func (s *Study) Fig3b() (string, error) {
	if s.Corpus == nil {
		return "", errors.New("core: Fig3b requires a datasheet corpus (use New, not NewPublished)")
	}
	rows, fit, err := budget.Fig3b(s.Corpus)
	if err != nil {
		return "", err
	}
	counts := make(map[cmos.Era]int)
	for _, r := range rows {
		counts[r.Era]++
	}
	head := fmt.Sprintf("TC(D) = %.3g x D^%.3f   (R² %.3f, published: %.3g x D^%.3f)\nera\tchips",
		fit.A, fit.B, fit.R2, chipdb.TCFitA, chipdb.TCFitB)
	return table(head, func(w *tabwriter.Writer) {
		for _, era := range cmos.Eras() {
			if n := counts[era]; n > 0 {
				fmt.Fprintf(w, "%s\t%d\n", era, n)
			}
		}
	}), nil
}

// Fig3c renders the per-era TCf-vs-TDP power model (Figure 3c).
func (s *Study) Fig3c() (string, error) {
	if s.Corpus == nil {
		return "", errors.New("core: Fig3c requires a datasheet corpus (use New, not NewPublished)")
	}
	rows, err := budget.Fig3c(s.Corpus)
	if err != nil {
		return "", err
	}
	return table("era\tfit TC[1e9]*f[GHz]\tchips\tprojection", func(w *tabwriter.Writer) {
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.3g x TDP^%.3f\t%d\t%v\n", r.Era, r.Curve.A, r.Curve.B, r.N, r.Projection)
		}
	}), nil
}

// Fig3d renders the physical chip-gain grid (Figure 3d).
func (s *Study) Fig3d() (string, error) {
	rows, err := s.Gains.Fig3d()
	if err != nil {
		return "", err
	}
	return table("target\tnode\tdie[mm2]\tzone\tgain[x]\tpower-capped", func(w *tabwriter.Writer) {
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%gnm\t%g\t%s\t%.1f\t%v\n",
				r.Target, r.NodeNM, r.DieMM2, r.Zone.Label, r.Gain, r.Capped)
		}
	}), nil
}

// Fig4 renders the video decoder study (Figures 4a and 4c).
func (s *Study) Fig4(target gains.Target) (string, error) {
	rows, err := casestudy.Fig4(target)
	if err != nil {
		return "", err
	}
	return table(fmt.Sprintf("[%s]\nchip\tyear\tnode\tgain[x]\tCSR[x]", target), func(w *tabwriter.Writer) {
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.1f\t%gnm\t%.1f\t%.2f\n", r.Pub, r.Year, r.NodeNM, r.RelGain, r.CSR)
		}
	}), nil
}

// Fig4b renders the decoder hardware-budget panel (Figure 4b).
func (s *Study) Fig4b() (string, error) {
	rows, err := casestudy.Fig4b()
	if err != nil {
		return "", err
	}
	return table("chip\tnode\ttransistors[x]\tfreq[MHz]", func(w *tabwriter.Writer) {
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%gnm\t%.1f\t%.0f\n", r.Pub, r.NodeNM, r.RelTransistors, r.FreqMHz)
		}
	}), nil
}

// Fig5 renders the GPU frame-rate study (Figures 5a and 5b).
func (s *Study) Fig5(target gains.Target) (string, error) {
	series, err := casestudy.Fig5(target)
	if err != nil {
		return "", err
	}
	return table(fmt.Sprintf("[%s]\napp\tfinal-gain[x]\tfinal-CSR[x]\ttrend", target), func(w *tabwriter.Writer) {
		for _, sr := range series {
			fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%s\n", sr.App.Name, sr.TotalGain, sr.FinalCSR, sr.TrendRel)
		}
	}), nil
}

// Fig6 renders the architecture + CMOS throughput scaling (Figure 6).
func (s *Study) Fig6() (string, error) { return s.archScaling(gains.TargetThroughput) }

// Fig7 renders the architecture + CMOS efficiency scaling (Figure 7).
func (s *Study) Fig7() (string, error) { return s.archScaling(gains.TargetEfficiency) }

func (s *Study) archScaling(target gains.Target) (string, error) {
	points, err := casestudy.ArchScaling(target)
	if err != nil {
		return "", err
	}
	return table(fmt.Sprintf("[%s]\narch\tnode\tyear\tgain-vs-Tesla[x]\tCSR[x]", target), func(w *tabwriter.Writer) {
		for _, p := range points {
			fmt.Fprintf(w, "%s\t%gnm\t%.1f\t%.2f\t%.2f\n", p.Arch, p.NodeNM, p.Year, p.RelGain, p.CSR)
		}
	}), nil
}

// Fig8 renders the FPGA CNN study (Figures 8a and 8c) for both models.
func (s *Study) Fig8(target gains.Target) (string, error) {
	var buf bytes.Buffer
	for _, model := range []casestudy.CNNModel{casestudy.AlexNet, casestudy.VGG16} {
		rows, err := casestudy.Fig8(model, target)
		if err != nil {
			return "", err
		}
		buf.WriteString(table(fmt.Sprintf("[%s %s]\nimpl\tyear\tnode\tgain[x]\tCSR[x]", model, target), func(w *tabwriter.Writer) {
			for _, r := range rows {
				fmt.Fprintf(w, "%s\t%.1f\t%gnm\t%.1f\t%.2f\n", r.Pub, r.Year, r.NodeNM, r.RelGain, r.CSR)
			}
		}))
	}
	return buf.String(), nil
}

// Fig8b renders the FPGA resource-utilization panel (Figure 8b).
func (s *Study) Fig8b() (string, error) {
	var buf bytes.Buffer
	for _, model := range []casestudy.CNNModel{casestudy.AlexNet, casestudy.VGG16} {
		rows := casestudy.Fig8b(model)
		buf.WriteString(table(fmt.Sprintf("[%s]\nimpl\t%%LUT\t%%DSP\t%%BRAM\tfreq[MHz]", model), func(w *tabwriter.Writer) {
			for _, r := range rows {
				fmt.Fprintf(w, "%s\t%.0f\t%.0f\t%.0f\t%.0f\n", r.Pub, r.UtilLUT, r.UtilDSP, r.UtilBRAM, r.FreqMHz)
			}
		}))
	}
	return buf.String(), nil
}

// Fig9 renders the cross-platform Bitcoin study (Figure 9).
func (s *Study) Fig9(target gains.Target) (string, error) {
	rows, err := casestudy.Fig9(target)
	if err != nil {
		return "", err
	}
	return table(fmt.Sprintf("[%s]\nchip\tkind\tnode\tgain[x]\tCSR[x]", target), func(w *tabwriter.Writer) {
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%s\t%gnm\t%.3g\t%.3g\n", r.Name, r.Kind, r.NodeNM, r.RelGain, r.CSR)
		}
	}), nil
}

// Table2 renders the specialization-concept complexity bounds (Table II)
// evaluated on every Table IV workload at its default size.
func (s *Study) Table2() (string, error) {
	var buf bytes.Buffer
	for _, spec := range workloads.TableIV() {
		g, err := spec.Build(0)
		if err != nil {
			return "", fmt.Errorf("core: building %s: %w", spec.Abbrev, err)
		}
		st := g.ComputeStats()
		bounds, err := dfg.LimitTable(st)
		if err != nil {
			return "", err
		}
		buf.WriteString(table(fmt.Sprintf("[%s] |V|=%d |E|=%d D=%d max|WS|=%d |Vin|=%d |Vout|=%d\ncomponent\tconcept\ttime\tspace", spec.Abbrev, st.V, st.E, st.Depth, st.MaxWS, st.VIn, st.VOut), func(w *tabwriter.Writer) {
			for _, b := range bounds {
				fmt.Fprintf(w, "%s\t%s\t%s = %.3g\t%s = %.3g\n",
					b.Component, b.Concept, b.TimeExpr, b.Time, b.SpaceExpr, b.Space)
			}
		}))
	}
	return buf.String(), nil
}

// Fig13 renders the 3D-stencil design-space sweep (Figure 13): the
// runtime/power cloud and the energy-efficiency optimum.
func (s *Study) Fig13() (string, error) {
	rows, best, err := s.fig13Sweep()
	if err != nil {
		return "", err
	}
	head := fmt.Sprintf("best energy efficiency: node %gnm partition %d simplification %d fusion %v\nnode\tpartition\tsimpl\tfusion\truntime[ns]\tpower\teff",
		best.Design.NodeNM, best.Design.Partition, best.Design.Simplification, best.Design.Fusion)
	return table(head, func(w *tabwriter.Writer) {
		for _, r := range rows {
			fmt.Fprintf(w, "%gnm\t%d\t%d\t%v\t%.1f\t%.3g\t%.3g\n",
				r.NodeNM, r.Partition, r.Simplification, r.Fusion, r.RuntimeNS, r.PowerW, r.EnergyEff)
		}
	}), nil
}

// Fig14 renders the per-application gain attribution (Figure 14) for both
// target functions across all sixteen workloads.
func (s *Study) Fig14() (string, error) {
	var buf bytes.Buffer
	for _, objective := range []sweep.Objective{sweep.Performance, sweep.Efficiency} {
		attrs, err := s.Fig14Attributions(objective)
		if err != nil {
			return "", err
		}
		buf.WriteString(table(fmt.Sprintf("[%s]\napp\tgain[x]\tCSR[x]\t%%CMOS\t%%het\t%%simp\t%%part", objective), func(w *tabwriter.Writer) {
			for _, a := range attrs {
				fmt.Fprintf(w, "%s\t%.0f\t%.2f\t%.0f\t%.0f\t%.0f\t%.0f\n",
					a.App, a.Total, a.CSR, a.PctCMOS, a.PctHeterogeneity, a.PctSimplification, a.PctPartitioning)
			}
		}))
	}
	return buf.String(), nil
}

// Fig14Attributions computes the Figure 14 decomposition rows for one
// objective, in Table IV order plus an AVG row (geometric mean of totals,
// arithmetic mean of shares).
func (s *Study) Fig14Attributions(objective sweep.Objective) ([]sweep.Attribution, error) {
	var attrs []sweep.Attribution
	var totals, csrs []float64
	avg := sweep.Attribution{App: "AVG", Objective: objective}
	for _, spec := range workloads.TableIV() {
		g, err := spec.Build(0)
		if err != nil {
			return nil, fmt.Errorf("core: building %s: %w", spec.Abbrev, err)
		}
		eng, err := sweep.NewEngine(g)
		if err != nil {
			return nil, fmt.Errorf("core: compiling %s: %w", spec.Abbrev, err)
		}
		a, err := eng.Attribute(s.ctx(), spec.Abbrev, s.Sweep, objective, s.Workers)
		if err != nil {
			return nil, fmt.Errorf("core: attributing %s: %w", spec.Abbrev, err)
		}
		attrs = append(attrs, a)
		totals = append(totals, a.Total)
		csrs = append(csrs, a.CSR)
		avg.PctCMOS += a.PctCMOS
		avg.PctHeterogeneity += a.PctHeterogeneity
		avg.PctSimplification += a.PctSimplification
		avg.PctPartitioning += a.PctPartitioning
	}
	n := float64(len(attrs))
	avg.PctCMOS /= n
	avg.PctHeterogeneity /= n
	avg.PctSimplification /= n
	avg.PctPartitioning /= n
	var err error
	if avg.Total, err = stats.GeoMean(totals); err != nil {
		return nil, err
	}
	if avg.CSR, err = stats.GeoMean(csrs); err != nil {
		return nil, err
	}
	return append(attrs, avg), nil
}

// Fig15 renders the accelerator-wall performance projections (Figure 15).
func (s *Study) Fig15() (string, error) { return s.wall(projection.Fig15) }

// Fig16 renders the accelerator-wall efficiency projections (Figure 16).
func (s *Study) Fig16() (string, error) { return s.wall(projection.Fig16) }

func (s *Study) wall(run func() ([]projection.Projection, error)) (string, error) {
	projs, err := run()
	if err != nil {
		return "", err
	}
	return table("domain\ttarget\tphys-limit[x]\tbest[x]\twall(log)\twall(linear)\theadroom", func(w *tabwriter.Writer) {
		for _, p := range projs {
			fmt.Fprintf(w, "%s\t%s\t%.3g\t%.3g\t%.4g %s\t%.4g %s\t%.1f-%.1fx\n",
				p.Domain, p.Target, p.PhysLimit, p.CurrentBest,
				p.ProjLog*p.BaselineAbs, p.Unit, p.ProjLinear*p.BaselineAbs, p.Unit,
				p.RemainLog, p.RemainLinear)
		}
	}), nil
}

// TableV renders the limit-study physical parameters (Table V).
func (s *Study) TableV() (string, error) {
	rows := projection.TableV()
	return table("domain\tplatform\tdie min/max [mm2]\tTDP[W]\tfreq[MHz]", func(w *tabwriter.Writer) {
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%s\t%g / %g\t%g\t%g\n",
				r.Domain, r.Platform, r.DieMinMM2, r.DieMaxMM2, r.TDPW, r.FreqMHz)
		}
	}), nil
}

// Experiment couples an identifier with its runner, powering the CLI and
// the experiment log.
type Experiment struct {
	ID    string
	Title string
	Run   func(*Study) (string, error)
}

// Experiments returns every reproducible table and figure, in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "fig1", Title: "Evolution of Bitcoin Mining ASIC Chips", Run: (*Study).Fig1},
		{ID: "fig2", Title: "Abstraction Layers: Traditional and Accelerated Systems", Run: (*Study).Fig2},
		{ID: "fig3a", Title: "CMOS Device Scaling", Run: (*Study).Fig3a},
		{ID: "fig3b", Title: "Transistor Count Given Area and CMOS Node", Run: (*Study).Fig3b},
		{ID: "fig3c", Title: "Transistor Count Given Chip Frequency and TDP", Run: (*Study).Fig3c},
		{ID: "fig3d", Title: "Physical Chip Gains", Run: (*Study).Fig3d},
		{ID: "fig4a", Title: "Video Decoder ASICs: Performance + CSR", Run: func(s *Study) (string, error) { return s.Fig4(gains.TargetThroughput) }},
		{ID: "fig4b", Title: "Video Decoder ASICs: Hardware Budget", Run: (*Study).Fig4b},
		{ID: "fig4c", Title: "Video Decoder ASICs: Energy Efficiency + CSR", Run: func(s *Study) (string, error) { return s.Fig4(gains.TargetEfficiency) }},
		{ID: "fig5a", Title: "GPU Frame Rates: Throughput", Run: func(s *Study) (string, error) { return s.Fig5(gains.TargetThroughput) }},
		{ID: "fig5b", Title: "GPU Frame Rates: Energy Efficiency", Run: func(s *Study) (string, error) { return s.Fig5(gains.TargetEfficiency) }},
		{ID: "fig6", Title: "Architecture + CMOS Scaling: Throughput", Run: (*Study).Fig6},
		{ID: "fig7", Title: "Architecture + CMOS Scaling: Energy Efficiency", Run: (*Study).Fig7},
		{ID: "fig8a", Title: "FPGA CNNs: Performance + CSR", Run: func(s *Study) (string, error) { return s.Fig8(gains.TargetThroughput) }},
		{ID: "fig8b", Title: "FPGA CNNs: Resource Utilization", Run: (*Study).Fig8b},
		{ID: "fig8c", Title: "FPGA CNNs: Energy Efficiency + CSR", Run: func(s *Study) (string, error) { return s.Fig8(gains.TargetEfficiency) }},
		{ID: "fig9a", Title: "Bitcoin Mining: Performance per Area", Run: func(s *Study) (string, error) { return s.Fig9(gains.TargetThroughput) }},
		{ID: "fig9b", Title: "Bitcoin Mining: Energy Efficiency", Run: func(s *Study) (string, error) { return s.Fig9(gains.TargetEfficiency) }},
		{ID: "fig11", Title: "DFG Example: 3 Inputs, 2 Computation Stages, 2 Outputs", Run: (*Study).Fig11},
		{ID: "table1", Title: "Chip Specialization Concepts (TPU Examples)", Run: (*Study).Table1},
		{ID: "table2", Title: "Specialization Concept Complexity Limits", Run: (*Study).Table2},
		{ID: "table3", Title: "CMOS-Specialization Sweep Parameters", Run: (*Study).Table3},
		{ID: "table4", Title: "Evaluated Applications and Domains", Run: (*Study).Table4},
		{ID: "fig13", Title: "3D Stencil Power/Timing/CMOS Sweep", Run: (*Study).Fig13},
		{ID: "fig14", Title: "Specialization and CMOS Accelerator Gains", Run: (*Study).Fig14},
		{ID: "table5", Title: "Accelerator Wall: Physical Parameters", Run: (*Study).TableV},
		{ID: "fig15", Title: "Accelerator Performance Projections", Run: (*Study).Fig15},
		{ID: "fig16", Title: "Accelerator Energy Efficiency Projections", Run: (*Study).Fig16},
	}
}

// ExperimentByID resolves one experiment, searching the paper experiments
// and the extensions.
func ExperimentByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	for _, e := range Extensions() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("core: unknown experiment %q", id)
}

// Bench exposes a cheap simulation for the benchmark harness: it simulates
// one workload at one design point, exercising the whole
// workloads→aladdin stack.
func Bench(abbrev string, d aladdin.Design) (aladdin.Result, error) {
	spec, err := workloads.ByAbbrev(abbrev)
	if err != nil {
		return aladdin.Result{}, err
	}
	g, err := spec.Build(0)
	if err != nil {
		return aladdin.Result{}, err
	}
	return aladdin.Simulate(g, d)
}
