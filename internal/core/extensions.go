package core

import (
	"errors"
	"fmt"
	"text/tabwriter"

	"accelwall/internal/aladdin"
	"accelwall/internal/casestudy"
	"accelwall/internal/gains"
	"accelwall/internal/projection"
	"accelwall/internal/stats"
	"accelwall/internal/sweep"
	"accelwall/internal/workloads"
)

// ExtDarkSilicon renders the dark-silicon extension: the fraction of the
// area transistor budget a TDP envelope forces inactive, across the
// Figure 3d node/die grid. It quantifies the paper's motivating premise
// ("power limitations restrict the fraction of active chip transistors").
func (s *Study) ExtDarkSilicon() (string, error) {
	rows, err := s.Budget.DarkSilicon(gains.Fig3dNodes(), gains.Fig3dDies(), 150)
	if err != nil {
		return "", err
	}
	return table("node\tdie[mm2]\tTDP[W]\tdark fraction", func(w *tabwriter.Writer) {
		for _, r := range rows {
			fmt.Fprintf(w, "%gnm\t%g\t%g\t%.0f%%\n", r.NodeNM, r.DieMM2, r.TDPW, r.Dark*100)
		}
	}), nil
}

// ExtSustain renders the post-wall sustainability extension: each domain's
// historical compound growth, how many years the wall headroom sustains
// it, and the CSR growth that would be required afterwards.
func (s *Study) ExtSustain() (string, error) {
	var out string
	for _, target := range []gains.Target{gains.TargetThroughput, gains.TargetEfficiency} {
		rows, err := projection.SustainabilityAll(target)
		if err != nil {
			return "", err
		}
		out += table(fmt.Sprintf("[%s]\ndomain\tCAGR\tyears-left(log)\tyears-left(linear)\trequired CSR/yr\tobserved CSR/yr", target), func(w *tabwriter.Writer) {
			for _, r := range rows {
				fmt.Fprintf(w, "%s\t%.0f%%\t%.1f\t%.1f\t%.0f%%\t%.1f%%\n",
					r.Domain, r.HistoricalCAGR*100, r.YearsLeftLog, r.YearsLeftLinear,
					r.RequiredCSRGrowth*100, r.ObservedCSRGrowth*100)
			}
		})
	}
	return out, nil
}

// ExtASICBoost renders the ASICBoost counterfactual: the Figure 1 series
// with the one-time 20% algorithmic gain applied from 2016 onward.
func (s *Study) ExtASICBoost() (string, error) {
	rows, err := casestudy.Fig1ASICBoost()
	if err != nil {
		return "", err
	}
	return table("chip\tyear\tperf[x]\ttransistor-perf[x]\tCSR[x]\tboosted", func(w *tabwriter.Writer) {
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\t%.2f\t%v\n",
				r.Name, r.Year, r.RelPerformance, r.TransistorPerformance, r.CSR, r.Year >= casestudy.ASICBoostYear)
		}
	}), nil
}

// ExtFitCI renders bootstrap confidence intervals for the Figure 3b area
// model fitted on the corpus — the fit-stability view behind the
// corpus-size ablation.
func (s *Study) ExtFitCI() (string, error) {
	if s.Corpus == nil {
		return "", errors.New("core: ExtFitCI requires a datasheet corpus (use New, not NewPublished)")
	}
	xs := make([]float64, 0, s.Corpus.Len())
	ys := make([]float64, 0, s.Corpus.Len())
	for _, ch := range s.Corpus.Chips {
		xs = append(xs, ch.DensityFactor())
		ys = append(ys, ch.Transistors)
	}
	ci, err := stats.BootstrapPowerLaw(xs, ys, 200, 0.95, 1)
	if err != nil {
		return "", err
	}
	fit, err := stats.FitPowerLaw(xs, ys)
	if err != nil {
		return "", err
	}
	rho, err := stats.Spearman(xs, ys)
	if err != nil {
		return "", err
	}
	return table("quantity\tpoint\t95% CI\treference", func(w *tabwriter.Writer) {
		fmt.Fprintf(w, "coefficient A\t%.3g\t%s\t4.99e9 (paper)\n", fit.A, ci.A)
		fmt.Fprintf(w, "exponent B\t%.4f\t%s\t0.877 (paper)\n", fit.B, ci.B)
		fmt.Fprintf(w, "Spearman rho\t%.4f\t\tmonotone density-count relation\n", rho)
	}), nil
}

// ExtAlgorithms renders the algorithm-innovation extension: for each
// implemented algorithm variant (Strassen GMM, Winograd stencil, radix-4
// FFT), base and variant are simulated at identical design points on the
// same CMOS node, so the reported ratios are pure algorithmic CSR -- the
// "Algorithm" layer of the Figure 2 specialization stack, the lever the
// paper identifies as the only one left once CMOS scaling ends.
func (s *Study) ExtAlgorithms() (string, error) {
	design := aladdin.Design{NodeNM: 7, Partition: 256, Simplification: 4, Fusion: true}
	type row struct {
		name          string
		baseRT, varRT float64
		baseE, varE   float64
	}
	var rows []row
	for _, v := range workloads.Variants() {
		baseSpec, err := workloads.ByAbbrev(v.Base)
		if err != nil {
			return "", err
		}
		baseGraph, err := baseSpec.Build(0)
		if err != nil {
			return "", err
		}
		varGraph, err := v.Build(0)
		if err != nil {
			return "", err
		}
		rb, err := aladdin.Simulate(baseGraph, design)
		if err != nil {
			return "", err
		}
		rv, err := aladdin.Simulate(varGraph, design)
		if err != nil {
			return "", err
		}
		rows = append(rows, row{v.Base + "/" + v.Name, rb.RuntimeNS, rv.RuntimeNS, rb.Energy, rv.Energy})
	}
	return table("variant\truntime base/var [ns]\tenergy base/var\tspeedup CSR\tenergy CSR", func(w *tabwriter.Writer) {
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.1f / %.1f\t%.0f / %.0f\t%.2fx\t%.2fx\n",
				r.name, r.baseRT, r.varRT, r.baseE, r.varE, r.baseRT/r.varRT, r.baseE/r.varE)
		}
	}), nil
}

// ExtDomainKernels renders the domain-kernel extension: the Section VI
// attribution machinery applied to concrete kernels of the Section IV
// domains themselves (SHA-256 double hashing, 8x8 IDCT, a shading
// kernel). The confined SHA-256 kernel shows the largest partitioning
// share and the smallest CMOS-independent return, quantifying why mining
// hits the wall first.
func (s *Study) ExtDomainKernels() (string, error) {
	type row struct {
		name string
		perf sweep.Attribution
		eff  sweep.Attribution
	}
	var rows []row
	for _, k := range workloads.DomainKernels() {
		g, err := k.Build(0)
		if err != nil {
			return "", err
		}
		// Both objectives read one engine: the grid compiles and
		// simulates once per kernel.
		eng, err := sweep.NewEngine(g)
		if err != nil {
			return "", err
		}
		perf, err := eng.Attribute(s.ctx(), k.Name, s.Sweep, sweep.Performance, s.Workers)
		if err != nil {
			return "", err
		}
		eff, err := eng.Attribute(s.ctx(), k.Name, s.Sweep, sweep.Efficiency, s.Workers)
		if err != nil {
			return "", err
		}
		rows = append(rows, row{k.Domain + "/" + k.Name, perf, eff})
	}
	return table("kernel\tperf gain\tperf CSR\tperf %part\teff gain\teff CSR\teff %CMOS", func(w *tabwriter.Writer) {
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%.0fx\t%.2fx\t%.0f%%\t%.0fx\t%.2fx\t%.0f%%\n",
				r.name, r.perf.Total, r.perf.CSR, r.perf.PctPartitioning,
				r.eff.Total, r.eff.CSR, r.eff.PctCMOS)
		}
	}), nil
}

// ExtSensitivity renders the Monte-Carlo robustness extension: headroom
// quantiles under jittered observations and a perturbed 5 nm limit. The
// wall conclusion survives the noise in every domain.
func (s *Study) ExtSensitivity() (string, error) {
	var out string
	for _, target := range []gains.Target{gains.TargetThroughput, gains.TargetEfficiency} {
		rows, err := projection.SensitizeAll(target, projection.SensitivityConfig{Trials: 200, Seed: 1})
		if err != nil {
			return "", err
		}
		out += table(fmt.Sprintf("[%s]\ndomain\tpoint (log-linear)\tmedian\t90%% interval", target), func(w *tabwriter.Writer) {
			for _, r := range rows {
				fmt.Fprintf(w, "%s\t%.1f-%.1fx\t%.1f-%.1fx\t[%.1f, %.1f]x\n",
					r.Domain, r.PointLog, r.PointLinear, r.LogMedian, r.LinearMedian, r.LinearQ05, r.LinearQ95)
			}
		})
	}
	return out, nil
}

// Extensions returns the beyond-the-paper analyses: quantifications the
// paper motivates but does not plot.
func Extensions() []Experiment {
	return []Experiment{
		{ID: "ext-dark", Title: "Dark Silicon Fractions (extension)", Run: (*Study).ExtDarkSilicon},
		{ID: "ext-sustain", Title: "Post-Wall Sustainability (extension)", Run: (*Study).ExtSustain},
		{ID: "ext-asicboost", Title: "ASICBoost Counterfactual (extension)", Run: (*Study).ExtASICBoost},
		{ID: "ext-fit-ci", Title: "Fit Confidence Intervals (extension)", Run: (*Study).ExtFitCI},
		{ID: "ext-algo", Title: "Algorithmic Innovation CSR (extension)", Run: (*Study).ExtAlgorithms},
		{ID: "ext-domains", Title: "Domain Kernel Attribution (extension)", Run: (*Study).ExtDomainKernels},
		{ID: "ext-sensitivity", Title: "Wall Robustness Monte Carlo (extension)", Run: (*Study).ExtSensitivity},
	}
}
