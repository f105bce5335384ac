package casestudy

import (
	"fmt"

	"accelwall/internal/chipdb"
	"accelwall/internal/csr"
	"accelwall/internal/gains"
)

// Miner is one Bitcoin mining chip record (Section IV-D). The performance
// metric is SHA256 hashing throughput per chip area, "as it is a better
// indicator of chip performance than absolute throughput" given how widely
// miner products vary in chip count.
type Miner struct {
	Name       string
	Kind       chipdb.Kind
	Year       float64 // fractional introduction date
	NodeNM     float64
	FreqGHz    float64
	PerfGHsMM2 float64 // GHash/s per mm²
	EffGHsJ    float64 // GHash per joule
}

// Miners returns the mining dataset: one CPU, GPU and FPGA generation plus
// the ASIC progression from 130 nm (late 2012) to 16 nm (2016), modeled on
// the Bitcoin-wiki miner databases the paper scraped. Gain magnitudes match
// the reported aggregates: ASIC performance per area ~600× across ASICs and
// ~600,000× over the baseline CPU miner, with transistor performance
// improving ~300× across ASICs (Figures 1 and 9). The slice is built once
// and shared: callers must not modify it.
func Miners() []Miner { return miners }

// miners is the mining dataset, built once from its literal.
var miners = minerRecords()

// minerRecords builds the mining dataset.
func minerRecords() []Miner {
	return []Miner{
		{Name: "Athlon64-CPU", Kind: chipdb.CPU, Year: 2009.0, NodeNM: 130, FreqGHz: 2.0, PerfGHsMM2: 8e-6, EffGHsJ: 5e-6},
		{Name: "HD5870-GPU", Kind: chipdb.GPU, Year: 2010.5, NodeNM: 40, FreqGHz: 0.85, PerfGHsMM2: 1e-3, EffGHsJ: 2e-3},
		{Name: "Spartan6-FPGA", Kind: chipdb.FPGA, Year: 2011.3, NodeNM: 45, FreqGHz: 0.20, PerfGHsMM2: 3e-3, EffGHsJ: 1.3e-2},
		{Name: "ASIC-130nm", Kind: chipdb.ASIC, Year: 2012.9, NodeNM: 130, FreqGHz: 0.30, PerfGHsMM2: 0.008, EffGHsJ: 0.060},
		{Name: "ASIC-110nm", Kind: chipdb.ASIC, Year: 2013.1, NodeNM: 110, FreqGHz: 0.282, PerfGHsMM2: 0.016, EffGHsJ: 0.120},
		{Name: "ASIC-55nm", Kind: chipdb.ASIC, Year: 2013.6, NodeNM: 55, FreqGHz: 0.60, PerfGHsMM2: 0.10, EffGHsJ: 0.26},
		{Name: "ASIC-28nm-a", Kind: chipdb.ASIC, Year: 2014.3, NodeNM: 28, FreqGHz: 0.70, PerfGHsMM2: 0.55, EffGHsJ: 0.35},
		{Name: "ASIC-28nm-b", Kind: chipdb.ASIC, Year: 2015.0, NodeNM: 28, FreqGHz: 0.75, PerfGHsMM2: 0.75, EffGHsJ: 0.70},
		{Name: "ASIC-28nm-c", Kind: chipdb.ASIC, Year: 2015.5, NodeNM: 28, FreqGHz: 0.80, PerfGHsMM2: 0.95, EffGHsJ: 0.95},
		{Name: "ASIC-16nm-a", Kind: chipdb.ASIC, Year: 2016.0, NodeNM: 16, FreqGHz: 1.20, PerfGHsMM2: 3.0, EffGHsJ: 1.25},
		{Name: "ASIC-16nm-b", Kind: chipdb.ASIC, Year: 2016.5, NodeNM: 16, FreqGHz: 1.40, PerfGHsMM2: 4.8, EffGHsJ: 1.40},
	}
}

// observation converts a miner to a CSR observation for the given target.
// Die size and TDP are irrelevant to the per-area device-potential model
// but must be positive for validation; nominal values are used.
func (m Miner) observation(target gains.Target) csr.Observation {
	gain := m.PerfGHsMM2
	if target == gains.TargetEfficiency {
		gain = m.EffGHsJ
	}
	return csr.Observation{
		Name: m.Name,
		Year: m.Year,
		Chip: gains.Config{NodeNM: m.NodeNM, DieMM2: 25, TDPW: 50, FreqGHz: m.FreqGHz},
		Gain: gain,
	}
}

// BitcoinObservations returns the full dataset as CSR observations for the
// given target, in chronological order.
func BitcoinObservations(target gains.Target) []csr.Observation {
	miners := Miners()
	out := make([]csr.Observation, 0, len(miners))
	for _, m := range miners {
		out = append(out, m.observation(target))
	}
	return out
}

// Fig1Row is one point of Figure 1: a mining ASIC's relative performance,
// the transistor-performance curve (CMOS-driven potential), and the CSR.
type Fig1Row struct {
	Name                  string
	Year                  float64
	NodeNM                float64
	RelPerformance        float64 // normalized to the 130 nm ASIC
	TransistorPerformance float64 // CMOS potential, normalized likewise
	CSR                   float64
}

// Fig1 reproduces the Bitcoin ASIC evolution of Figure 1: performance per
// area, transistor performance, and chip-specialization return, normalized
// to the first (130 nm) ASIC.
func Fig1() ([]Fig1Row, error) {
	miners := Miners()
	var obs []csr.Observation
	var meta []Miner
	for _, m := range miners {
		if m.Kind == chipdb.ASIC {
			obs = append(obs, m.observation(gains.TargetThroughput))
			meta = append(meta, m)
		}
	}
	rows, err := csr.Analyze(DevicePotential{}, gains.TargetThroughput, obs, 0)
	if err != nil {
		return nil, fmt.Errorf("casestudy: fig1: %w", err)
	}
	out := make([]Fig1Row, len(rows))
	for i, r := range rows {
		out[i] = Fig1Row{
			Name:                  r.Name,
			Year:                  r.Year,
			NodeNM:                meta[i].NodeNM,
			RelPerformance:        r.Gain,
			TransistorPerformance: r.PhysicalGain,
			CSR:                   r.CSR,
		}
	}
	return out, nil
}

// Fig9Row is one chip of Figure 9: relative gain and CSR versus the
// baseline CPU miner, for one target function.
type Fig9Row struct {
	Name    string
	Kind    chipdb.Kind
	Year    float64
	NodeNM  float64
	RelGain float64
	CSR     float64
}

// Fig9 reproduces the cross-platform mining study of Figure 9 for the given
// target function (performance per area or energy efficiency), normalized
// to the AMD Athlon 64 CPU miner.
func Fig9(target gains.Target) ([]Fig9Row, error) {
	return Fig9With(DevicePotential{}, target)
}

// Fig9With is Fig9 evaluated against a caller-supplied device-potential
// model, so the Monte Carlo uncertainty engine can rerun the study under a
// jittered scaling table.
func Fig9With(dev DevicePotential, target gains.Target) ([]Fig9Row, error) {
	obs := BitcoinObservations(target)
	rows, err := csr.Analyze(dev, target, obs, 0)
	if err != nil {
		return nil, fmt.Errorf("casestudy: fig9: %w", err)
	}
	miners := Miners()
	out := make([]Fig9Row, len(rows))
	for i, r := range rows {
		out[i] = Fig9Row{
			Name:    r.Name,
			Kind:    miners[i].Kind,
			Year:    r.Year,
			NodeNM:  miners[i].NodeNM,
			RelGain: r.Gain,
			CSR:     r.CSR,
		}
	}
	return out, nil
}

// ASICBoostYear is when the ASICBoost optimization became available:
// Section IV-E cites it as the lone algorithmic innovation in the confined
// Bitcoin domain, "a one-time 20% improvement by parallelizing the inner
// and outer loops in the algorithm".
const ASICBoostYear = 2016.0

// asicBoostFactor is the one-time improvement ASICBoost delivers.
const asicBoostFactor = 1.20

// Fig1ASICBoost replays the Figure 1 analysis in a counterfactual where
// every miner introduced from ASICBoostYear onward adopts ASICBoost. The
// physical potential is untouched, so the entire 20% lands in CSR — once.
// This extension illustrates the paper's point that algorithmic innovation
// in a confined domain shifts the specialization return by a constant
// factor rather than changing its growth rate.
func Fig1ASICBoost() ([]Fig1Row, error) {
	rows, err := Fig1()
	if err != nil {
		return nil, err
	}
	for i := range rows {
		if rows[i].Year >= ASICBoostYear {
			rows[i].RelPerformance *= asicBoostFactor
			rows[i].CSR *= asicBoostFactor
		}
	}
	return rows, nil
}
