// Package budget implements the paper's transistor budget models
// (Section III).
//
// Two models are fitted from the chip-datasheet corpus:
//
//   - The area model (Figure 3b): transistor count as a function of the
//     density factor D = Area/Node² [mm²/nm²], fitted as the power law
//     TC(D) = A·D^B by logarithmic regression. Empirically B < 1 — count
//     scales sub-linearly in D because "for larger chips the design
//     complexity makes it harder to fully-utilize the chip".
//
//   - The power model (Figure 3c): TC[1e9]·f[GHz] as a function of TDP,
//     fitted per node era. Power limitations restrict the fraction of
//     active transistors (dark silicon), so given a TDP, node, and
//     frequency the model yields the number of transistors a chip can
//     actually keep switching.
//
// A Model combines both and is the "CMOS potential" input the chip-gain
// model consumes.
package budget

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"accelwall/internal/chipdb"
	"accelwall/internal/cmos"
	"accelwall/internal/stats"
)

// ErrNoEraData is returned when a corpus lacks chips for a requested era.
var ErrNoEraData = errors.New("budget: no corpus data for era")

// EraFit is the fitted Figure 3c curve of one node era:
// TC[1e9]·f[GHz] = Curve.A · TDP^Curve.B.
type EraFit struct {
	Era   cmos.Era
	Curve stats.PowerLaw
	N     int // number of corpus chips behind the fit
}

// Model is the fitted transistor budget model.
type Model struct {
	// TC is the Figure 3b area model TC(D) = A·D^B (absolute transistors).
	TC stats.PowerLaw
	// ByEra holds the Figure 3c power model per node era.
	ByEra map[cmos.Era]EraFit
}

// Fit builds the budget model from a datasheet corpus. The corpus must
// contain at least two chips overall and at least two chips in every era it
// covers; eras with no chips are simply absent from ByEra.
func Fit(c *chipdb.Corpus) (*Model, error) {
	p, err := Compile(c)
	if err != nil {
		return nil, err
	}
	return p.Fit(nil, nil)
}

// Compiled is a corpus prepared for repeated fits, so that a bootstrap
// resample is an index draw rather than a chip copy. It is immutable and
// safe for concurrent Fit calls.
type Compiled struct {
	chips []fitChip
}

// fitChip is one chip's fit inputs, stored together so a draw reads one record.
type fitChip struct {
	logD, logTC    float64  // Figure 3b: ln D and ln TC
	logTDP, logTCf float64  // Figure 3c: ln TDP and ln TC·f
	era            cmos.Era // noEra outside the modeled range
}

// noEra marks a node outside the modeled eras, which ByEra skips.
const noEra cmos.Era = -1

// Compile takes the per-chip logarithms and eras of a corpus. It rejects a
// corpus of fewer than two chips, and a non-positive observation on either
// regression, which no sample holding that chip could fit.
func Compile(c *chipdb.Corpus) (*Compiled, error) {
	if c == nil || c.Len() < 2 {
		return nil, fmt.Errorf("budget: corpus too small to fit (%d chips)", corpusLen(c))
	}
	p := &Compiled{chips: make([]fitChip, c.Len())}
	for i, ch := range c.Chips {
		era, err := cmos.EraOf(ch.NodeNM)
		if err != nil {
			era = noEra
		}
		d, tc, tdp, tcf := ch.DensityFactor(), ch.Transistors, ch.TDPW, ch.TCf()
		if d <= 0 || tc <= 0 || era != noEra && (tdp <= 0 || tcf <= 0) {
			return nil, fmt.Errorf("%w: chip %q has a non-positive fit observation", stats.ErrDomain, ch.Name)
		}
		p.chips[i] = fitChip{math.Log(d), math.Log(tc), math.Log(tdp), math.Log(tcf), era}
	}
	return p, nil
}

// FitScratch holds one goroutine's gather buffers across Compiled.Fit calls.
type FitScratch struct {
	x, y       []float64
	eraX, eraY [int(cmos.Era10to5) + 1][]float64
}

// Fit fits the sample that idx selects (chip indices, repeats allowed; nil
// selects the whole corpus). It is bit-identical to fitting the gathered
// chips: gathered logs equal logs of gathered values, and eras are bucketed
// in one pass that keeps sample order, so every sum keeps its order. s may
// be nil.
func (p *Compiled) Fit(idx []int, s *FitScratch) (*Model, error) {
	if s == nil {
		s = &FitScratch{}
	}
	if idx == nil {
		idx = make([]int, len(p.chips))
		for i := range idx {
			idx[i] = i
		}
	}
	s.x, s.y = s.x[:0], s.y[:0]
	for e := range s.eraX {
		s.eraX[e], s.eraY[e] = s.eraX[e][:0], s.eraY[e][:0]
	}
	for _, i := range idx {
		f := &p.chips[i]
		s.x, s.y = append(s.x, f.logD), append(s.y, f.logTC)
		if f.era != noEra {
			s.eraX[f.era], s.eraY[f.era] = append(s.eraX[f.era], f.logTDP), append(s.eraY[f.era], f.logTCf)
		}
	}
	tc, err := stats.FitPowerLawLogs(s.x, s.y)
	if err != nil {
		return nil, fmt.Errorf("budget: fitting area model: %w", err)
	}
	m := &Model{TC: tc, ByEra: make(map[cmos.Era]EraFit)}
	for era, ex := range s.eraX {
		if len(ex) == 0 {
			continue
		}
		curve, err := stats.FitPowerLawLogs(ex, s.eraY[era])
		if err != nil {
			return nil, fmt.Errorf("budget: fitting power model for era %v: %w", cmos.Era(era), err)
		}
		m.ByEra[cmos.Era(era)] = EraFit{Era: cmos.Era(era), Curve: curve, N: len(ex)}
	}
	return m, nil
}

func corpusLen(c *chipdb.Corpus) int {
	if c == nil {
		return 0
	}
	return c.Len()
}

// Published returns a budget model carrying the regression constants printed
// in the paper instead of corpus-fitted ones: TC(D) = 4.99e9·D^0.877 and the
// four Figure 3c curves. It is the reference model used when reproducing
// downstream figures exactly.
func Published() *Model {
	m := &Model{
		TC:    stats.PowerLaw{A: chipdb.TCFitA, B: chipdb.TCFitB},
		ByEra: make(map[cmos.Era]EraFit),
	}
	for _, f := range chipdb.PublishedTCfTDP {
		m.ByEra[f.Era] = EraFit{Era: f.Era, Curve: stats.PowerLaw{A: f.A, B: f.B}}
	}
	// The oldest era uses the extrapolated curve (the paper plots Figure 3c
	// only from 55 nm down).
	m.ByEra[cmos.Era180to90] = EraFit{Era: cmos.Era180to90, Curve: stats.PowerLaw{A: chipdb.Era180Curve.A, B: chipdb.Era180Curve.B}}
	return m
}

// TransistorsFromArea estimates the transistor count of a chip with the
// given die area fabricated at the given node, via the Figure 3b area model.
func (m *Model) TransistorsFromArea(nodeNM, dieMM2 float64) (float64, error) {
	if nodeNM <= 0 || dieMM2 <= 0 {
		return 0, fmt.Errorf("budget: non-positive node (%g) or area (%g)", nodeNM, dieMM2)
	}
	d := dieMM2 / (nodeNM * nodeNM)
	return m.TC.Eval(d), nil
}

// eraFitFor resolves the power-model curve for a node, falling back to the
// nearest covered era when the node's own era is missing from the corpus.
func (m *Model) eraFitFor(nodeNM float64) (EraFit, error) {
	era, err := cmos.EraOf(nodeNM)
	if err != nil {
		return EraFit{}, err
	}
	if f, ok := m.ByEra[era]; ok {
		return f, nil
	}
	// Nearest covered era by enum distance; ties resolve to the older era
	// (conservative: older curves yield fewer active transistors).
	var candidates []cmos.Era
	for e := range m.ByEra {
		candidates = append(candidates, e)
	}
	if len(candidates) == 0 {
		return EraFit{}, fmt.Errorf("%w: %v (model has no era fits)", ErrNoEraData, era)
	}
	sort.Slice(candidates, func(i, j int) bool {
		di := absInt(int(candidates[i]) - int(era))
		dj := absInt(int(candidates[j]) - int(era))
		if di != dj {
			return di < dj
		}
		return candidates[i] < candidates[j]
	})
	return m.ByEra[candidates[0]], nil
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// ActiveTransistors returns the number of transistors a chip at the given
// node can keep active under the TDP envelope while running at freqGHz,
// derived by inverting the era's Figure 3c curve:
//
//	TC = EraCurve(TDP) / f   (in 1e9 units, converted to absolute)
//
// This is the paper's procedure: "Given the TDP, CMOS node, and frequency,
// we use our model to derive the number of active chip transistors."
func (m *Model) ActiveTransistors(nodeNM, tdpW, freqGHz float64) (float64, error) {
	if tdpW <= 0 || freqGHz <= 0 {
		return 0, fmt.Errorf("budget: non-positive TDP (%g) or frequency (%g)", tdpW, freqGHz)
	}
	fit, err := m.eraFitFor(nodeNM)
	if err != nil {
		return 0, err
	}
	return fit.Curve.Eval(tdpW) / freqGHz * 1e9, nil
}

// BudgetTransistors returns the effective transistor budget of a chip: the
// area-limited count capped by the power-limited active count. This is the
// quantity the chip-gain model treats as the usable physical budget.
func (m *Model) BudgetTransistors(nodeNM, dieMM2, tdpW, freqGHz float64) (float64, error) {
	area, err := m.TransistorsFromArea(nodeNM, dieMM2)
	if err != nil {
		return 0, err
	}
	active, err := m.ActiveTransistors(nodeNM, tdpW, freqGHz)
	if err != nil {
		return 0, err
	}
	if active < area {
		return active, nil
	}
	return area, nil
}

// PowerCapped reports whether a chip configuration is limited by its TDP
// envelope rather than by its die area.
func (m *Model) PowerCapped(nodeNM, dieMM2, tdpW, freqGHz float64) (bool, error) {
	area, err := m.TransistorsFromArea(nodeNM, dieMM2)
	if err != nil {
		return false, err
	}
	active, err := m.ActiveTransistors(nodeNM, tdpW, freqGHz)
	if err != nil {
		return false, err
	}
	return active < area, nil
}

// Fig3bRow is one sample of the Figure 3b scatter/fit: a corpus chip's
// density factor and transistor count with its era label, plus the model
// prediction at that density factor.
type Fig3bRow struct {
	Era       cmos.Era
	D         float64 // density factor, mm²/nm²
	TC        float64 // datasheet transistor count
	Predicted float64 // TC(D) from the fitted model
}

// Fig3b reproduces the data behind Figure 3b from a corpus: every chip's
// (D, TC) point plus the fitted curve evaluated at that D. The fitted model
// itself is returned alongside so callers can print the
// "TC(D) = A·D^B" annotation.
func Fig3b(c *chipdb.Corpus) ([]Fig3bRow, stats.PowerLaw, error) {
	m, err := Fit(c)
	if err != nil {
		return nil, stats.PowerLaw{}, err
	}
	rows := make([]Fig3bRow, 0, c.Len())
	for _, ch := range c.Chips {
		era, err := cmos.EraOf(ch.NodeNM)
		if err != nil {
			continue
		}
		d := ch.DensityFactor()
		rows = append(rows, Fig3bRow{Era: era, D: d, TC: ch.Transistors, Predicted: m.TC.Eval(d)})
	}
	return rows, m.TC, nil
}

// Fig3cRow is one fitted curve of Figure 3c.
type Fig3cRow struct {
	Era        cmos.Era
	Curve      stats.PowerLaw
	N          int  // corpus chips behind the fit
	Projection bool // true for the 10-5 nm group, which the paper marks as a projection
}

// Fig3c reproduces the fitted curves of Figure 3c from a corpus, oldest era
// first.
func Fig3c(c *chipdb.Corpus) ([]Fig3cRow, error) {
	m, err := Fit(c)
	if err != nil {
		return nil, err
	}
	eras := cmos.Eras()
	rows := make([]Fig3cRow, 0, len(eras))
	for _, era := range eras {
		f, ok := m.ByEra[era]
		if !ok {
			continue
		}
		rows = append(rows, Fig3cRow{
			Era:        era,
			Curve:      f.Curve,
			N:          f.N,
			Projection: era == cmos.Era10to5,
		})
	}
	return rows, nil
}

// DarkFraction returns the fraction of a chip's area-limited transistors
// that its TDP envelope forces dark (inactive): the dark-silicon share of
// the design. Area-limited chips return 0.
//
// The paper motivates specialization with dark silicon ("power limitations
// restrict the fraction of active chip transistors to keep dissipation
// rates within a TDP envelope"); this quantifies it per configuration.
func (m *Model) DarkFraction(nodeNM, dieMM2, tdpW, freqGHz float64) (float64, error) {
	area, err := m.TransistorsFromArea(nodeNM, dieMM2)
	if err != nil {
		return 0, err
	}
	active, err := m.ActiveTransistors(nodeNM, tdpW, freqGHz)
	if err != nil {
		return 0, err
	}
	if active >= area {
		return 0, nil
	}
	return 1 - active/area, nil
}

// DarkSiliconRow is one cell of the dark-silicon table: the dark fraction
// of a (node, die) chip under a TDP envelope at 1 GHz.
type DarkSiliconRow struct {
	NodeNM float64
	DieMM2 float64
	TDPW   float64
	Dark   float64 // fraction in [0, 1)
}

// DarkSilicon evaluates the dark fraction over a node × die grid at the
// given TDP and 1 GHz — an extension table showing how the usable share of
// the transistor budget collapses toward the final nodes.
func (m *Model) DarkSilicon(nodes, dies []float64, tdpW float64) ([]DarkSiliconRow, error) {
	var rows []DarkSiliconRow
	for _, n := range nodes {
		for _, die := range dies {
			d, err := m.DarkFraction(n, die, tdpW, 1)
			if err != nil {
				return nil, err
			}
			rows = append(rows, DarkSiliconRow{NodeNM: n, DieMM2: die, TDPW: tdpW, Dark: d})
		}
	}
	return rows, nil
}
