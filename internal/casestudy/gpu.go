package casestudy

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"

	"accelwall/internal/csr"
	"accelwall/internal/gains"
	"accelwall/internal/stats"
)

// GPUChip is one graphics processor of the Section IV-B study: a GPU
// microarchitecture implemented on a CMOS node, with the physical
// parameters the CMOS potential model consumes. HighEnd distinguishes the
// flagship parts (opaque markers in Figure 5) from mid/low-end parts
// (translucent markers).
type GPUChip struct {
	Name    string
	Arch    string // microarchitecture family (Tesla, Fermi, Kepler, ...)
	NodeNM  float64
	Year    float64
	DieMM2  float64
	TDPW    float64
	FreqGHz float64
	HighEnd bool
}

// archReturn holds the specialization-return factors of one architecture
// implementation — the quantity Figures 6 and 7 recover. First
// implementations on a new node carry depressed factors ("the first
// architectures to be implemented on a new CMOS node always seem to
// perform worse than their predecessors on the old node"), maturing
// implementations recover, and the 16 nm Pascal lands roughly where the
// 65 nm Tesla started.
type archReturn struct {
	perf float64
	eff  float64
}

// gpuArchReturns maps "Arch@node" keys to their specialization returns.
var gpuArchReturns = map[string]archReturn{
	"Tesla@65":       {perf: 1.00, eff: 1.00},
	"Tesla 2@65":     {perf: 1.08, eff: 1.05},
	"Tesla 2@55":     {perf: 1.02, eff: 1.00}, // node-transition dip
	"Fermi@40":       {perf: 0.85, eff: 0.80}, // node-transition dip
	"Fermi 2@40":     {perf: 1.00, eff: 0.95},
	"TeraScale 2@40": {perf: 0.95, eff: 1.00},
	"GCN 1@28":       {perf: 0.92, eff: 0.95}, // node-transition dip
	"Kepler@28":      {perf: 1.00, eff: 1.10},
	"GCN 2@28":       {perf: 1.05, eff: 1.00},
	"Maxwell 2@28":   {perf: 1.25, eff: 1.45},
	"Pascal@16":      {perf: 1.00, eff: 1.10}, // node-transition dip; ≈ Tesla@65
}

// GPUChips returns the GPU dataset: flagship chips for every architecture
// of Figures 6/7 (2008–2017) plus the mid-range parts that populate the
// translucent markers of Figure 5. The slice is built once and shared:
// callers must not modify it.
func GPUChips() []GPUChip { return gpuChips }

// gpuChips is the GPU dataset, built once from its literal.
var gpuChips = gpuRecords()

// gpuRecords builds the GPU dataset.
func gpuRecords() []GPUChip {
	return []GPUChip{
		{Name: "GTX 280", Arch: "Tesla", NodeNM: 65, Year: 2008.5, DieMM2: 576, TDPW: 236, FreqGHz: 0.60, HighEnd: true},
		{Name: "GTX 285", Arch: "Tesla 2", NodeNM: 65, Year: 2008.8, DieMM2: 520, TDPW: 220, FreqGHz: 0.62, HighEnd: true},
		{Name: "GTX 285B", Arch: "Tesla 2", NodeNM: 55, Year: 2009.2, DieMM2: 470, TDPW: 204, FreqGHz: 0.65, HighEnd: true},
		{Name: "GTX 480", Arch: "Fermi", NodeNM: 40, Year: 2010.2, DieMM2: 529, TDPW: 250, FreqGHz: 0.70, HighEnd: true},
		{Name: "HD 6970", Arch: "TeraScale 2", NodeNM: 40, Year: 2010.6, DieMM2: 389, TDPW: 250, FreqGHz: 0.88, HighEnd: true},
		{Name: "GTX 580", Arch: "Fermi 2", NodeNM: 40, Year: 2011.0, DieMM2: 520, TDPW: 244, FreqGHz: 0.77, HighEnd: true},
		{Name: "GTX 560", Arch: "Fermi 2", NodeNM: 40, Year: 2011.3, DieMM2: 332, TDPW: 150, FreqGHz: 0.81, HighEnd: false},
		{Name: "HD 7970", Arch: "GCN 1", NodeNM: 28, Year: 2012.0, DieMM2: 352, TDPW: 250, FreqGHz: 0.93, HighEnd: true},
		{Name: "GTX 680", Arch: "Kepler", NodeNM: 28, Year: 2012.3, DieMM2: 294, TDPW: 195, FreqGHz: 1.06, HighEnd: true},
		{Name: "GTX 660", Arch: "Kepler", NodeNM: 28, Year: 2012.7, DieMM2: 221, TDPW: 140, FreqGHz: 0.98, HighEnd: false},
		{Name: "GTX 770", Arch: "Kepler", NodeNM: 28, Year: 2013.4, DieMM2: 294, TDPW: 230, FreqGHz: 1.08, HighEnd: true},
		{Name: "R9 290X", Arch: "GCN 2", NodeNM: 28, Year: 2013.8, DieMM2: 438, TDPW: 290, FreqGHz: 1.00, HighEnd: true},
		{Name: "GTX 750Ti", Arch: "Maxwell 2", NodeNM: 28, Year: 2014.2, DieMM2: 148, TDPW: 60, FreqGHz: 1.02, HighEnd: false},
		{Name: "GTX 980", Arch: "Maxwell 2", NodeNM: 28, Year: 2014.7, DieMM2: 398, TDPW: 165, FreqGHz: 1.13, HighEnd: true},
		{Name: "R9 380", Arch: "GCN 2", NodeNM: 28, Year: 2015.4, DieMM2: 359, TDPW: 190, FreqGHz: 0.97, HighEnd: false},
		{Name: "GTX 1080", Arch: "Pascal", NodeNM: 16, Year: 2016.4, DieMM2: 260, TDPW: 180, FreqGHz: 1.33, HighEnd: true},
		{Name: "GTX 1060", Arch: "Pascal", NodeNM: 16, Year: 2016.6, DieMM2: 200, TDPW: 120, FreqGHz: 1.40, HighEnd: false},
	}
}

// archKey returns the "Arch@node" identity of a chip's implementation.
func (c GPUChip) archKey() string { return fmt.Sprintf("%s@%d", c.Arch, int(c.NodeNM)) }

func (c GPUChip) config() gains.Config {
	return gains.Config{NodeNM: c.NodeNM, DieMM2: c.DieMM2, TDPW: c.TDPW, FreqGHz: c.FreqGHz}
}

// gpuModel is the CMOS potential model for the GPU study (default
// calibration: big power-hungry dies with substantial leakage).
func gpuModel() *gains.Model { return gains.NewModel(nil) }

// Fig5App describes one benchmark application of the GPU study, with its
// end-of-period specialization returns. PaperPanel marks the five
// applications Figure 5 plots; the remaining nineteen ("other applications
// show similar trends") participate in the Figures 6/7 relation matrix.
type Fig5App struct {
	Name        string
	FinalCSR    float64 // performance CSR at the end of the six-year span
	FinalCSREff float64 // energy-efficiency CSR at the end of the span
	PaperPanel  bool    // one of the five panels shown in Figure 5
}

// GPUApps returns the full 24-benchmark pool ("we have selected 24 popular
// game benchmarks"). The five Figure 5 panels carry the paper's reported
// final returns; the rest spread over the same 0.95–1.5 band.
func GPUApps() []Fig5App {
	apps := []Fig5App{
		{Name: "Crysis 3 FHD", FinalCSR: 0.95, FinalCSREff: 1.27, PaperPanel: true},
		{Name: "Battlefield 4 FHD", FinalCSR: 1.16, FinalCSREff: 0.99, PaperPanel: true},
		{Name: "Battlefield 4 QHD", FinalCSR: 1.14, FinalCSREff: 1.22, PaperPanel: true},
		{Name: "GTA V FHD", FinalCSR: 1.27, FinalCSREff: 1.20, PaperPanel: true},
		{Name: "GTA V FHD 99th perc.", FinalCSR: 1.44, FinalCSREff: 1.47, PaperPanel: true},
	}
	others := []string{
		"Portal 2 FHD", "Tomb Raider FHD", "BioShock Infinite FHD", "Metro Last Light FHD",
		"Far Cry 4 FHD", "Witcher 3 FHD", "Witcher 3 QHD", "Fallout 4 FHD",
		"Hitman FHD", "Doom FHD", "Overwatch FHD", "Ashes FHD",
		"Civilization VI FHD", "Deus Ex MD FHD", "Total War FHD", "Dirt Rally FHD",
		"Rainbow Six FHD", "Rise of TR QHD", "Shadow of Mordor QHD",
	}
	for i, name := range others {
		// Deterministic spread over the observed 0.95-1.5 CSR band.
		t := float64(i) / float64(len(others)-1)
		apps = append(apps, Fig5App{
			Name:        name,
			FinalCSR:    0.95 + 0.5*t,
			FinalCSREff: 1.0 + 0.45*(1-t),
		})
	}
	return apps
}

// Fig5Apps returns the five plotted applications of Figure 5.
func Fig5Apps() []Fig5App {
	var out []Fig5App
	for _, a := range GPUApps() {
		if a.PaperPanel {
			out = append(out, a)
		}
	}
	return out
}

// wobble derives a deterministic per-(chip, app) measurement perturbation
// in [0.97, 1.03], standing in for benchmark run noise.
func wobble(chip, app string) float64 {
	h := fnv.New32a()
	h.Write([]byte(chip))
	h.Write([]byte{0})
	h.Write([]byte(app))
	return 0.97 + 0.06*float64(h.Sum32()%1000)/999
}

// fig5Span is the benchmark window of Figure 5.
const (
	fig5Start = 2011.0
	fig5End   = 2016.4
)

// csrTrend interpolates an application's specialization return
// geometrically from 1 at the window start to final at the window end.
func csrTrend(final, year float64) float64 {
	t := (year - fig5Start) / (fig5End - fig5Start)
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	return math.Pow(final, t)
}

// FrameRate returns the modeled benchmark result of a chip on an
// application: frames per second for the throughput target, frames per
// joule for the efficiency target. Results compose the physical potential
// ratio against the 2011 baseline GPU with the application's
// specialization-return trend and measurement wobble — which is exactly the
// Equation 2 structure the Figure 5 analysis then recovers.
func FrameRate(m *gains.Model, target gains.Target, chip GPUChip, app Fig5App) (float64, error) {
	chips := GPUChips()
	base := fig5Baseline(chips)
	phys, err := m.Ratio(target, chip.config(), base.config())
	if err != nil {
		return 0, err
	}
	final := app.FinalCSR
	baseValue := 40.0 // fps of the baseline flagship
	if target == gains.TargetEfficiency {
		final = app.FinalCSREff
		baseValue = 0.18 // frames per joule of the baseline flagship
	}
	return baseValue * phys * csrTrend(final, chip.Year) * wobble(chip.Name, app.Name), nil
}

// fig5Baseline returns the oldest chip inside the Figure 5 window — the
// normalization chip ("normalized to the oldest GPU chip evaluated").
func fig5Baseline(chips []GPUChip) GPUChip {
	best := GPUChip{Year: 1e9}
	for _, c := range chips {
		if c.Year >= fig5Start && c.Year < best.Year {
			best = c
		}
	}
	return best
}

// Fig5Point is one GPU's benchmark result within an application series.
type Fig5Point struct {
	GPU     string
	Year    float64
	Rel     float64 // frame rate (or frames/J) relative to the baseline GPU
	CSR     float64
	HighEnd bool
}

// Fig5Series is one panel of Figure 5: an application's GPU results with
// quadratic trend curves for the absolute gain and the CSR.
type Fig5Series struct {
	App       Fig5App
	Target    gains.Target
	Points    []Fig5Point
	TrendRel  stats.Quadratic
	TrendCSR  stats.Quadratic
	TotalGain float64 // final flagship relative gain (the ×N annotation)
	FinalCSR  float64 // final flagship CSR (the ×M annotation)
}

// Fig5 reproduces Figure 5a (throughput) or 5b (energy efficiency): per
// application, the relative gains and CSR of every GPU in the 2011–2017
// window, with quadratic trend fits.
func Fig5(target gains.Target) ([]Fig5Series, error) {
	m := gpuModel()
	chips := GPUChips()
	var window []GPUChip
	for _, c := range chips {
		if c.Year >= fig5Start {
			window = append(window, c)
		}
	}
	sort.Slice(window, func(i, j int) bool { return window[i].Year < window[j].Year })
	var out []Fig5Series
	for _, app := range Fig5Apps() {
		obs := make([]csr.Observation, 0, len(window))
		for _, c := range window {
			v, err := FrameRate(m, target, c, app)
			if err != nil {
				return nil, fmt.Errorf("casestudy: fig5 %s on %s: %w", app.Name, c.Name, err)
			}
			obs = append(obs, csr.Observation{Name: c.Name, Year: c.Year, Chip: c.config(), Gain: v})
		}
		rows, err := csr.Analyze(m, target, obs, 0)
		if err != nil {
			return nil, fmt.Errorf("casestudy: fig5 %s: %w", app.Name, err)
		}
		series := Fig5Series{App: app, Target: target}
		var years, rels, csrs []float64
		for i, r := range rows {
			series.Points = append(series.Points, Fig5Point{
				GPU:     r.Name,
				Year:    r.Year,
				Rel:     r.Gain,
				CSR:     r.CSR,
				HighEnd: window[i].HighEnd,
			})
			years = append(years, r.Year)
			rels = append(rels, r.Gain)
			csrs = append(csrs, r.CSR)
			if window[i].HighEnd {
				series.TotalGain = r.Gain
				series.FinalCSR = r.CSR
			}
		}
		if series.TrendRel, err = stats.FitQuadratic(years, rels); err != nil {
			return nil, fmt.Errorf("casestudy: fig5 %s trend: %w", app.Name, err)
		}
		if series.TrendCSR, err = stats.FitQuadratic(years, csrs); err != nil {
			return nil, fmt.Errorf("casestudy: fig5 %s CSR trend: %w", app.Name, err)
		}
		out = append(out, series)
	}
	return out, nil
}

// appWindow returns the availability window of benchmark app i: games
// enter and leave the review-benchmark rotation over time, so older and
// newer architectures share only overlapping subsets — the reason the
// paper needs the Equation 4 transitive closure.
func appWindow(i int) (from, to float64) {
	return 2005 + 0.4*float64(i), 2011 + 0.4*float64(i)
}

// gpuPlan is the Figures 6/7 relation study compiled once: only each
// flagship's physical ratio to Tesla@65 depends on the gains model, so the
// app gain table's shape, the Equation 3 pairs and the order the Equation
// 4 closure adds the rest are constant. Evaluating the plan computes the
// float expressions csr.BuildRelations (threshold 5) computes over the
// gain table, in the same order, so it matches that reference bit for bit.
type gpuPlan struct {
	flagships []GPUChip  // earliest high-end chip per arch, in sorted "Arch@node" order
	tesla     int        // index of the Tesla@65 baseline
	apps      []planApp  // each flagship's in-window apps, by flagship then GPUApps order
	steps     []planStep // Equation 3 pairs in (x, y) order, then Equation 4 pairs in closure order
}

// planApp is one app gain, scale·phys·factor·wobble, where phys and the
// perf or eff factor belong to flagship arch.
type planApp struct {
	arch                     int
	scale, wobble, perf, eff float64
}

// planStep sets rel[at] (at = x·n+y) to the geometric mean over k of
// appGains[a[k]]/appGains[b[k]] for an Equation 3 step, in shared-app name
// order, or of rel[a[k]]·rel[b[k]] for an Equation 4 step, in via order.
type planStep struct {
	at     int
	a, b   []int
	direct bool
}

var gpuRelations = sync.OnceValues(compileGPUPlan)

func compileGPUPlan() (*gpuPlan, error) {
	byKey := make(map[string]GPUChip)
	for _, c := range GPUChips() {
		if prev, ok := byKey[c.archKey()]; c.HighEnd && (!ok || c.Year < prev.Year) {
			byKey[c.archKey()] = c
		}
	}
	keys := make([]string, 0, len(byKey))
	for key := range byKey {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	n, apps := len(keys), GPUApps()
	p := &gpuPlan{tesla: sort.SearchStrings(keys, "Tesla@65")}
	pos := make([][]int, n) // pos[a][i]: index in p.apps of a's gain on apps[i], or -1
	for a, key := range keys {
		ret, ok := gpuArchReturns[key]
		if !ok {
			return nil, fmt.Errorf("casestudy: no specialization return for %s", key)
		}
		chip := byKey[key]
		p.flagships, pos[a] = append(p.flagships, chip), make([]int, len(apps))
		for i, app := range apps {
			pos[a][i] = -1
			if from, to := appWindow(i); chip.Year >= from && chip.Year <= to {
				pos[a][i] = len(p.apps)
				p.apps = append(p.apps, planApp{a, 100 / float64(i+1), wobble(chip.Name, app.Name), ret.perf, ret.eff})
			}
		}
	}

	related := make([]bool, n*n)
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			var shared []int
			for i := range apps {
				if x != y && pos[x][i] >= 0 && pos[y][i] >= 0 {
					shared = append(shared, i)
				}
			}
			sort.Slice(shared, func(i, j int) bool { return apps[shared[i]].Name < apps[shared[j]].Name })
			st := planStep{at: x*n + y, direct: true}
			for _, i := range shared {
				st.a, st.b = append(st.a, pos[x][i]), append(st.b, pos[y][i])
			}
			if len(shared) >= 5 {
				p.steps, related[st.at] = append(p.steps, st), true
			}
		}
	}
	for added := true; added; {
		added = false
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				st := planStep{at: x*n + y}
				for v := 0; v < n && x != y && !related[st.at]; v++ {
					if v != x && v != y && related[x*n+v] && related[v*n+y] {
						st.a, st.b = append(st.a, x*n+v), append(st.b, v*n+y)
					}
				}
				if len(st.a) > 0 {
					p.steps, related[st.at], added = append(p.steps, st), true, true
				}
			}
		}
	}
	for a, key := range keys {
		if a != p.tesla && !related[a*n+p.tesla] {
			return nil, fmt.Errorf("casestudy: chaining %s: %w", key, csr.ErrNoRelation)
		}
	}
	return p, nil
}

// ArchPoint is one architecture implementation of Figures 6/7: its
// relative gain versus the 65 nm Tesla baseline (recovered through the
// relations matrix) and its specialization return.
type ArchPoint struct {
	Arch    string
	NodeNM  float64
	Year    float64
	RelGain float64
	CSR     float64
}

// ArchScaling reproduces Figure 6 (target = throughput) or Figure 7
// (target = efficiency): per-architecture relative gains from the
// Equations 3/4 relation matrix, and the CSR obtained by dividing out the
// CMOS potential ratio.
func ArchScaling(target gains.Target) ([]ArchPoint, error) {
	return ArchScalingWith(nil, target)
}

// ArchScalingWith is ArchScaling evaluated against a caller-supplied gains
// model (nil selects the study's default), so the Monte Carlo uncertainty
// engine can rerun the study under a refitted budget and jittered scaling
// table. It evaluates the compiled relation plan.
func ArchScalingWith(m *gains.Model, target gains.Target) ([]ArchPoint, error) {
	p, err := gpuRelations()
	if err != nil {
		return nil, err
	}
	if m == nil {
		m = gpuModel()
	}
	n := len(p.flagships)
	phys := make([]float64, n)
	for a, chip := range p.flagships {
		if phys[a], err = m.Ratio(target, chip.config(), p.flagships[p.tesla].config()); err != nil {
			return nil, fmt.Errorf("casestudy: relations for %s: %w", chip.archKey(), err)
		}
	}
	appGains := make([]float64, len(p.apps))
	for j, app := range p.apps {
		factor := app.perf
		if target == gains.TargetEfficiency {
			factor = app.eff
		}
		appGains[j] = app.scale * phys[app.arch] * factor * app.wobble
	}
	rel := make([]float64, n*n)
	rel[p.tesla*n+p.tesla] = 1 // ChainGain(x, x)
	var terms []float64
	for _, st := range p.steps {
		terms = terms[:0]
		for k := range st.a {
			if st.direct {
				terms = append(terms, appGains[st.a[k]]/appGains[st.b[k]])
			} else {
				terms = append(terms, rel[st.a[k]]*rel[st.b[k]])
			}
		}
		if rel[st.at], err = stats.GeoMean(terms); err != nil {
			return nil, fmt.Errorf("casestudy: building GPU relations: %w", err)
		}
	}
	out := make([]ArchPoint, 0, n)
	for a, c := range p.flagships {
		gain := rel[a*n+p.tesla]
		out = append(out, ArchPoint{Arch: c.Arch, NodeNM: c.NodeNM, Year: c.Year, RelGain: gain, CSR: gain / phys[a]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Year < out[j].Year })
	return out, nil
}
