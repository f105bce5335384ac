// Package csr implements the paper's central metric, the Chip
// Specialization Return (Section II).
//
// Equation 1 defines CSR as the ratio between a chip's end-to-end gain and
// the gain attributable to its physical properties:
//
//	CSR(Alg,Fwk,Plt,Eng) = Gain(Alg,Fwk,Plt,Eng,Phy) / Gain(Phy)
//
// Because absolute gains are only meaningful relative to another chip,
// Equation 2 factors a reported gain ratio between two chips into a
// specialization-driven part (the CSR ratio) and a CMOS-driven part (the
// physical potential ratio). This package computes both over series of
// chip observations, and additionally implements the architecture
// gain-relations machinery of Equations 3 and 4: pairwise geometric-mean
// gains over shared applications, completed by transitive closure through
// intermediary architectures — the method behind Figures 6 and 7.
package csr

import (
	"errors"
	"fmt"
	"sort"

	"accelwall/internal/gains"
	"accelwall/internal/stats"
)

// ErrNoRelation is returned when a relations matrix cannot connect two
// architectures even transitively.
var ErrNoRelation = errors.New("csr: architectures not connected by any gain relation")

// Physical supplies the Gain(Phy) denominator of Equation 1: the physical
// gain ratio of two chip configurations for a target function. The CMOS
// potential model of package gains implements it; per-area domains (e.g.
// Bitcoin mining, Section IV-D) substitute a raw device-potential model.
type Physical interface {
	Ratio(target gains.Target, a, b gains.Config) (float64, error)
}

// Observation couples a chip's physical description with its reported gain
// for the targeted computation domain (e.g. MPixels/s for a video decoder,
// GHash/s/mm² for a Bitcoin miner).
type Observation struct {
	Name string
	Chip gains.Config
	Gain float64 // reported gain, domain units
	Year float64 // fractional introduction year (optional, used for trend rows)
}

// Validate reports the first structural problem with the observation.
func (o Observation) Validate() error {
	if o.Gain <= 0 {
		return fmt.Errorf("csr: observation %q has non-positive gain %g", o.Name, o.Gain)
	}
	return nil
}

// Row is the decomposition of one observation against a baseline: the
// reported gain ratio, the physical (CMOS-driven) ratio, and their quotient
// — the specialization return.
type Row struct {
	Name         string
	Year         float64
	Gain         float64 // relative reported gain vs the baseline observation
	PhysicalGain float64 // relative physical potential vs the baseline observation
	CSR          float64 // Gain / PhysicalGain (Equation 1 in ratio form)
}

// Analyze decomposes a series of observations against the observation at
// baselineIdx, producing one Row per observation in input order. It is the
// computation behind every per-domain CSR plot in Section IV.
func Analyze(m Physical, target gains.Target, obs []Observation, baselineIdx int) ([]Row, error) {
	if m == nil {
		return nil, errors.New("csr: nil physical model")
	}
	if len(obs) == 0 {
		return nil, errors.New("csr: no observations")
	}
	if baselineIdx < 0 || baselineIdx >= len(obs) {
		return nil, fmt.Errorf("csr: baseline index %d outside [0, %d)", baselineIdx, len(obs))
	}
	base := obs[baselineIdx]
	if err := base.Validate(); err != nil {
		return nil, err
	}
	rows := make([]Row, 0, len(obs))
	for _, o := range obs {
		if err := o.Validate(); err != nil {
			return nil, err
		}
		phy, err := m.Ratio(target, o.Chip, base.Chip)
		if err != nil {
			return nil, fmt.Errorf("csr: physical ratio for %q: %w", o.Name, err)
		}
		g := o.Gain / base.Gain
		rows = append(rows, Row{
			Name:         o.Name,
			Year:         o.Year,
			Gain:         g,
			PhysicalGain: phy,
			CSR:          g / phy,
		})
	}
	return rows, nil
}

// Pairwise returns the Equation 2 decomposition of chip a against chip b:
// the reported gain ratio, the CMOS-driven ratio, and the CSR ratio.
func Pairwise(m Physical, target gains.Target, a, b Observation) (reported, cmosDriven, csrRatio float64, err error) {
	if err := a.Validate(); err != nil {
		return 0, 0, 0, err
	}
	if err := b.Validate(); err != nil {
		return 0, 0, 0, err
	}
	phy, err := m.Ratio(target, a.Chip, b.Chip)
	if err != nil {
		return 0, 0, 0, err
	}
	reported = a.Gain / b.Gain
	return reported, phy, reported / phy, nil
}

// AppGains maps architecture name -> application name -> reported gain, the
// input to the Equations 3/4 relation construction.
type AppGains map[string]map[string]float64

// RelationMatrix holds pairwise relative gains between architectures,
// Gain(X->Y) meaning "architecture X's gain relative to architecture Y",
// built from shared applications and completed transitively.
type RelationMatrix struct {
	archs []string
	rel   map[[2]string]float64
}

// Gain returns Gain(x->y) and whether the pair is related.
func (rm *RelationMatrix) Gain(x, y string) (float64, bool) {
	v, ok := rm.rel[[2]string{x, y}]
	return v, ok
}

// Complete reports whether every ordered pair of distinct architectures is
// related.
func (rm *RelationMatrix) Complete() bool {
	n := len(rm.archs)
	return len(rm.rel) >= n*(n-1)
}

// BuildRelations constructs the relation matrix from per-application gains.
//
// Following Section IV-B: for every pair of architectures sharing at least
// minShared applications, the relative gain is the geometric mean of the
// per-application gain ratios (Equation 3). Pairs with fewer shared
// applications are then filled by transitivity: the geometric mean over all
// intermediary architectures Γ of Gain(X->Γ)·Gain(Γ->Y) (Equation 4),
// iterated until no new pair is added.
func BuildRelations(appGains AppGains, minShared int) (*RelationMatrix, error) {
	if minShared < 1 {
		return nil, fmt.Errorf("csr: minShared must be >= 1, got %d", minShared)
	}
	if len(appGains) == 0 {
		return nil, errors.New("csr: no architectures")
	}
	rm := &RelationMatrix{rel: make(map[[2]string]float64)}
	for arch, apps := range appGains {
		for app, g := range apps {
			if g <= 0 {
				return nil, fmt.Errorf("csr: architecture %q app %q has non-positive gain %g", arch, app, g)
			}
		}
		rm.archs = append(rm.archs, arch)
	}
	sort.Strings(rm.archs)
	// Equation 3: direct pairs from shared applications.
	for _, x := range rm.archs {
		for _, y := range rm.archs {
			if x == y {
				continue
			}
			ratios := sharedRatios(appGains[x], appGains[y])
			if len(ratios) < minShared {
				continue
			}
			g, err := stats.GeoMean(ratios)
			if err != nil {
				return nil, fmt.Errorf("csr: relating %q to %q: %w", x, y, err)
			}
			rm.rel[[2]string{x, y}] = g
		}
	}
	// Equation 4: iterative transitive completion. "We iteratively
	// construct the relations matrix, until we do not add a new pair."
	for {
		added := false
		for _, x := range rm.archs {
			for _, y := range rm.archs {
				if x == y {
					continue
				}
				if _, ok := rm.rel[[2]string{x, y}]; ok {
					continue
				}
				var products []float64
				for _, via := range rm.archs {
					if via == x || via == y {
						continue
					}
					gxv, ok1 := rm.rel[[2]string{x, via}]
					gvy, ok2 := rm.rel[[2]string{via, y}]
					if ok1 && ok2 {
						products = append(products, gxv*gvy)
					}
				}
				if len(products) == 0 {
					continue
				}
				g, err := stats.GeoMean(products)
				if err != nil {
					return nil, fmt.Errorf("csr: closing %q to %q: %w", x, y, err)
				}
				rm.rel[[2]string{x, y}] = g
				added = true
			}
		}
		if !added {
			return rm, nil
		}
	}
}

// sharedRatios returns gx(app)/gy(app) for every app present in both maps,
// in sorted app order for determinism.
func sharedRatios(gx, gy map[string]float64) []float64 {
	apps := make([]string, 0, len(gx))
	for app := range gx {
		if _, ok := gy[app]; ok {
			apps = append(apps, app)
		}
	}
	sort.Strings(apps)
	out := make([]float64, 0, len(apps))
	for _, app := range apps {
		out = append(out, gx[app]/gy[app])
	}
	return out
}

// ChainGain resolves Gain(x->y) from the matrix, returning ErrNoRelation if
// the architectures remain unconnected after closure.
func (rm *RelationMatrix) ChainGain(x, y string) (float64, error) {
	if x == y {
		return 1, nil
	}
	if g, ok := rm.Gain(x, y); ok {
		return g, nil
	}
	return 0, fmt.Errorf("%w: %q -> %q", ErrNoRelation, x, y)
}
