package casestudy

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"accelwall/internal/budget"
	"accelwall/internal/chipdb"
	"accelwall/internal/cmos"
	"accelwall/internal/csr"
	"accelwall/internal/gains"
)

// referenceArchScaling is the Figures 6/7 study computed the direct way:
// an architecture → application gain table from each arch's flagship,
// csr.BuildRelations over it with a 5-app threshold, and ChainGain to the
// Tesla@65 baseline. ArchScalingWith must match it bit for bit.
func referenceArchScaling(m *gains.Model, target gains.Target) ([]ArchPoint, error) {
	if m == nil {
		m = gpuModel()
	}
	flagships := make(map[string]GPUChip)
	for _, c := range GPUChips() {
		if !c.HighEnd {
			continue
		}
		key := c.archKey()
		if prev, ok := flagships[key]; !ok || c.Year < prev.Year {
			flagships[key] = c
		}
	}
	tesla := flagships["Tesla@65"]
	ag := make(csr.AppGains)
	for key, chip := range flagships {
		ret, ok := gpuArchReturns[key]
		if !ok {
			return nil, fmt.Errorf("no specialization return for %s", key)
		}
		factor := ret.perf
		if target == gains.TargetEfficiency {
			factor = ret.eff
		}
		phys, err := m.Ratio(target, chip.config(), tesla.config())
		if err != nil {
			return nil, err
		}
		apps := make(map[string]float64)
		for i, app := range GPUApps() {
			from, to := appWindow(i)
			if chip.Year < from || chip.Year > to {
				continue
			}
			apps[app.Name] = 100 / float64(i+1) * phys * factor * wobble(chip.Name, app.Name)
		}
		ag[key] = apps
	}
	rm, err := csr.BuildRelations(ag, 5)
	if err != nil {
		return nil, err
	}
	var out []ArchPoint
	for key, chip := range flagships {
		rel, err := rm.ChainGain(key, "Tesla@65")
		if err != nil {
			return nil, err
		}
		phys, err := m.Ratio(target, chip.config(), tesla.config())
		if err != nil {
			return nil, err
		}
		out = append(out, ArchPoint{Arch: chip.Arch, NodeNM: chip.NodeNM, Year: chip.Year, RelGain: rel, CSR: rel / phys})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Year < out[j].Year })
	return out, nil
}

// TestArchScalingMatchesReference checks ArchScalingWith bit for bit
// against the direct relation-matrix construction, under the default
// model and under refitted budgets with jittered scaling tables.
func TestArchScalingMatchesReference(t *testing.T) {
	models := []*gains.Model{nil}
	for seed := int64(2); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b, err := budget.Fit(chipdb.Synthetic(seed))
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := cmos.DefaultTable().Perturb(func(n cmos.Node) cmos.Node {
			n.Freq *= math.Exp(rng.NormFloat64() * 0.05)
			n.VDD *= math.Exp(rng.NormFloat64() * 0.05)
			n.Cap *= math.Exp(rng.NormFloat64() * 0.05)
			n.Leak *= math.Exp(rng.NormFloat64() * 0.05)
			return n
		})
		if err != nil {
			t.Fatal(err)
		}
		m := gains.NewModel(b)
		m.Nodes = tbl
		models = append(models, m)
	}
	for mi, m := range models {
		for _, target := range []gains.Target{gains.TargetThroughput, gains.TargetEfficiency} {
			want, err := referenceArchScaling(m, target)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ArchScalingWith(m, target)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("model %d %v: %d points, want %d", mi, target, len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.Arch != w.Arch || g.NodeNM != w.NodeNM || g.Year != w.Year ||
					math.Float64bits(g.RelGain) != math.Float64bits(w.RelGain) ||
					math.Float64bits(g.CSR) != math.Float64bits(w.CSR) {
					t.Errorf("model %d %v point %d: got %+v, want %+v", mi, target, i, g, w)
				}
			}
		}
	}
}
