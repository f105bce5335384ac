package csr

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"accelwall/internal/gains"
)

func model() *gains.Model { return gains.NewModel(nil) }

func obs(name string, node, die, tdp, freq, gain float64) Observation {
	return Observation{
		Name: name,
		Chip: gains.Config{NodeNM: node, DieMM2: die, TDPW: tdp, FreqGHz: freq},
		Gain: gain,
	}
}

func TestAnalyzeBaselineRow(t *testing.T) {
	series := []Observation{
		obs("old", 65, 100, 100, 1, 10),
		obs("new", 16, 100, 100, 1, 80),
	}
	rows, err := Analyze(model(), gains.TargetThroughput, series, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	b := rows[0]
	if b.Gain != 1 || b.PhysicalGain != 1 || b.CSR != 1 {
		t.Errorf("baseline row = %+v, want all ones", b)
	}
	if rows[1].Gain != 8 {
		t.Errorf("relative gain = %g, want 8", rows[1].Gain)
	}
	if rows[1].PhysicalGain <= 1 {
		t.Errorf("16nm physical gain over 65nm = %g, want > 1", rows[1].PhysicalGain)
	}
}

// Equation 1 invariant: CSR × PhysicalGain == Gain for every row.
func TestAnalyzeEquationOneInvariant(t *testing.T) {
	series := []Observation{
		obs("a", 65, 80, 60, 0.8, 3),
		obs("b", 40, 120, 90, 1.0, 12),
		obs("c", 28, 200, 150, 1.2, 55),
		obs("d", 16, 300, 250, 1.4, 140),
	}
	for _, target := range []gains.Target{gains.TargetThroughput, gains.TargetEfficiency} {
		rows, err := Analyze(model(), target, series, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if math.Abs(r.CSR*r.PhysicalGain-r.Gain) > 1e-9*r.Gain {
				t.Errorf("%v %s: CSR·Phy = %g, Gain = %g", target, r.Name, r.CSR*r.PhysicalGain, r.Gain)
			}
		}
	}
}

func TestAnalyzeErrors(t *testing.T) {
	good := []Observation{obs("a", 45, 100, 100, 1, 5), obs("b", 28, 100, 100, 1, 9)}
	if _, err := Analyze(nil, gains.TargetThroughput, good, 0); err == nil {
		t.Error("nil model should error")
	}
	if _, err := Analyze(model(), gains.TargetThroughput, nil, 0); err == nil {
		t.Error("empty series should error")
	}
	if _, err := Analyze(model(), gains.TargetThroughput, good, 5); err == nil {
		t.Error("out-of-range baseline should error")
	}
	bad := []Observation{obs("a", 45, 100, 100, 1, 0)}
	if _, err := Analyze(model(), gains.TargetThroughput, bad, 0); err == nil {
		t.Error("non-positive gain should error")
	}
	badChip := []Observation{obs("a", 45, 100, 100, 1, 5), obs("b", 0, 100, 100, 1, 9)}
	if _, err := Analyze(model(), gains.TargetThroughput, badChip, 0); err == nil {
		t.Error("invalid chip config should error")
	}
}

func TestPairwiseDecomposition(t *testing.T) {
	a := obs("new", 16, 100, 100, 1, 60)
	b := obs("old", 65, 100, 100, 1, 10)
	reported, cmosDriven, csrRatio, err := Pairwise(model(), gains.TargetThroughput, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if reported != 6 {
		t.Errorf("reported = %g, want 6", reported)
	}
	// Equation 2: reported = csrRatio × cmosDriven.
	if math.Abs(csrRatio*cmosDriven-reported) > 1e-9*reported {
		t.Errorf("Eq2 violated: %g * %g != %g", csrRatio, cmosDriven, reported)
	}
	if _, _, _, err := Pairwise(model(), gains.TargetThroughput, obs("x", 45, 1, 1, 1, 0), b); err == nil {
		t.Error("bad numerator should error")
	}
	if _, _, _, err := Pairwise(model(), gains.TargetThroughput, a, obs("x", 45, 1, 1, 1, -2)); err == nil {
		t.Error("bad denominator should error")
	}
}

func TestBuildRelationsDirect(t *testing.T) {
	ag := AppGains{
		"Tesla":  {"app1": 1, "app2": 2, "app3": 1, "app4": 1, "app5": 4},
		"Kepler": {"app1": 2, "app2": 4, "app3": 2, "app4": 2, "app5": 8},
	}
	rm, err := BuildRelations(ag, 5)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := rm.Gain("Kepler", "Tesla")
	if !ok {
		t.Fatal("Kepler->Tesla relation missing")
	}
	if math.Abs(g-2) > 1e-12 {
		t.Errorf("Gain(Kepler->Tesla) = %g, want 2", g)
	}
	inv, _ := rm.Gain("Tesla", "Kepler")
	if math.Abs(g*inv-1) > 1e-12 {
		t.Errorf("relation not reciprocal: %g * %g", g, inv)
	}
}

func TestBuildRelationsTransitive(t *testing.T) {
	// A and C share no apps; both share five with B. The closure must
	// relate A to C through B: Gain(A->C) = Gain(A->B)·Gain(B->C).
	ag := AppGains{
		"A": {"a1": 2, "a2": 2, "a3": 2, "a4": 2, "a5": 2},
		"B": {"a1": 1, "a2": 1, "a3": 1, "a4": 1, "a5": 1, "b1": 1, "b2": 1, "b3": 1, "b4": 1, "b5": 1},
		"C": {"b1": 4, "b2": 4, "b3": 4, "b4": 4, "b5": 4},
	}
	rm, err := BuildRelations(ag, 5)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := rm.Gain("A", "C")
	if !ok {
		t.Fatal("transitive A->C relation missing")
	}
	// Gain(A->B) = 2, Gain(B->C) = 1/4, so Gain(A->C) = 1/2.
	if math.Abs(g-0.5) > 1e-12 {
		t.Errorf("Gain(A->C) = %g, want 0.5", g)
	}
	if !rm.Complete() {
		t.Error("three mutually-reachable architectures should form a complete matrix")
	}
}

func TestBuildRelationsDisconnected(t *testing.T) {
	ag := AppGains{
		"A": {"a1": 1, "a2": 1, "a3": 1, "a4": 1, "a5": 1},
		"B": {"b1": 1, "b2": 1, "b3": 1, "b4": 1, "b5": 1},
	}
	rm, err := BuildRelations(ag, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Complete() {
		t.Error("disconnected architectures should not be complete")
	}
	if _, err := rm.ChainGain("A", "B"); !errors.Is(err, ErrNoRelation) {
		t.Errorf("ChainGain of unrelated pair err = %v, want ErrNoRelation", err)
	}
	if g, err := rm.ChainGain("A", "A"); err != nil || g != 1 {
		t.Errorf("ChainGain(A,A) = (%g, %v), want (1, nil)", g, err)
	}
}

func TestBuildRelationsErrors(t *testing.T) {
	if _, err := BuildRelations(nil, 5); err == nil {
		t.Error("empty input should error")
	}
	if _, err := BuildRelations(AppGains{"A": {"x": 1}}, 0); err == nil {
		t.Error("minShared 0 should error")
	}
	if _, err := BuildRelations(AppGains{"A": {"x": -1}}, 1); err == nil {
		t.Error("negative gain should error")
	}
}

// Property: for any generated app-gain table where every pair shares all
// apps, the relation matrix is reciprocal and transitively consistent.
func TestRelationsReciprocalProperty(t *testing.T) {
	f := func(g1, g2, g3 uint16) bool {
		gainOf := func(u uint16) float64 { return 0.5 + float64(u%1000)/100 }
		ag := AppGains{
			"X": {"a": gainOf(g1), "b": gainOf(g2), "c": gainOf(g3), "d": 1, "e": 2},
			"Y": {"a": gainOf(g2), "b": gainOf(g3), "c": gainOf(g1), "d": 2, "e": 1},
			"Z": {"a": 1, "b": 1, "c": 1, "d": 1, "e": 1},
		}
		rm, err := BuildRelations(ag, 5)
		if err != nil {
			return false
		}
		archs := []string{"X", "Y", "Z"}
		for _, x := range archs {
			for _, y := range archs {
				if x == y {
					continue
				}
				gxy, ok1 := rm.Gain(x, y)
				gyx, ok2 := rm.Gain(y, x)
				if !ok1 || !ok2 {
					return false
				}
				if math.Abs(gxy*gyx-1) > 1e-9 {
					return false
				}
			}
		}
		// Direct triangle consistency: X->Z == X->Y · Y->Z ratios derived
		// from identical app sets multiply exactly through the geomean.
		gxz, _ := rm.Gain("X", "Z")
		gxy, _ := rm.Gain("X", "Y")
		gyz, _ := rm.Gain("Y", "Z")
		return math.Abs(gxz-gxy*gyz) <= 1e-9*gxz
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
