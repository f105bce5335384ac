package cmos

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestLookupExactNodes(t *testing.T) {
	for _, nm := range Nodes() {
		n, err := Lookup(nm)
		if err != nil {
			t.Fatalf("Lookup(%g): %v", nm, err)
		}
		if n.NM != nm {
			t.Errorf("Lookup(%g).NM = %g", nm, n.NM)
		}
	}
}

func TestLookupReferenceIsUnity(t *testing.T) {
	n, err := Lookup(ReferenceNode)
	if err != nil {
		t.Fatal(err)
	}
	if n.Freq != 1 || n.VDD != 1 || n.Cap != 1 || n.Leak != 1 {
		t.Errorf("45nm factors = %+v, want all 1", n)
	}
	if n.DynPower() != 1 || n.DynEnergy() != 1 {
		t.Errorf("45nm derived power/energy = (%g, %g), want 1", n.DynPower(), n.DynEnergy())
	}
}

func TestLookupOutOfRange(t *testing.T) {
	for _, nm := range []float64{250, 4, 0, -5} {
		if _, err := Lookup(nm); !errors.Is(err, ErrUnknownNode) {
			t.Errorf("Lookup(%g) err = %v, want ErrUnknownNode", nm, err)
		}
	}
}

func TestLookupInterpolatesBetweenNodes(t *testing.T) {
	// 36 nm is not in the table; factors must land strictly between the
	// 40 nm and 32 nm table rows.
	n36, err := Lookup(36)
	if err != nil {
		t.Fatal(err)
	}
	n40 := MustLookup(40)
	n32 := MustLookup(32)
	checks := []struct {
		name            string
		lo, v, hi       float64
		increasingToNew bool
	}{
		{"Freq", n40.Freq, n36.Freq, n32.Freq, true},
		{"VDD", n32.VDD, n36.VDD, n40.VDD, false},
		{"Cap", n32.Cap, n36.Cap, n40.Cap, false},
		{"Leak", n32.Leak, n36.Leak, n40.Leak, false},
	}
	for _, c := range checks {
		if !(c.lo < c.v && c.v < c.hi) {
			t.Errorf("%s at 36nm = %g, want strictly in (%g, %g)", c.name, c.v, c.lo, c.hi)
		}
	}
}

// CMOS monotonicity invariant from DESIGN.md: toward newer nodes frequency
// never decreases and VDD, capacitance, leakage, and energy per op never
// increase.
func TestScalingMonotonicity(t *testing.T) {
	nodes := Nodes() // descending feature size = oldest first
	for i := 1; i < len(nodes); i++ {
		older := MustLookup(nodes[i-1])
		newer := MustLookup(nodes[i])
		if newer.Freq < older.Freq {
			t.Errorf("frequency decreased from %gnm to %gnm", older.NM, newer.NM)
		}
		if newer.VDD > older.VDD {
			t.Errorf("VDD increased from %gnm to %gnm", older.NM, newer.NM)
		}
		if newer.Cap > older.Cap {
			t.Errorf("capacitance increased from %gnm to %gnm", older.NM, newer.NM)
		}
		if newer.Leak > older.Leak {
			t.Errorf("leakage increased from %gnm to %gnm", older.NM, newer.NM)
		}
		if newer.DynEnergy() > older.DynEnergy() {
			t.Errorf("energy/op increased from %gnm to %gnm", older.NM, newer.NM)
		}
		if newer.Density() < older.Density() {
			t.Errorf("density decreased from %gnm to %gnm", older.NM, newer.NM)
		}
	}
}

// Property: interpolated factors anywhere in range are bounded by the oldest
// and newest table values and positive.
func TestLookupBoundedProperty(t *testing.T) {
	oldest := MustLookup(180)
	newest := MustLookup(FinalNode)
	f := func(raw float64) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		nm := 5 + math.Mod(math.Abs(raw), 175) // in [5, 180)
		n, err := Lookup(nm)
		if err != nil {
			return false
		}
		within := func(v, lo, hi float64) bool { return v >= lo-1e-9 && v <= hi+1e-9 }
		return n.Freq > 0 && n.VDD > 0 && n.Cap > 0 && n.Leak > 0 &&
			within(n.Freq, oldest.Freq, newest.Freq) &&
			within(n.VDD, newest.VDD, oldest.VDD) &&
			within(n.Cap, newest.Cap, oldest.Cap) &&
			within(n.Leak, newest.Leak, oldest.Leak)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDensityCalibration(t *testing.T) {
	// 45 nm density should be in the low single-digit MTr/mm² range
	// characteristic of late-2000s CPUs.
	d := MustLookup(45).Density()
	if d < 2 || d > 5 {
		t.Errorf("45nm density = %g MTr/mm², want in [2, 5]", d)
	}
	// 5 nm vs 45 nm raw density ratio should be (45/5)² = 81.
	ratio := MustLookup(5).Density() / d
	if math.Abs(ratio-81) > 1e-9 {
		t.Errorf("5nm/45nm density ratio = %g, want 81", ratio)
	}
}

func TestFig3aShape(t *testing.T) {
	rows, err := Fig3a()
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(Metrics()) * len(Fig3aNodes())
	if len(rows) != wantRows {
		t.Fatalf("Fig3a rows = %d, want %d", len(rows), wantRows)
	}
	// Every metric's 45 nm sample must be exactly 1 (the normalization).
	for _, r := range rows {
		if r.NodeNM == 45 && r.Value != 1 {
			t.Errorf("%s at 45nm = %g, want 1", r.Metric, r.Value)
		}
	}
	// Leakage, capacitance, VDD and dynamic power decline toward 5 nm;
	// frequency rises. Check the 5 nm endpoint against 45 nm.
	at := func(m Metric, nm float64) float64 {
		for _, r := range rows {
			if r.Metric == m && r.NodeNM == nm {
				return r.Value
			}
		}
		t.Fatalf("missing row %v %g", m, nm)
		return 0
	}
	for _, m := range []Metric{MetricLeakage, MetricCapacitance, MetricVDD, MetricDynPower} {
		if v := at(m, 5); v >= 1 {
			t.Errorf("%s at 5nm = %g, want < 1", m, v)
		}
	}
	if v := at(MetricFrequency, 5); v <= 1 {
		t.Errorf("Frequency at 5nm = %g, want > 1", v)
	}
}

func TestMetricString(t *testing.T) {
	for _, m := range Metrics() {
		if m.String() == "" {
			t.Errorf("metric %d has empty name", int(m))
		}
	}
	if Metric(99).String() != "Metric(99)" {
		t.Errorf("unknown metric string = %q", Metric(99).String())
	}
}

func TestValueUnknownMetric(t *testing.T) {
	if _, err := MustLookup(45).Value(Metric(99)); err == nil {
		t.Error("Value of unknown metric should error")
	}
}

func TestEraOf(t *testing.T) {
	cases := []struct {
		nm   float64
		want Era
	}{
		{180, Era180to90}, {90, Era180to90}, {130, Era180to90},
		{80, Era80to45}, {45, Era80to45}, {65, Era80to45},
		{40, Era40to20}, {20, Era40to20}, {28, Era40to20},
		{16, Era16to12}, {12, Era16to12},
		{10, Era10to5}, {5, Era10to5}, {7, Era10to5},
	}
	for _, tc := range cases {
		got, err := EraOf(tc.nm)
		if err != nil {
			t.Fatalf("EraOf(%g): %v", tc.nm, err)
		}
		if got != tc.want {
			t.Errorf("EraOf(%g) = %v, want %v", tc.nm, got, tc.want)
		}
	}
	if _, err := EraOf(300); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("EraOf(300) err = %v, want ErrUnknownNode", err)
	}
	for _, e := range Eras() {
		if e.String() == "" {
			t.Errorf("era %d has empty name", int(e))
		}
	}
	if Era(99).String() != "Era(99)" {
		t.Errorf("unknown era string = %q", Era(99).String())
	}
}

func TestMustLookupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustLookup(1000) should panic")
		}
	}()
	MustLookup(1000)
}
