package chipdb

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"accelwall/internal/cmos"
	"accelwall/internal/stats"
)

func TestSyntheticSizes(t *testing.T) {
	c := Synthetic(1)
	if got := c.OfKind(CPU).Len(); got != 1612 {
		t.Errorf("CPU count = %d, want 1612 (paper's corpus)", got)
	}
	if got := c.OfKind(GPU).Len(); got != 1001 {
		t.Errorf("GPU count = %d, want 1001 (paper's corpus)", got)
	}
	if got := c.Len(); got != 2613 {
		t.Errorf("total = %d, want 2613", got)
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a := Synthetic(42)
	b := Synthetic(42)
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Chips {
		if a.Chips[i] != b.Chips[i] {
			t.Fatalf("chip %d differs between same-seed corpora", i)
		}
	}
	c := Synthetic(43)
	same := true
	for i := range a.Chips {
		if a.Chips[i] != c.Chips[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical corpora")
	}
}

func TestSyntheticValid(t *testing.T) {
	if err := Synthetic(7).Validate(); err != nil {
		t.Fatalf("synthetic corpus invalid: %v", err)
	}
}

// The corpus must let a power-law regression recover the published Fig 3b
// model TC(D) = 4.99e9·D^0.877 to within a few percent — that is its entire
// reason to exist.
func TestSyntheticRecoversFig3bModel(t *testing.T) {
	c := Synthetic(1)
	xs := make([]float64, 0, c.Len())
	ys := make([]float64, 0, c.Len())
	for _, ch := range c.Chips {
		xs = append(xs, ch.DensityFactor())
		ys = append(ys, ch.Transistors)
	}
	fit, err := stats.FitPowerLaw(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.B-TCFitB) > 0.03 {
		t.Errorf("fitted exponent = %g, want %g ± 0.03", fit.B, TCFitB)
	}
	if fit.A < TCFitA*0.85 || fit.A > TCFitA*1.15 {
		t.Errorf("fitted coefficient = %g, want %g ± 15%%", fit.A, TCFitA)
	}
	if fit.R2 < 0.9 {
		t.Errorf("fit R² = %g, want >= 0.9", fit.R2)
	}
}

// Per-era TCf-vs-TDP regressions must recover the published Fig 3c curves.
func TestSyntheticRecoversFig3cCurves(t *testing.T) {
	c := Synthetic(1)
	byEra := c.ByEra()
	for _, want := range PublishedTCfTDP {
		sub, ok := byEra[want.Era]
		if !ok || sub.Len() < 50 {
			t.Fatalf("era %v has too few chips", want.Era)
		}
		xs := make([]float64, 0, sub.Len())
		ys := make([]float64, 0, sub.Len())
		for _, ch := range sub.Chips {
			// Skip chips pinned at the TDP clamp boundaries: their TDP no
			// longer reflects the generating law.
			if ch.TDPW <= 5 || ch.TDPW >= 900 {
				continue
			}
			xs = append(xs, ch.TDPW)
			ys = append(ys, ch.TCf())
		}
		fit, err := stats.FitPowerLaw(xs, ys)
		if err != nil {
			t.Fatalf("era %v: %v", want.Era, err)
		}
		if math.Abs(fit.B-want.B) > 0.08 {
			t.Errorf("era %v exponent = %g, want %g ± 0.08", want.Era, fit.B, want.B)
		}
	}
}

func TestByEraPartition(t *testing.T) {
	c := Synthetic(3)
	byEra := c.ByEra()
	total := 0
	for era, sub := range byEra {
		total += sub.Len()
		for _, ch := range sub.Chips {
			got, err := cmos.EraOf(ch.NodeNM)
			if err != nil {
				t.Fatalf("EraOf(%g): %v", ch.NodeNM, err)
			}
			if got != era {
				t.Errorf("chip %q in era %v but EraOf = %v", ch.Name, era, got)
			}
		}
	}
	if total != c.Len() {
		t.Errorf("era partition covers %d chips, corpus has %d", total, c.Len())
	}
}

func TestFilterAndOfKind(t *testing.T) {
	c := Synthetic(5)
	big := c.Filter(func(ch Chip) bool { return ch.DieMM2 > 200 })
	for _, ch := range big.Chips {
		if ch.DieMM2 <= 200 {
			t.Fatalf("filter leaked chip with die %g", ch.DieMM2)
		}
	}
	if big.Len() == 0 || big.Len() == c.Len() {
		t.Errorf("die filter kept %d of %d, expected strict subset", big.Len(), c.Len())
	}
	for _, ch := range c.OfKind(ASIC).Chips {
		t.Errorf("synthetic corpus should not contain ASICs, got %q", ch.Name)
	}
}

func TestNodesSorted(t *testing.T) {
	c := Synthetic(9)
	nodes := c.Nodes()
	if len(nodes) < 5 {
		t.Fatalf("corpus spans only %d nodes", len(nodes))
	}
	for i := 1; i < len(nodes); i++ {
		if nodes[i] >= nodes[i-1] {
			t.Fatalf("Nodes() not strictly descending: %v", nodes)
		}
	}
}

func TestDensityFactorAndTCf(t *testing.T) {
	ch := Chip{NodeNM: 45, DieMM2: 202.5, FreqGHz: 2, Transistors: 3e9}
	if got := ch.DensityFactor(); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("DensityFactor = %g, want 0.1", got)
	}
	if got := ch.TCf(); math.Abs(got-6) > 1e-12 {
		t.Errorf("TCf = %g, want 6", got)
	}
}

func TestChipValidate(t *testing.T) {
	good := Chip{Name: "ok", NodeNM: 45, DieMM2: 100, FreqGHz: 1, TDPW: 50, Transistors: 1e9}
	if err := good.Validate(); err != nil {
		t.Errorf("valid chip rejected: %v", err)
	}
	bad := []Chip{
		{Name: "node", DieMM2: 1, FreqGHz: 1, TDPW: 1, Transistors: 1},
		{Name: "die", NodeNM: 45, FreqGHz: 1, TDPW: 1, Transistors: 1},
		{Name: "freq", NodeNM: 45, DieMM2: 1, TDPW: 1, Transistors: 1},
		{Name: "tdp", NodeNM: 45, DieMM2: 1, FreqGHz: 1, Transistors: 1},
		{Name: "tc", NodeNM: 45, DieMM2: 1, FreqGHz: 1, TDPW: 1},
	}
	for _, ch := range bad {
		if err := ch.Validate(); err == nil {
			t.Errorf("chip %q with zero field accepted", ch.Name)
		}
	}
}

func TestKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{CPU, GPU, FPGA, ASIC} {
		parsed, err := ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k.String(), err)
		}
		if parsed != k {
			t.Errorf("round trip %v -> %q -> %v", k, k.String(), parsed)
		}
	}
	if _, err := ParseKind("TPU"); err == nil {
		t.Error("ParseKind of unknown name should error")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Errorf("unknown kind string = %q", Kind(9).String())
	}
}

func TestCSVRoundTrip(t *testing.T) {
	orig := Synthetic(11)
	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Len() != orig.Len() {
		t.Fatalf("round trip lost records: %d vs %d", parsed.Len(), orig.Len())
	}
	for i := range orig.Chips {
		if orig.Chips[i] != parsed.Chips[i] {
			t.Fatalf("chip %d changed in round trip:\n  %+v\n  %+v", i, orig.Chips[i], parsed.Chips[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"badHeader", "nope,kind\n"},
		{"shortHeader", "name,kind,node_nm\n"},
		{"badKind", "name,kind,node_nm,die_mm2,freq_ghz,tdp_w,transistors,year\nx,TPU,45,100,1,50,1e9,2010\n"},
		{"badFloat", "name,kind,node_nm,die_mm2,freq_ghz,tdp_w,transistors,year\nx,CPU,abc,100,1,50,1e9,2010\n"},
		{"badYear", "name,kind,node_nm,die_mm2,freq_ghz,tdp_w,transistors,year\nx,CPU,45,100,1,50,1e9,soon\n"},
		{"invalidChip", "name,kind,node_nm,die_mm2,freq_ghz,tdp_w,transistors,year\nx,CPU,45,0,1,50,1e9,2010\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(tc.in)); err == nil {
				t.Errorf("ReadCSV(%q) should error", tc.in)
			}
		})
	}
}

// Property: every synthetic chip, regardless of seed, is valid, belongs to a
// known era, and has physically sane ranges.
func TestSyntheticSanityProperty(t *testing.T) {
	f := func(seed int64) bool {
		c := Synthetic(seed)
		if c.Len() != 2613 {
			return false
		}
		for _, ch := range c.Chips {
			if ch.Validate() != nil {
				return false
			}
			if _, err := cmos.EraOf(ch.NodeNM); err != nil {
				return false
			}
			if ch.TDPW < 5 || ch.TDPW > 900 {
				return false
			}
			if ch.FreqGHz < 0.1 || ch.FreqGHz > 12 {
				return false
			}
			if ch.Year < 2000 || ch.Year > 2022 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}
