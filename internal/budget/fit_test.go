package budget

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"accelwall/internal/chipdb"
	"accelwall/internal/cmos"
	"accelwall/internal/stats"
)

// referenceFit is the Figure 3b/3c fit computed the direct way, over chip
// values grouped by Corpus.ByEra. Compiled.Fit must match it bit for bit
// and fail exactly where it fails.
func referenceFit(c *chipdb.Corpus) (*Model, error) {
	if c == nil || c.Len() < 2 {
		return nil, fmt.Errorf("corpus too small")
	}
	var xs, ys []float64
	for _, ch := range c.Chips {
		xs, ys = append(xs, ch.DensityFactor()), append(ys, ch.Transistors)
	}
	tc, err := stats.FitPowerLaw(xs, ys)
	if err != nil {
		return nil, err
	}
	m := &Model{TC: tc, ByEra: make(map[cmos.Era]EraFit)}
	for era, sub := range c.ByEra() {
		var ex, ey []float64
		for _, ch := range sub.Chips {
			ex, ey = append(ex, ch.TDPW), append(ey, ch.TCf())
		}
		curve, err := stats.FitPowerLaw(ex, ey)
		if err != nil {
			return nil, err
		}
		m.ByEra[era] = EraFit{Era: era, Curve: curve, N: sub.Len()}
	}
	return m, nil
}

// edgeCorpus is a small corpus with a 250 nm chip (outside every era, so
// only the area model sees it) and an era of only `thin` chips, so
// resamples often leave that era with one distinct chip.
func edgeCorpus(thin int) *chipdb.Corpus {
	var c chipdb.Corpus
	kept := 0
	for _, ch := range chipdb.Synthetic(3).Chips[:400] {
		if era, _ := cmos.EraOf(ch.NodeNM); era == cmos.Era10to5 {
			if kept == thin {
				continue
			}
			kept++
		}
		c.Chips = append(c.Chips, ch)
	}
	old := c.Chips[0]
	old.Name, old.NodeNM, old.TDPW = "legacy", 250, -1
	c.Chips = append(c.Chips, old)
	return &c
}

// TestCompiledFitMatchesReference resamples the edge corpus both ways —
// copied chips through the reference fit, and the same rng draws as
// indices through Compiled.Fit — and requires equal models or a failure
// on both sides.
func TestCompiledFitMatchesReference(t *testing.T) {
	c := edgeCorpus(3)
	p, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	var s FitScratch
	failed := 0
	for seed := int64(0); seed < 200; seed++ {
		want, wantErr := referenceFit(resample(c, rand.New(rand.NewSource(seed))))
		rng := rand.New(rand.NewSource(seed))
		idx := make([]int, c.Len())
		for i := range idx {
			idx[i] = rng.Intn(c.Len())
		}
		got, err := p.Fit(idx, &s)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("seed %d: compiled err %v, reference err %v", seed, err, wantErr)
		}
		if err != nil {
			failed++
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: compiled %+v, reference %+v", seed, got, want)
		}
	}
	if failed == 0 || failed == 200 {
		t.Errorf("%d of 200 resamples failed; the edge corpus should fail some", failed)
	}
}

// TestFitErrorsMatchReference checks Fit rejects exactly the corpora the
// reference fit rejects.
func TestFitErrorsMatchReference(t *testing.T) {
	one := edgeCorpus(1)
	zeroTDP := edgeCorpus(3)
	zeroTDP.Chips[5].TDPW = 0
	zeroDie := edgeCorpus(3)
	zeroDie.Chips[7].DieMM2 = 0
	for _, tc := range []struct {
		name    string
		c       *chipdb.Corpus
		wantErr bool
	}{
		{"nil", nil, true},
		{"empty", &chipdb.Corpus{}, true},
		{"one chip", &chipdb.Corpus{Chips: one.Chips[:1]}, true},
		{"one-chip era", one, true},
		{"zero TDP in era", zeroTDP, true},
		{"zero die", zeroDie, true},
		{"out-of-range node with negative TDP", edgeCorpus(3), false},
	} {
		got, err := Fit(tc.c)
		want, wantErr := referenceFit(tc.c)
		if (err != nil) != tc.wantErr || (wantErr != nil) != tc.wantErr {
			t.Errorf("%s: Fit err %v, reference err %v, want error %v", tc.name, err, wantErr, tc.wantErr)
			continue
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Fit %+v, reference %+v", tc.name, got, want)
		}
	}
}

// resample is a case (bootstrap) resample as a copied corpus: Len() chips
// drawn with replacement by rng.Intn, the draws the engine makes as
// indices.
func resample(c *chipdb.Corpus, rng *rand.Rand) *chipdb.Corpus {
	out := &chipdb.Corpus{Chips: make([]chipdb.Chip, c.Len())}
	for i := range out.Chips {
		out.Chips[i] = c.Chips[rng.Intn(c.Len())]
	}
	return out
}
