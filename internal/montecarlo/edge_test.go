package montecarlo

import (
	"context"
	"math/rand"
	"testing"

	"accelwall/internal/budget"
	"accelwall/internal/chipdb"
	"accelwall/internal/cmos"
)

// edgeCorpus is a small corpus with a 250 nm chip (outside every era, so
// only the Figure 3b fit sees it) and a 10–5 nm era of only `thin` chips,
// so some resamples leave that era with a single distinct chip and its
// Figure 3c fit fails.
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
	old.Name, old.NodeNM = "legacy", 250
	c.Chips = append(c.Chips, old)
	return &c
}

// TestEngineEdgeCorpus checks the engine fails exactly the replicates
// whose copied-chip resample fails budget.Fit, and pins the bands to the
// ones the copied-resample engine produced before the fit was compiled.
func TestEngineEdgeCorpus(t *testing.T) {
	c := edgeCorpus(3)
	e, err := NewEngine(c)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Replicates: 40, Seed: 5, Workers: 2}
	res, err := e.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < cfg.Replicates; i++ {
		rng := rand.New(rand.NewSource(substream(cfg.Seed, i)))
		if _, err := budget.Fit(resample(c, rng)); err != nil {
			want++
		}
	}
	if want == 0 || res.Failed != want {
		t.Errorf("%d replicates failed, want %d (and at least one)", res.Failed, want)
	}
	if got, pin := resultDigest(res), "33/7:df28ddd6a4908df2b783adc154d3286c7f334b6a3af0b9266d9ceb3f3812119e"; got != pin {
		t.Errorf("digest %s, want %s", got, pin)
	}
}

// TestNewEngineErrorsWhereFitErrors checks the compiled engine rejects
// exactly the corpora budget.Fit rejects.
func TestNewEngineErrorsWhereFitErrors(t *testing.T) {
	oneChipEra := edgeCorpus(1)
	zeroTDP := edgeCorpus(3)
	zeroTDP.Chips[5].TDPW = 0
	outOfRange := edgeCorpus(3)
	outOfRange.Chips[len(outOfRange.Chips)-1].TDPW = -1
	for _, tc := range []struct {
		name    string
		c       *chipdb.Corpus
		wantErr bool
	}{
		{"empty", &chipdb.Corpus{}, true},
		{"one chip", &chipdb.Corpus{Chips: oneChipEra.Chips[:1]}, true},
		{"one-chip era", oneChipEra, true},
		{"zero TDP in era", zeroTDP, true},
		{"negative TDP outside every era", outOfRange, false},
	} {
		_, fitErr := budget.Fit(tc.c)
		_, err := NewEngine(tc.c)
		if (err != nil) != tc.wantErr || (fitErr != nil) != tc.wantErr {
			t.Errorf("%s: NewEngine err %v, budget.Fit err %v, want error %v", tc.name, err, fitErr, tc.wantErr)
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
