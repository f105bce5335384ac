package casestudy_test

import (
	"context"
	"reflect"
	"testing"

	"accelwall/internal/casestudy"
	"accelwall/internal/gains"
	"accelwall/internal/montecarlo"
	"accelwall/internal/projection"
)

// TestSharedDatasetsStayUnmodified runs every reader of the shared
// case-study datasets — the Section IV figures, Figures 15 and 16 and a
// Monte Carlo run — and then requires each dataset to still deep-equal a
// fresh build of its literal: no caller may write to a shared table.
func TestSharedDatasetsStayUnmodified(t *testing.T) {
	for _, target := range []gains.Target{gains.TargetThroughput, gains.TargetEfficiency} {
		if _, err := casestudy.Fig4(target); err != nil {
			t.Fatal(err)
		}
		if _, err := casestudy.Fig5(target); err != nil {
			t.Fatal(err)
		}
		if _, err := casestudy.ArchScaling(target); err != nil {
			t.Fatal(err)
		}
		for _, model := range []casestudy.CNNModel{casestudy.AlexNet, casestudy.VGG16} {
			if _, err := casestudy.Fig8(model, target); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := casestudy.Fig9(target); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := casestudy.Fig1ASICBoost(); err != nil {
		t.Fatal(err)
	}
	if _, err := casestudy.Fig4b(); err != nil {
		t.Fatal(err)
	}
	if _, err := projection.Fig15(); err != nil {
		t.Fatal(err)
	}
	if _, err := projection.Fig16(); err != nil {
		t.Fatal(err)
	}
	if _, err := montecarlo.RunCheckpointed(context.Background(), montecarlo.Config{Replicates: 10, Workers: 2}, nil); err != nil {
		t.Fatal(err)
	}

	check := func(name string, shared, literal any) {
		if !reflect.DeepEqual(shared, literal) {
			t.Errorf("shared %s dataset was modified: %+v", name, shared)
		}
	}
	check("miners", casestudy.Miners(), casestudy.MinerRecords())
	check("decoders", casestudy.Decoders(), casestudy.DecoderRecords())
	check("AlexNet", casestudy.FPGAImpls(casestudy.AlexNet), casestudy.FPGARecords(casestudy.AlexNet))
	check("VGG-16", casestudy.FPGAImpls(casestudy.VGG16), casestudy.FPGARecords(casestudy.VGG16))
	check("GPU", casestudy.GPUChips(), casestudy.GPURecords())
}
