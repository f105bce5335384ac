package sweep

import (
	"context"
	"math"
	"testing"

	"accelwall/internal/workloads"
)

// TestResultsFinite shows that every figure the simulator produces is
// finite, for every kernel workloads.Lookup resolves over the full Table
// III grid. That is what lets ReadResult treat a non-finite figure as a
// corrupt payload rather than as a result some caller might legitimately
// restore.
func TestResultsFinite(t *testing.T) {
	var names []string
	for _, s := range workloads.All() {
		names = append(names, s.Abbrev)
	}
	for _, v := range workloads.Variants() {
		names = append(names, v.Base+"/"+v.Name)
	}
	for _, k := range workloads.DomainKernels() {
		names = append(names, k.Name)
	}
	if len(names) != 24 {
		t.Fatalf("%d kernels, want the 24 workloads.Lookup resolves", len(names))
	}
	for _, name := range names {
		build, err := workloads.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := build(0)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(g)
		if err != nil {
			t.Fatal(err)
		}
		points, err := e.RunContext(context.Background(), Default(), 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, p := range points {
			r := p.Result
			for _, v := range []float64{r.RuntimeNS, r.DynEnergy, r.LeakEnergy, r.Energy, r.Power, r.Area, r.Utilization} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s %+v: non-finite result %+v", name, p.Design, r)
				}
			}
		}
	}
}
