package aladdin

import (
	"math"
	"testing"
	"unsafe"

	"accelwall/internal/cmos"
	"accelwall/internal/workloads"
)

// TestSimulateSteadyStateAllocs is the allocs-per-op regression gate on
// the per-design path the sweep pool runs: once the schedule-class cache
// and scratch pool are warm, Simulate must not grow the heap at all.
func TestSimulateSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse")
	}
	spec, err := workloads.ByAbbrev("FFT")
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	designs := equivalenceDesigns()[:8]
	for _, d := range designs { // warm cache + pool
		if _, err := c.Simulate(d); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(50, func() {
		for _, d := range designs {
			c.Simulate(d)
		}
	}); avg != 0 {
		t.Errorf("warm Simulate allocates %.1f objects per %d designs, want 0", avg, len(designs))
	}
}

// table3Designs is the full Table III lattice (sweep.Default's axes) in
// the sweep's (node, fusion, simplification, partition) order.
func table3Designs() []Design {
	var ds []Design
	for _, node := range []float64{45, 32, 22, 14, 10, 7, 5} {
		for _, fusion := range []bool{false, true} {
			for s := 1; s <= MaxSimplification; s++ {
				for p := 1; p <= MaxPartition; p *= 2 {
					ds = append(ds, Design{NodeNM: node, Partition: p, Simplification: s, Fusion: fusion})
				}
			}
		}
	}
	return ds
}

// TestEnergyMemoWarmMatchesCold pins the dynamic-energy memo's
// bit-identity on every workload: a second pass over the full Table III
// grid, in reverse order and served from the memo, equals the first pass
// on a cold Compiled bit for bit, and every memoized DynEnergy equals an
// unmemoized sumEnergy over the design's summary.
func TestEnergyMemoWarmMatchesCold(t *testing.T) {
	designs := table3Designs()
	for _, spec := range workloads.All() {
		g, err := spec.Build(0)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(g)
		if err != nil {
			t.Fatal(err)
		}
		cold := make([]Result, len(designs))
		for i, d := range designs {
			if cold[i], err = c.Simulate(d); err != nil {
				t.Fatal(err)
			}
		}
		for i := len(designs) - 1; i >= 0; i-- {
			d := designs[i]
			warm, err := c.Simulate(d)
			if err != nil {
				t.Fatal(err)
			}
			if warm != cold[i] {
				t.Fatalf("%s %+v: warm %+v != cold %+v", spec.Abbrev, d, warm, cold[i])
			}
			d.ClockGHz = 1
			node := cmos.MustLookup(d.NodeNM)
			sum := c.lookupSched(c.walkKey(d, node))
			if sum == nil {
				t.Fatalf("%s %+v: no summary after two passes", spec.Abbrev, d)
			}
			want := c.sumEnergy(sum, energyScale(d.Simplification)*node.DynEnergy())
			if math.Float64bits(warm.DynEnergy) != math.Float64bits(want) {
				t.Fatalf("%s %+v: memoized DynEnergy %v != summed %v", spec.Abbrev, d, warm.DynEnergy, want)
			}
		}
	}
}

// TestEnergyMemoBound pins the memo's stated size and bound: an
// energyMemo header is 24 B and its slab stops at maxEnergySums sums,
// summaries with no chained operation share the Compiled's one memo, and
// scales past the bound are still summed exactly.
func TestEnergyMemoBound(t *testing.T) {
	if size := unsafe.Sizeof(energyMemo{}); size != 24 {
		t.Errorf("energyMemo is %d B; maxEnergySums' comment states 24 B", size)
	}
	if size := unsafe.Sizeof(energySum{}); size != 16 {
		t.Errorf("energySum is %d B; maxEnergySums' comment states 16 B", size)
	}
	spec, err := workloads.ByAbbrev("FFT")
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	// Unfused designs never chain: 60 node values × 2 simplification
	// degrees of one pipeline-depth class give 120 scales on the shared
	// memo.
	for i := 0; i < 60; i++ {
		for _, s := range []int{1, 2} {
			d := Design{NodeNM: 5 + float64(i)*2.5, Partition: 16, Simplification: s, ClockGHz: 1}
			got, err := c.Simulate(d)
			if err != nil {
				t.Fatal(err)
			}
			node := cmos.MustLookup(d.NodeNM)
			want := c.sumEnergy(c.lookupSched(c.walkKey(d, node)), energyScale(s)*node.DynEnergy())
			if math.Float64bits(got.DynEnergy) != math.Float64bits(want) {
				t.Fatalf("%+v: DynEnergy %v != summed %v", d, got.DynEnergy, want)
			}
		}
	}
	if n, slab := c.unchained.n.Load(), len(*c.unchained.slab.Load()); n != maxEnergySums || slab != maxEnergySums {
		t.Errorf("shared memo holds %d sums in a %d-sum slab after 120 scales, want the bound %d", n, slab, maxEnergySums)
	}
	for _, d := range table3Designs() {
		if _, err := c.Simulate(d); err != nil {
			t.Fatal(err)
		}
	}
	memos := map[*energyMemo]bool{}
	for _, sum := range c.scheds {
		if (sum.fusedOps == 0) != (sum.energy == &c.unchained) {
			t.Errorf("summary %+v (fused ops %d) has the wrong memo", sum.key, sum.fusedOps)
		}
		memos[sum.energy] = true
	}
	if len(memos) > 1+maxSchedSummaries {
		t.Errorf("%d memos, bound %d", len(memos), 1+maxSchedSummaries)
	}
	bytes := 0
	for m := range memos {
		bytes += int(unsafe.Sizeof(*m)) + 24 + 16*len(*m.slab.Load())
	}
	t.Logf("FFT Table III grid: %d summaries, %d energy memos, %d B", len(c.scheds), len(memos), bytes)
}
