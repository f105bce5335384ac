// Tracedkernel demonstrates the dynamic-trace front end: a kernel written
// as plain Go against the Tracer API becomes a dataflow graph with true
// memory dependences (Aladdin's DDDG approach), ready for the design-space
// simulator. The kernel here is a small blur-then-threshold image filter —
// something the static Table IV builders do not provide.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"accelwall/internal/aladdin"
	"accelwall/internal/sweep"
	"accelwall/internal/trace"
)

// buildFilter traces a 1D three-tap blur over n pixels followed by a
// threshold pass, with pixels living in memory.
func buildFilter(n int) (*trace.Tracer, error) {
	t := trace.New("traced/blur-threshold")
	const (
		src = 0x1000
		dst = 0x9000
	)
	third := t.Input("w") // tap weight
	threshold := t.Input("th")
	for i := 1; i < n-1; i++ {
		left := t.Load(src + uint64(i-1)*4)
		mid := t.Load(src + uint64(i)*4)
		right := t.Load(src + uint64(i+1)*4)
		blurred := t.Mul(t.Add(t.Add(left, mid), right), third)
		t.Store(dst+uint64(i)*4, blurred)
	}
	// Second pass: threshold the blurred image in place (RAW through dst).
	for i := 1; i < n-1; i++ {
		v := t.Load(dst + uint64(i)*4)
		t.Store(dst+uint64(i)*4, t.Cmp(v, threshold))
	}
	return t, nil
}

func main() {
	tr, err := buildFilter(66)
	if err != nil {
		log.Fatal(err)
	}
	g, err := tr.Graph()
	if err != nil {
		log.Fatal(err)
	}
	s := g.ComputeStats()
	fmt.Printf("traced kernel: %d vertices, %d edges, depth %d (two passes serialized through memory)\n\n",
		s.V, s.E, s.Depth)

	fmt.Println("== Schedule at a mid-grade design point ==")
	compiled, err := aladdin.Compile(g) // one analysis for the trace and the bank sweep
	if err != nil {
		log.Fatal(err)
	}
	sched, err := compiled.Trace(aladdin.Design{NodeNM: 16, Partition: 16, Simplification: 2, Fusion: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d cycles, %.0f energy units, utilization %.0f%%\nfirst ops:\n",
		sched.Result.Cycles, sched.Result.Energy, sched.Result.Utilization*100)
	if err := sched.WriteGantt(os.Stdout, 8); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n== Memory banking matters for this kernel ==")
	for _, banks := range []int{1, 4, 16} {
		r, err := compiled.Simulate(aladdin.Design{NodeNM: 16, Partition: 64, Simplification: 1, MemoryBanks: banks})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("banks %2d: %4d cycles\n", banks, r.Cycles)
	}

	fmt.Println("\n== Gain attribution for the traced kernel (Figure 14 machinery) ==")
	eng, err := sweep.NewEngine(g)
	if err != nil {
		log.Fatal(err)
	}
	a, err := eng.Attribute(context.Background(), "blur-threshold", sweep.Reduced(), sweep.Efficiency, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("efficiency gain %.0fx: CMOS %.0f%%, simplification %.0f%%, partitioning %.0f%%, heterogeneity %.0f%% (CSR %.2fx)\n",
		a.Total, a.PctCMOS, a.PctSimplification, a.PctPartitioning, a.PctHeterogeneity, a.CSR)
}
