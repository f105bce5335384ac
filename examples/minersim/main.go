// Minersim closes the loop between the paper's two methodologies on the
// Bitcoin domain: it takes an actual SHA-256 double-hash dataflow graph,
// sweeps miner ASIC design points with the Section VI simulator, and sets
// the resulting design-space picture against the Section IV empirical CSR
// study and the Section VII wall projection.
package main

import (
	"context"
	"fmt"
	"log"

	"accelwall/internal/aladdin"
	"accelwall/internal/casestudy"
	"accelwall/internal/gains"
	"accelwall/internal/projection"
	"accelwall/internal/sweep"
	"accelwall/internal/workloads"
)

func main() {
	kernel, err := workloads.DomainKernelByName("SHA256d")
	if err != nil {
		log.Fatal(err)
	}
	g, err := kernel.Build(4) // four parallel nonce attempts
	if err != nil {
		log.Fatal(err)
	}
	stats := g.ComputeStats()
	fmt.Printf("SHA256d DFG: %d vertices, %d edges, depth %d (the serial round chain), max width %d\n\n",
		stats.V, stats.E, stats.Depth, stats.MaxWS)

	fmt.Println("== Miner design points across CMOS nodes (hash engine at 1 GHz ref clock) ==")
	fmt.Println("   (newer nodes chain more logic per cycle, so cycles fall with the node)")
	fmt.Printf("%-6s %-10s %-10s %-12s %-12s\n", "node", "partition", "cycles", "energy", "hashes/ns")
	eng, err := sweep.NewEngine(g) // one analysis for the design points and the attribution
	if err != nil {
		log.Fatal(err)
	}
	for _, node := range []float64{130, 55, 28, 16, 7, 5} {
		r, err := eng.EvaluateContext(context.Background(), aladdin.Design{NodeNM: node, Partition: 512, Simplification: 2, Fusion: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%4.0fnm %-10d %-10d %-12.0f %-12.4f\n", node, 512, r.Cycles, r.Energy, r.Throughput())
	}

	fmt.Println("\n== What the design space says about mining (gain attribution) ==")
	for _, objective := range []sweep.Objective{sweep.Performance, sweep.Efficiency} {
		a, err := eng.Attribute(context.Background(), "SHA256d", sweep.Reduced(), objective, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: total %.0fx — partitioning %.0f%%, CMOS %.0f%%, heterogeneity %.0f%%, simplification %.0f%% (CSR %.2fx)\n",
			objective, a.Total, a.PctPartitioning, a.PctCMOS, a.PctHeterogeneity, a.PctSimplification, a.CSR)
	}

	fmt.Println("\n== What the empirical record says (Figure 1) ==")
	rows, err := casestudy.Fig1()
	if err != nil {
		log.Fatal(err)
	}
	last := rows[len(rows)-1]
	fmt.Printf("ASICs improved %.0fx; transistor physics alone explains %.0fx; CSR %.2fx\n",
		last.RelPerformance, last.TransistorPerformance, last.CSR)

	fmt.Println("\n== And where it ends (the wall, Figures 15d/16d) ==")
	for _, target := range []gains.Target{gains.TargetThroughput, gains.TargetEfficiency} {
		p, err := projection.Project(casestudy.DomainBitcoin, target)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s headroom %.1f-%.1fx beyond today's best\n", target, p.RemainLog, p.RemainLinear)
	}

	fmt.Println("\nAll three views agree: mining gains are transistor physics plus brute-force")
	fmt.Println("parallelism over a fixed hash function; when the 5nm node lands, the domain")
	fmt.Println("has single-digit headroom left.")
}
