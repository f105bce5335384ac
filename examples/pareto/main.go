// Pareto walks through the guided design-space search subsystem
// (internal/search): it runs both strategies — NSGA-II and successive
// halving — over the attention kernel's Table III knob space, shows how
// little of the space they evaluate, cross-checks the two independently
// derived frontiers against each other, demonstrates bit-identical
// determinism across worker counts, and finishes with a constrained
// search whose frontier respects a power budget. (The exhaustive
// ground-truth comparison lives in internal/search/coverage_test.go and
// BENCH_search.json: the default configuration recovers the full Table
// III frontier from ~22% of the grid.)
package main

import (
	"context"
	"fmt"
	"log"

	"accelwall/internal/search"
	"accelwall/internal/sweep"
	"accelwall/internal/workloads"
)

func main() {
	spec, err := workloads.ByAbbrev("ATT")
	if err != nil {
		log.Fatal(err)
	}
	g, err := spec.Build(0)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := sweep.NewEngine(g)
	if err != nil {
		log.Fatal(err)
	}

	space := search.TableIII()
	fmt.Printf("workload %s (scaled dot-product attention), knob space: %d designs\n\n",
		spec.Abbrev, space.Size())

	// Both guided strategies at their default budgets. They explore the
	// space in completely different ways — evolutionary recombination vs
	// lattice refinement — so frontier agreement between them is strong
	// evidence both found the real one.
	key := func(p search.Point) string { return fmt.Sprintf("%v|%v", p.Design, p.Values) }
	frontiers := make([]map[string]bool, 2)
	for i, cfg := range []search.Config{
		{Strategy: search.NSGA2},
		{Strategy: search.Halving},
	} {
		res, err := search.RunContext(context.Background(), eng, cfg)
		if err != nil {
			log.Fatal(err)
		}
		frontiers[i] = make(map[string]bool, len(res.Frontier))
		for _, p := range res.Frontier {
			frontiers[i][key(p)] = true
		}
		fmt.Printf("%-8v %4d evaluations (%4.1f%% of the space), frontier %2d points\n",
			res.Strategy, res.Evaluations,
			100*float64(res.Evaluations)/float64(res.SpaceSize), len(res.Frontier))
	}
	agree := 0
	for k := range frontiers[0] {
		if frontiers[1][k] {
			agree++
		}
	}
	fmt.Printf("frontier agreement between the two strategies: %d/%d points\n\n",
		agree, len(frontiers[0]))

	// Determinism: the same seed is bit-identical at any worker count —
	// every stochastic choice draws from a per-(generation, slot) PRNG
	// substream and all selection runs on the coordinator.
	one, err := search.RunContext(context.Background(), eng, search.Config{Seed: 42, Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	eight, err := search.RunContext(context.Background(), eng, search.Config{Seed: 42, Workers: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("seed 42 at 1 vs 8 workers: frontiers identical = %v\n\n",
		fmt.Sprint(one.Frontier) == fmt.Sprint(eight.Frontier))

	// A constrained search: cap power and trade energy-delay product
	// against energy efficiency. Constrained domination makes every
	// feasible design dominate every infeasible one, so the frontier
	// stays inside the budget whenever the space allows it.
	const maxPower = 2.5
	res, err := search.RunContext(context.Background(), eng, search.Config{
		Objectives:  []search.Objective{search.EDP, search.Efficiency},
		Constraints: search.Constraints{MaxPowerW: maxPower},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("EDP/efficiency frontier under power <= %gW (%d points):\n", maxPower, len(res.Frontier))
	fmt.Printf("%8s %10s %6s %12s %12s %8s\n", "node", "partition", "simpl", "edp", "efficiency", "power")
	for _, p := range res.Frontier {
		fmt.Printf("%6gnm %10d %6d %12.4g %12.4g %8.3f\n",
			p.Design.NodeNM, p.Design.Partition, p.Design.Simplification,
			p.Values[0], p.Values[1], p.Result.Power)
	}
}
