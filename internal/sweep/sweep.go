// Package sweep drives the specialization design-space exploration of
// Section VI: the Table III parameter sweep over partitioning factor,
// simplification degree, and CMOS process, executed with the Aladdin-style
// simulator, plus the analyses built on it — the runtime/power clouds of
// Figure 13 and the per-application gain attribution of Figure 14. Every
// operation is a ctx-taking method of Engine, the one memoized evaluator:
// NewEngine compiles a workload graph once, and RunCheckpointed (or
// RunContext), Attribute and Fig13 run on it.
//
// Gain attribution follows the paper's decomposition: starting from a
// 45 nm accelerator with no simplification or partitioning, knobs are
// enabled cumulatively (partitioning, then heterogeneity, then
// simplification, then CMOS advancement), and each concept is credited
// with the marginal gain of its stage. Because every stage's design space
// contains the previous one and each knob is individually non-harmful, the
// factors are all >= 1 and multiply to the total gain. The CSR of a design
// point is the product of the CMOS-independent factors — heterogeneity and
// simplification — since "both CMOS saving and partitioning (i.e., using
// more transistors for parallelization) are inherently CMOS dependent".
package sweep

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"accelwall/internal/aladdin"
)

// Objective selects the target function a sweep optimizes.
type Objective int

// The two target functions of the study.
const (
	Performance Objective = iota
	Efficiency
)

// String names the objective.
func (o Objective) String() string {
	switch o {
	case Performance:
		return "Performance"
	case Efficiency:
		return "Energy Efficiency"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// value extracts the objective's figure of merit from a simulation result
// (higher is better).
func (o Objective) value(r aladdin.Result) float64 {
	if o == Efficiency {
		return r.EnergyEfficiency()
	}
	return r.Throughput()
}

// Params is the swept parameter grid (Table III).
type Params struct {
	Nodes           []float64 // CMOS processes, nm
	Partitions      []int     // partitioning factors
	Simplifications []int     // simplification degrees
	Fusion          []bool    // heterogeneity settings to explore
}

// Default returns the full Table III grid: partitioning 1, 2, 4, ...,
// 524288; simplification 1..13; CMOS 45, 32, 22, 14, 10, 7, 5 nm; fusion
// both off and on.
func Default() Params {
	p := Params{
		Nodes:  []float64{45, 32, 22, 14, 10, 7, 5},
		Fusion: []bool{false, true},
	}
	for f := 1; f <= aladdin.MaxPartition; f *= 2 {
		p.Partitions = append(p.Partitions, f)
	}
	for s := 1; s <= aladdin.MaxSimplification; s++ {
		p.Simplifications = append(p.Simplifications, s)
	}
	return p
}

// Reduced returns a coarsened grid (every other node, power-of-four
// partitions, every third simplification degree) that preserves the sweep's
// shape at a fraction of the cost; used by tests and quick explorations.
func Reduced() Params {
	p := Params{
		Nodes:           []float64{45, 22, 10, 5},
		Simplifications: []int{1, 4, 7, 10, 13},
		Fusion:          []bool{false, true},
	}
	for f := 1; f <= aladdin.MaxPartition; f *= 4 {
		p.Partitions = append(p.Partitions, f)
	}
	return p
}

// Validate reports the first problem with the grid.
func (p Params) Validate() error {
	if len(p.Nodes) == 0 || len(p.Partitions) == 0 || len(p.Simplifications) == 0 || len(p.Fusion) == 0 {
		return errors.New("sweep: empty parameter axis")
	}
	for _, f := range p.Partitions {
		if f < 1 || f > aladdin.MaxPartition {
			return fmt.Errorf("sweep: partition factor %d outside Table III range", f)
		}
	}
	for _, s := range p.Simplifications {
		if s < 1 || s > aladdin.MaxSimplification {
			return fmt.Errorf("sweep: simplification degree %d outside Table III range", s)
		}
	}
	return nil
}

// Point is one simulated design point.
type Point struct {
	Design aladdin.Design
	Result aladdin.Result
}

// enumerate returns the grid's design points in deterministic sweep
// order: (node, fusion, simplification, partition). Every grid run
// assembles its points in this order, whatever the pool width.
func (p Params) enumerate() []aladdin.Design {
	out := make([]aladdin.Design, 0, len(p.Nodes)*len(p.Fusion)*len(p.Simplifications)*len(p.Partitions))
	for _, node := range p.Nodes {
		for _, fusion := range p.Fusion {
			for _, s := range p.Simplifications {
				for _, f := range p.Partitions {
					out = append(out, aladdin.Design{NodeNM: node, Partition: f, Simplification: s, Fusion: fusion})
				}
			}
		}
	}
	return out
}

// normalizeKey maps a design onto its simulation cache key: the partition
// plateau is clamped to the workload's computation-node count, and the
// zero-value defaults (ClockGHz 0 meaning 1 GHz, MemoryBanks 0 meaning
// banked with the datapath) are spelled out so that a zero and its explicit
// default share one cache slot.
func normalizeKey(maxP int, d aladdin.Design) aladdin.Design {
	if d.Partition > maxP {
		d.Partition = maxP
	}
	if d.ClockGHz == 0 {
		d.ClockGHz = 1
	}
	if d.MemoryBanks == 0 {
		d.MemoryBanks = d.Partition
	}
	return d
}

// Best returns the point maximizing the objective. Ties resolve to the
// earliest point in sweep order, making results deterministic.
func Best(points []Point, o Objective) (Point, error) {
	if len(points) == 0 {
		return Point{}, errors.New("sweep: no points")
	}
	best := points[0]
	bv := o.value(best.Result)
	for _, pt := range points[1:] {
		if v := o.value(pt.Result); v > bv {
			best, bv = pt, v
		}
	}
	return best, nil
}

// Fig13Row is one design point of the Figure 13 runtime/power cloud.
type Fig13Row struct {
	NodeNM         float64
	Partition      int
	Simplification int
	Fusion         bool
	RuntimeNS      float64
	PowerW         float64
	EnergyEff      float64
}

// Attribution decomposes a workload's optimal gain into the contributions
// of the four sources of Figure 14.
type Attribution struct {
	App       string
	Objective Objective

	// Multiplicative gain factors; their product is Total.
	Partitioning   float64
	Heterogeneity  float64
	Simplification float64
	CMOS           float64
	Total          float64

	// Log-space percentage shares (each >= 0, summing to 100 when Total > 1).
	PctPartitioning   float64
	PctHeterogeneity  float64
	PctSimplification float64
	PctCMOS           float64

	// CSR is the CMOS-independent return: heterogeneity × simplification.
	CSR float64

	Baseline aladdin.Result
	Best     aladdin.Result
}

// FrontierPoint is one efficient design on the runtime/power trade-off.
type FrontierPoint struct {
	Design    aladdin.Design
	RuntimeNS float64
	PowerW    float64
}

// DesignFrontier extracts the Pareto-efficient designs of a sweep in the
// Figure 13 runtime/power plane: a design survives if no other design is
// both faster and lower-power. The result is sorted by ascending runtime
// (and therefore descending power).
func DesignFrontier(points []Point) []FrontierPoint {
	if len(points) == 0 {
		return nil
	}
	sorted := make([]Point, len(points))
	copy(sorted, points)
	sort.Slice(sorted, func(i, j int) bool {
		ri, rj := sorted[i].Result.RuntimeNS, sorted[j].Result.RuntimeNS
		if ri != rj {
			return ri < rj
		}
		return sorted[i].Result.Power < sorted[j].Result.Power
	})
	var out []FrontierPoint
	bestPower := math.Inf(1)
	for _, pt := range sorted {
		if pt.Result.Power < bestPower {
			out = append(out, FrontierPoint{
				Design:    pt.Design,
				RuntimeNS: pt.Result.RuntimeNS,
				PowerW:    pt.Result.Power,
			})
			bestPower = pt.Result.Power
		}
	}
	return out
}
