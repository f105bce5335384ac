// Package aladdin implements the pre-RTL accelerator simulator used for the
// specialization design-space exploration of Section VI.
//
// Like the original Aladdin tool the paper builds on, the simulator takes a
// workload's dataflow graph and an accelerator design point and produces
// pre-RTL estimates of runtime, power, energy, and area. The design knobs
// are exactly the specialization concepts of Section V as swept in
// Table III:
//
//   - Partitioning: the number of replicated datapath/memory lanes, i.e.
//     how many operations may issue per cycle. Swept 1, 2, 4, ... 524288.
//   - Simplification: the degree of datapath/register/communication
//     simplification, 1..13. Higher degrees shave switching energy and
//     leakage area but add pipeline latency ("increased latency due to
//     deep pipelining").
//   - Heterogeneity: operation fusion — chains of dependent single-cycle
//     operations packed into one cycle, with a chain window that widens on
//     faster CMOS nodes ("more computation units are fused and scheduled
//     in a cycle").
//   - CMOS process: the node scales cycle time, per-op switching energy,
//     and leakage through the device model of package cmos.
//
// The scheduler is a static critical-path-first list scheduler over the
// DFG, whose vertex IDs the dfg builder numbers topologically: operations
// are placed one at a time in order of their longest downstream latency
// path (ties by ID), each at the earliest cycle its operands are ready and
// a lane — and, for loads and stores, a memory bank port — is free;
// functional units are fully pipelined. Runtime, dynamic energy, leakage
// energy, power, and area fall out of the schedule; all values are in
// consistent model units (cycle time in ns, energy in adder-cell units), so
// ratios across design points — the only quantity the study consumes — are
// meaningful.
package aladdin

import (
	"fmt"
	"math"

	"accelwall/internal/cmos"
	"accelwall/internal/dfg"
)

// Table III sweep bounds.
const (
	MaxPartition      = 524288
	MaxSimplification = 13
)

// leakPerAreaNS calibrates leakage: static power per area unit (in
// adder-cell units) per nanosecond at the 45 nm reference node. The value
// puts baseline leakage near 20% of dynamic power, the regime mid-2000s
// accelerators operated in.
const leakPerAreaNS = 0.002

// regArea is the storage area (registers/SRAM cells) provisioned per
// working-set variable, in adder-cell units.
const regArea = 0.5

// bankArea is the interface area of one memory bank (decoder, sense
// amplifiers, port wiring), in adder-cell units.
const bankArea = 2.0

// fusedEnergyScale discounts the switching energy of a chained operation:
// fusion removes its pipeline-register and control overhead.
const fusedEnergyScale = 0.9

// Design is one accelerator design point.
type Design struct {
	NodeNM         float64 // CMOS process node, nm
	Partition      int     // lanes: operations issued per cycle (>= 1)
	Simplification int     // simplification degree, 1..13
	Fusion         bool    // heterogeneity: enable operation chaining
	ClockGHz       float64 // reference clock at 45 nm; 0 selects 1 GHz
	// MemoryBanks bounds concurrent memory operations (loads/stores) per
	// cycle — the memory-partitioning concept of Table I. Zero means
	// "banked with the datapath": banks equal the partition factor, which
	// is how the original Aladdin flow couples memory banking to
	// unrolling. Explicit values model asymmetric designs (wide datapath
	// on a narrow memory system and vice versa).
	MemoryBanks int
}

// Validate reports the first problem with the design point.
func (d Design) Validate() error {
	if d.Partition < 1 || d.Partition > MaxPartition {
		return fmt.Errorf("aladdin: partition factor %d outside [1, %d]", d.Partition, MaxPartition)
	}
	if d.Simplification < 1 || d.Simplification > MaxSimplification {
		return fmt.Errorf("aladdin: simplification degree %d outside [1, %d]", d.Simplification, MaxSimplification)
	}
	if d.ClockGHz < 0 {
		return fmt.Errorf("aladdin: negative clock %g", d.ClockGHz)
	}
	if d.MemoryBanks < 0 || d.MemoryBanks > MaxPartition {
		return fmt.Errorf("aladdin: memory banks %d outside [0, %d]", d.MemoryBanks, MaxPartition)
	}
	if _, err := cmos.Lookup(d.NodeNM); err != nil {
		return err
	}
	return nil
}

// energyScale returns the per-op switching-energy factor of a
// simplification degree: each degree narrows datapaths and registers for a
// compounding 8% saving.
func energyScale(deg int) float64 { return math.Pow(0.92, float64(deg-1)) }

// areaScale returns the unit-area factor of a simplification degree.
func areaScale(deg int) float64 { return math.Pow(0.94, float64(deg-1)) }

// extraLatency returns the pipeline-depth penalty of a simplification
// degree in cycles, added to every operation. This is the "diminishing
// returns (i.e., increased latency due to deep pipelining)" at high
// degrees.
func extraLatency(deg int) int { return (deg - 1) / 4 }

// fusionWindow returns how many dependent single-cycle operations fit in
// one cycle on the node: faster transistors chain deeper. Without fusion
// the window is 1 (no chaining).
func fusionWindow(node cmos.Node, fusion bool) int {
	if !fusion {
		return 1
	}
	w := int(node.Freq * 2)
	if w < 1 {
		w = 1
	}
	return w
}

// Result is the simulator's estimate for one (workload, design) pair.
type Result struct {
	Design Design

	Cycles      int     // schedule length
	RuntimeNS   float64 // Cycles × cycle time
	DynEnergy   float64 // switching energy, adder-cell units
	LeakEnergy  float64 // static energy over the runtime
	Energy      float64 // DynEnergy + LeakEnergy
	Power       float64 // Energy / RuntimeNS
	Area        float64 // lanes + storage, adder-cell units
	Utilization float64 // issued ops / (lanes × cycles)
	FusedOps    int     // operations that issued by chaining
}

// Throughput returns kernel executions per nanosecond — the performance
// target function of the sweep.
func (r Result) Throughput() float64 { return 1 / r.RuntimeNS }

// EnergyEfficiency returns kernel executions per energy unit — the
// efficiency target function of the sweep.
func (r Result) EnergyEfficiency() float64 { return 1 / r.Energy }

// Simulate schedules the graph onto the design point and returns the
// pre-RTL estimates. The graph must be valid (workload builders guarantee
// this); the design is validated here.
//
// Simulate is a compatibility wrapper that compiles the graph on every
// call. Sweeps that evaluate many design points on one graph should call
// Compile once and use Compiled.Simulate, which amortizes the graph
// analysis and reuses pooled scheduling buffers across points.
func Simulate(g *dfg.Graph, d Design) (Result, error) {
	c, err := Compile(g)
	if err != nil {
		return Result{}, err
	}
	return c.Simulate(d)
}
