// Package cmos models CMOS device scaling from the 180 nm node down to the
// projected final 5 nm node.
//
// The paper (Section III) builds its device-scaling model from contemporary
// scaling equations (Stillmaker & Baas, "Scaling equations for the accurate
// prediction of CMOS device performance from 180 nm to 7 nm") together with
// IRDS 2017 projections for 5 nm. Those sources give per-node factors for
// transistor density, switching speed, supply voltage, gate capacitance,
// dynamic power, and leakage power. This package encodes a node table
// calibrated to reproduce the relative curves the paper plots in Figure 3a
// (normalized so 45 nm = 1 for every metric) and exposes geometric
// interpolation for intermediate nodes, since real chips are fabricated at
// many more nodes (55 nm, 40 nm, 22 nm, ...) than scaling papers tabulate.
//
// All factors are *relative* quantities: downstream models (transistor
// budgets, chip gains) combine them with per-domain calibration constants,
// exactly as the paper's CMOS potential model does.
package cmos

import (
	"errors"
	"fmt"
)

// FinalNode is the last CMOS node the paper projects ("currently projected
// to be 5nm [IRDS 2017]"). The accelerator wall is evaluated at this node.
const FinalNode = 5.0

// ReferenceNode is the node every relative metric is normalized to, matching
// the 45 nm baseline of Figure 3a and the 45 nm / 25 mm² chip-gain baseline
// of Figure 3d.
const ReferenceNode = 45.0

// ErrUnknownNode is returned for nodes outside the modeled 180–5 nm range.
var ErrUnknownNode = errors.New("cmos: node outside modeled 180nm-5nm range")

// Node holds the device-level scaling factors of one CMOS process node. All
// fields except NM are unitless ratios normalized to the 45 nm node.
type Node struct {
	NM   float64 // feature size in nanometers
	Freq float64 // relative transistor switching speed (45 nm = 1)
	VDD  float64 // relative supply voltage (45 nm = 1)
	Cap  float64 // relative gate capacitance (45 nm = 1)
	Leak float64 // relative per-transistor leakage power (45 nm = 1)
}

// table lists the modeled nodes in descending feature size. Values follow
// Stillmaker & Baas scaling shapes with the 5 nm point taken from the IRDS
// projection the paper uses; each column is normalized so the 45 nm entry
// equals 1.
var table = []Node{
	{NM: 180, Freq: 0.32, VDD: 1.80, Cap: 4.00, Leak: 2.20},
	{NM: 130, Freq: 0.44, VDD: 1.30, Cap: 2.90, Leak: 1.90},
	{NM: 110, Freq: 0.52, VDD: 1.25, Cap: 2.45, Leak: 1.70},
	{NM: 90, Freq: 0.61, VDD: 1.20, Cap: 2.00, Leak: 1.50},
	{NM: 65, Freq: 0.80, VDD: 1.10, Cap: 1.45, Leak: 1.20},
	{NM: 55, Freq: 0.90, VDD: 1.05, Cap: 1.20, Leak: 1.10},
	{NM: 45, Freq: 1.00, VDD: 1.00, Cap: 1.00, Leak: 1.00},
	{NM: 40, Freq: 1.06, VDD: 0.95, Cap: 0.90, Leak: 0.95},
	{NM: 32, Freq: 1.20, VDD: 0.90, Cap: 0.72, Leak: 0.85},
	{NM: 28, Freq: 1.30, VDD: 0.85, Cap: 0.63, Leak: 0.76},
	{NM: 22, Freq: 1.45, VDD: 0.80, Cap: 0.50, Leak: 0.66},
	{NM: 20, Freq: 1.50, VDD: 0.78, Cap: 0.45, Leak: 0.62},
	{NM: 16, Freq: 1.70, VDD: 0.75, Cap: 0.37, Leak: 0.52},
	{NM: 14, Freq: 1.80, VDD: 0.72, Cap: 0.32, Leak: 0.48},
	{NM: 12, Freq: 1.90, VDD: 0.70, Cap: 0.28, Leak: 0.44},
	{NM: 10, Freq: 2.00, VDD: 0.68, Cap: 0.24, Leak: 0.40},
	{NM: 7, Freq: 2.30, VDD: 0.65, Cap: 0.18, Leak: 0.33},
	{NM: 5, Freq: 2.60, VDD: 0.62, Cap: 0.14, Leak: 0.27},
}

// densityK calibrates transistor density: Density(N) = densityK / N² in
// millions of transistors per mm². At 45 nm this yields ~3.3 MTr/mm²,
// consistent with late-2000s CPU datasheets (the corpus the paper's budget
// model is fitted on).
const densityK = 6600.0

// Nodes returns the feature sizes of every modeled node in descending order
// (180 nm first, 5 nm last). The returned slice is a copy.
func Nodes() []float64 {
	out := make([]float64, len(table))
	for i, n := range table {
		out[i] = n.NM
	}
	return out
}

// Fig3aNodes lists the nodes Figure 3a plots its five scaling curves over.
func Fig3aNodes() []float64 { return []float64{45, 28, 16, 10, 7, 5} }

// Lookup returns the scaling factors for the given feature size in
// nanometers. Nodes between table entries are geometrically interpolated in
// log-feature-size space; nodes outside [5, 180] return ErrUnknownNode.
func Lookup(nm float64) (Node, error) {
	return defaultTable.Lookup(nm)
}

// MustLookup is Lookup for nodes known to be in range; it panics otherwise.
// It exists for the experiment drivers whose node lists are compile-time
// constants.
func MustLookup(nm float64) Node {
	n, err := Lookup(nm)
	if err != nil {
		panic(err)
	}
	return n
}

// Density returns the transistor density of the node in millions of
// transistors per mm², following the classical 1/N² area scaling the
// paper's density factor D = Area/Node² assumes.
func (n Node) Density() float64 { return densityK / (n.NM * n.NM) }

// DynEnergy returns the relative dynamic energy per switching event,
// proportional to C·V² (45 nm = 1).
func (n Node) DynEnergy() float64 { return n.Cap * n.VDD * n.VDD }

// DynPower returns the relative dynamic power per transistor at the node's
// nominal frequency, proportional to C·V²·f (45 nm = 1).
func (n Node) DynPower() float64 { return n.DynEnergy() * n.Freq }

// LeakPower returns the relative per-transistor leakage (static) power
// (45 nm = 1).
func (n Node) LeakPower() float64 { return n.Leak }

// Metric identifies one of the five device curves of Figure 3a.
type Metric int

// The five metrics plotted in Figure 3a.
const (
	MetricLeakage Metric = iota
	MetricCapacitance
	MetricVDD
	MetricFrequency
	MetricDynPower
)

var metricNames = map[Metric]string{
	MetricLeakage:     "Leakage Power",
	MetricCapacitance: "Capacitance",
	MetricVDD:         "VDD",
	MetricFrequency:   "Frequency",
	MetricDynPower:    "Dynamic Power",
}

// String returns the metric's display name as used in Figure 3a panels.
func (m Metric) String() string {
	if s, ok := metricNames[m]; ok {
		return s
	}
	return fmt.Sprintf("Metric(%d)", int(m))
}

// Metrics returns the five Figure 3a metrics in panel order.
func Metrics() []Metric {
	return []Metric{MetricLeakage, MetricCapacitance, MetricVDD, MetricFrequency, MetricDynPower}
}

// Value returns the node's value for the metric, normalized to 45 nm = 1.
// Figure 3a plots every curve on a 0.25–1.0 relative axis; metrics that
// improve (shrink) toward newer nodes are reported directly, while frequency
// — which grows — is reported relative to the final node so that, like the
// paper's panel, the curve spans the same declining axis when read from the
// final node's perspective.
func (n Node) Value(m Metric) (float64, error) {
	switch m {
	case MetricLeakage:
		return n.Leak, nil
	case MetricCapacitance:
		return n.Cap, nil
	case MetricVDD:
		return n.VDD, nil
	case MetricFrequency:
		return n.Freq, nil
	case MetricDynPower:
		return n.DynPower(), nil
	default:
		return 0, fmt.Errorf("cmos: unknown metric %d", int(m))
	}
}

// Fig3aRow is one (node, metric, value) sample of the Figure 3a curves.
type Fig3aRow struct {
	Metric Metric
	NodeNM float64
	Value  float64 // normalized so the 45 nm entry of each metric equals 1
}

// Fig3a reproduces the data behind Figure 3a: for each of the five device
// metrics, the relative value at each plotted node, normalized to 45 nm.
func Fig3a() ([]Fig3aRow, error) {
	var rows []Fig3aRow
	for _, m := range Metrics() {
		for _, nm := range Fig3aNodes() {
			n, err := Lookup(nm)
			if err != nil {
				return nil, err
			}
			v, err := n.Value(m)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig3aRow{Metric: m, NodeNM: nm, Value: v})
		}
	}
	return rows, nil
}

// Era buckets a node into one of the four datasheet eras the paper groups
// its transistor-count regression by in Figure 3b: 180–90 nm, 80–45 nm,
// 40–20 nm, and 16–12 nm (extended downward to cover projections).
type Era int

// The four node eras of Figure 3b plus a projection era for 10–5 nm.
const (
	Era180to90 Era = iota
	Era80to45
	Era40to20
	Era16to12
	Era10to5
)

var eraNames = map[Era]string{
	Era180to90: "180nm-90nm",
	Era80to45:  "80nm-45nm",
	Era40to20:  "40nm-20nm",
	Era16to12:  "16nm-12nm",
	Era10to5:   "10nm-5nm",
}

// String returns the era label as printed in the Figure 3b legend.
func (e Era) String() string {
	if s, ok := eraNames[e]; ok {
		return s
	}
	return fmt.Sprintf("Era(%d)", int(e))
}

// EraOf returns the datasheet era containing the node, or an error if the
// node is outside the modeled range.
func EraOf(nm float64) (Era, error) {
	switch {
	case nm > 180 || nm < 5:
		return 0, fmt.Errorf("%w: %g nm", ErrUnknownNode, nm)
	case nm >= 90:
		return Era180to90, nil
	case nm >= 45:
		return Era80to45, nil
	case nm >= 20:
		return Era40to20, nil
	case nm >= 12:
		return Era16to12, nil
	default:
		return Era10to5, nil
	}
}

// Eras returns all eras in chronological (oldest first) order.
func Eras() []Era { return []Era{Era180to90, Era80to45, Era40to20, Era16to12, Era10to5} }
