// Package dfg implements the dataflow-graph representation of computation
// problems used throughout Section V of the paper.
//
// A DFG is a directed acyclic graph whose vertices are input variables
// (no incoming edges), output variables (no outgoing edges), and
// computation nodes (both). It captures a problem's inherent structure —
// data dependencies only — with no implementation-medium restrictions,
// which is what makes it the right object for reasoning about the limits of
// chip specialization: "DFG optimization [is] a useful way to model the
// design space visible to the specialization stack layers".
//
// The package provides construction, validation, the graph statistics the
// paper defines (input/output sets, computation paths, depth, per-stage
// working sets), and the Table II time/space complexity bounds of the three
// specialization concepts (simplification, partitioning, heterogeneity)
// applied to the three processing components (memory, communication,
// computation).
package dfg

import (
	"errors"
	"fmt"
)

// Op classifies a DFG vertex. Input and Output are structural; the rest are
// computation operations with hardware cost metadata consumed by the
// Aladdin-style scheduler.
type Op int

// Vertex operation kinds.
const (
	OpInput Op = iota
	OpOutput
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpCmp
	OpLogic
	OpShift
	OpLoad
	OpStore
	OpSqrt
	OpNonlinear // algorithm-specific unit (activation functions, hashes, ...)
	OpFused     // supernode produced by computation-heterogeneity fusion
)

// opInfo carries display name plus the default hardware cost model: latency
// in scheduler cycles, switching energy and area in units of a 1-bit adder
// cell. Values follow the relative functional-unit costs of the
// energy-efficient FPU design literature the paper extends Aladdin with.
type opInfo struct {
	name    string
	latency int
	energy  float64
	area    float64
}

var opTable = map[Op]opInfo{
	OpInput:     {name: "input", latency: 0, energy: 0, area: 0},
	OpOutput:    {name: "output", latency: 0, energy: 0, area: 0},
	OpAdd:       {name: "add", latency: 1, energy: 1, area: 1},
	OpSub:       {name: "sub", latency: 1, energy: 1, area: 1},
	OpMul:       {name: "mul", latency: 3, energy: 4, area: 6},
	OpDiv:       {name: "div", latency: 16, energy: 16, area: 12},
	OpCmp:       {name: "cmp", latency: 1, energy: 0.6, area: 0.6},
	OpLogic:     {name: "logic", latency: 1, energy: 0.4, area: 0.4},
	OpShift:     {name: "shift", latency: 1, energy: 0.5, area: 0.7},
	OpLoad:      {name: "load", latency: 2, energy: 2.5, area: 0.5},
	OpStore:     {name: "store", latency: 2, energy: 2.5, area: 0.5},
	OpSqrt:      {name: "sqrt", latency: 20, energy: 20, area: 14},
	OpNonlinear: {name: "nonlinear", latency: 8, energy: 10, area: 10},
	OpFused:     {name: "fused", latency: 1, energy: 0.8, area: 2},
}

// String returns the operation mnemonic.
func (op Op) String() string {
	if info, ok := opTable[op]; ok {
		return info.name
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// Latency returns the operation's default latency in cycles.
func (op Op) Latency() int { return opTable[op].latency }

// Energy returns the operation's default switching energy in adder-cell
// units.
func (op Op) Energy() float64 { return opTable[op].energy }

// Area returns the operation's default area in adder-cell units.
func (op Op) Area() float64 { return opTable[op].area }

// IsCompute reports whether the operation is a computation node kind (not a
// structural input/output).
func (op Op) IsCompute() bool { return op != OpInput && op != OpOutput }

// NodeID identifies a vertex within one graph.
type NodeID int

// Node is one DFG vertex.
type Node struct {
	ID    NodeID
	Op    Op
	Label string
}

// Graph is a dataflow graph. Construct with New and the Add* methods; the
// builder only allows edges from existing vertices to new ones, so graphs
// are acyclic by construction and vertex IDs form a topological order.
type Graph struct {
	Name  string
	nodes []Node
	succ  [][]NodeID
	pred  [][]NodeID
	edges int
}

// New returns an empty named graph.
func New(name string) *Graph {
	return &Graph{Name: name}
}

// ErrBadGraph is returned by Validate for structurally broken graphs and by
// builders for invalid arguments.
var ErrBadGraph = errors.New("dfg: invalid graph")

func (g *Graph) add(op Op, label string, preds []NodeID) (NodeID, error) {
	for _, p := range preds {
		if int(p) < 0 || int(p) >= len(g.nodes) {
			return 0, fmt.Errorf("%w: predecessor %d of new %v node does not exist", ErrBadGraph, p, op)
		}
		if g.nodes[p].Op == OpOutput {
			return 0, fmt.Errorf("%w: output vertex %d cannot have successors", ErrBadGraph, p)
		}
	}
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Op: op, Label: label})
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, append([]NodeID(nil), preds...))
	for _, p := range preds {
		g.succ[p] = append(g.succ[p], id)
		g.edges++
	}
	return id, nil
}

// AddInput appends an input variable vertex.
func (g *Graph) AddInput(label string) NodeID {
	id, _ := g.add(OpInput, label, nil)
	return id
}

// AddOp appends a computation node consuming the given predecessors. The
// operation must be a compute kind and at least one predecessor is
// required.
func (g *Graph) AddOp(op Op, preds ...NodeID) (NodeID, error) {
	if !op.IsCompute() {
		return 0, fmt.Errorf("%w: AddOp requires a compute op, got %v", ErrBadGraph, op)
	}
	if len(preds) == 0 {
		return 0, fmt.Errorf("%w: compute node needs at least one predecessor", ErrBadGraph)
	}
	return g.add(op, "", preds)
}

// MustOp is AddOp for statically correct construction code; it panics on
// builder misuse.
func (g *Graph) MustOp(op Op, preds ...NodeID) NodeID {
	id, err := g.AddOp(op, preds...)
	if err != nil {
		panic(err)
	}
	return id
}

// AddOutput appends an output variable vertex consuming pred.
func (g *Graph) AddOutput(label string, pred NodeID) (NodeID, error) {
	return g.add(OpOutput, label, []NodeID{pred})
}

// MustOutput is AddOutput panicking on builder misuse.
func (g *Graph) MustOutput(label string, pred NodeID) NodeID {
	id, err := g.AddOutput(label, pred)
	if err != nil {
		panic(err)
	}
	return id
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.nodes) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return g.edges }

// Node returns the vertex with the given ID.
func (g *Graph) Node(id NodeID) (Node, error) {
	if int(id) < 0 || int(id) >= len(g.nodes) {
		return Node{}, fmt.Errorf("%w: no vertex %d", ErrBadGraph, id)
	}
	return g.nodes[id], nil
}

// Preds returns the predecessors of id (shared slice; do not mutate).
func (g *Graph) Preds(id NodeID) []NodeID { return g.pred[id] }

// Succs returns the successors of id (shared slice; do not mutate).
func (g *Graph) Succs(id NodeID) []NodeID { return g.succ[id] }

// Nodes returns all vertices in topological (construction) order.
func (g *Graph) Nodes() []Node {
	out := make([]Node, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// Validate checks the structural invariants of a well-formed DFG: inputs
// are sources, outputs are sinks with exactly one predecessor, computation
// nodes have both predecessors and successors, and the vertex order is
// topological (guaranteed by the builder, re-verified here).
func (g *Graph) Validate() error {
	if len(g.nodes) == 0 {
		return fmt.Errorf("%w: %s is empty", ErrBadGraph, g.Name)
	}
	hasIn, hasOut := false, false
	for _, n := range g.nodes {
		switch n.Op {
		case OpInput:
			hasIn = true
			if len(g.pred[n.ID]) != 0 {
				return fmt.Errorf("%w: input %d has predecessors", ErrBadGraph, n.ID)
			}
			if len(g.succ[n.ID]) == 0 {
				return fmt.Errorf("%w: input %d is disconnected", ErrBadGraph, n.ID)
			}
		case OpOutput:
			hasOut = true
			if len(g.succ[n.ID]) != 0 {
				return fmt.Errorf("%w: output %d has successors", ErrBadGraph, n.ID)
			}
			if len(g.pred[n.ID]) != 1 {
				return fmt.Errorf("%w: output %d has %d predecessors, want 1", ErrBadGraph, n.ID, len(g.pred[n.ID]))
			}
		default:
			if len(g.pred[n.ID]) == 0 {
				return fmt.Errorf("%w: compute node %d (%v) has no predecessors", ErrBadGraph, n.ID, n.Op)
			}
			if len(g.succ[n.ID]) == 0 {
				return fmt.Errorf("%w: compute node %d (%v) has no successors (dangling value)", ErrBadGraph, n.ID, n.Op)
			}
		}
		// Topological order: every edge goes from a lower ID to a higher one.
		for _, p := range g.pred[n.ID] {
			if p >= n.ID {
				return fmt.Errorf("%w: edge %d->%d violates topological order", ErrBadGraph, p, n.ID)
			}
		}
	}
	if !hasIn {
		return fmt.Errorf("%w: %s has no input variables", ErrBadGraph, g.Name)
	}
	if !hasOut {
		return fmt.Errorf("%w: %s has no output variables", ErrBadGraph, g.Name)
	}
	return nil
}

// Levels returns the ASAP stage of every vertex: inputs at stage 1, every
// other vertex one past its deepest predecessor. This matches the paper's
// computation-path indexing, where a path (v_p1 .. v_pK) visits one vertex
// per stage.
func (g *Graph) Levels() []int {
	levels := make([]int, len(g.nodes))
	for _, n := range g.nodes {
		if len(g.pred[n.ID]) == 0 {
			levels[n.ID] = 1
			continue
		}
		maxPred := 0
		for _, p := range g.pred[n.ID] {
			if levels[p] > maxPred {
				maxPred = levels[p]
			}
		}
		levels[n.ID] = maxPred + 1
	}
	return levels
}

// Stats summarizes the DFG quantities the paper's limit analysis is
// expressed in.
type Stats struct {
	V     int // |V|: total vertices
	E     int // |E|: total edges
	VIn   int // |V_IN|: input variables
	VOut  int // |V_OUT|: output variables
	VCmp  int // computation nodes
	Depth int // D: length (in vertices) of the longest computation path
	// WorkingSets[s] is |WS_s|, the number of variables produced at stage
	// s+1 (inputs populate stage 1; computation stages follow).
	WorkingSets []int
	MaxWS       int     // max_s |WS_s|
	Paths       float64 // |P|: number of computation paths (float: can be astronomically large)
}

// ComputeStats analyzes the graph. The graph should be valid; call Validate
// first when the construction is not statically known to be correct.
func (g *Graph) ComputeStats() Stats {
	s := Stats{V: g.NumVertices(), E: g.NumEdges()}
	levels := g.Levels()
	depth := 0
	for _, n := range g.nodes {
		switch n.Op {
		case OpInput:
			s.VIn++
		case OpOutput:
			s.VOut++
		default:
			s.VCmp++
		}
		if levels[n.ID] > depth {
			depth = levels[n.ID]
		}
	}
	s.Depth = depth
	s.WorkingSets = make([]int, depth)
	for _, n := range g.nodes {
		s.WorkingSets[levels[n.ID]-1]++
	}
	for _, ws := range s.WorkingSets {
		if ws > s.MaxWS {
			s.MaxWS = ws
		}
	}
	// Path counting by dynamic programming over the topological order:
	// paths reaching an input is 1; elsewhere the sum over predecessors.
	// Computation paths end at outputs.
	reach := make([]float64, len(g.nodes))
	for _, n := range g.nodes {
		if len(g.pred[n.ID]) == 0 {
			reach[n.ID] = 1
			continue
		}
		for _, p := range g.pred[n.ID] {
			reach[n.ID] += reach[p]
		}
	}
	for _, n := range g.nodes {
		if n.Op == OpOutput {
			s.Paths += reach[n.ID]
		}
	}
	return s
}

// TotalArea returns the sum of per-operation functional-unit areas if every
// node received a dedicated unit (the fully spatial design point).
func (g *Graph) TotalArea() float64 {
	var a float64
	for _, n := range g.nodes {
		a += n.Op.Area()
	}
	return a
}
