package dfg

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

// paperExample builds the Figure 11 DFG: three inputs, two computation
// stages (a div+add stage feeding a sub stage... the figure shows add, div
// in stage 1 and add, sub in stage 2), two outputs.
func paperExample(t *testing.T) *Graph {
	t.Helper()
	g := New("fig11")
	d1 := g.AddInput("D_IN,1")
	d2 := g.AddInput("D_IN,2")
	d3 := g.AddInput("D_IN,3")
	add1 := g.MustOp(OpAdd, d1, d2)
	div1 := g.MustOp(OpDiv, d2, d3)
	add2 := g.MustOp(OpAdd, add1, div1)
	sub2 := g.MustOp(OpSub, div1, d3)
	g.MustOutput("D_OUT,1", add2)
	g.MustOutput("D_OUT,2", sub2)
	if err := g.Validate(); err != nil {
		t.Fatalf("paper example invalid: %v", err)
	}
	return g
}

func TestBuilderCounts(t *testing.T) {
	g := paperExample(t)
	if got := g.NumVertices(); got != 9 {
		t.Errorf("|V| = %d, want 9", got)
	}
	// Edges: add1(2) + div1(2) + add2(2) + sub2(2) + outputs(2) = 10.
	if got := g.NumEdges(); got != 10 {
		t.Errorf("|E| = %d, want 10", got)
	}
}

func TestStatsOnPaperExample(t *testing.T) {
	s := paperExample(t).ComputeStats()
	if s.VIn != 3 {
		t.Errorf("|V_IN| = %d, want 3", s.VIn)
	}
	if s.VOut != 2 {
		t.Errorf("|V_OUT| = %d, want 2", s.VOut)
	}
	if s.VCmp != 4 {
		t.Errorf("|V_CMP| = %d, want 4", s.VCmp)
	}
	// Longest path: input -> add1 -> add2 -> out = 4 vertices.
	if s.Depth != 4 {
		t.Errorf("D = %d, want 4", s.Depth)
	}
	if s.V != s.VIn+s.VOut+s.VCmp {
		t.Errorf("vertex classes do not partition V: %d != %d+%d+%d", s.V, s.VIn, s.VOut, s.VCmp)
	}
	// Working sets partition all vertices across stages.
	sum := 0
	for _, ws := range s.WorkingSets {
		sum += ws
	}
	if sum != s.V {
		t.Errorf("working sets sum to %d, want %d", sum, s.V)
	}
	if s.MaxWS != 3 {
		t.Errorf("max|WS| = %d, want 3 (the input stage)", s.MaxWS)
	}
	// Paths: D_OUT,1 via add2: preds add1 (2 paths: d1,d2) + div1 (2: d2,d3)
	// = 4; D_OUT,2 via sub2: div1 (2) + d3 (1) = 3. Total 7.
	if s.Paths != 7 {
		t.Errorf("|P| = %g, want 7", s.Paths)
	}
}

func TestLevelsASAP(t *testing.T) {
	g := paperExample(t)
	levels := g.Levels()
	want := []int{1, 1, 1, 2, 2, 3, 3, 4, 4}
	for i, lv := range want {
		if levels[i] != lv {
			t.Errorf("level[%d] = %d, want %d", i, levels[i], lv)
		}
	}
}

func TestBuilderErrors(t *testing.T) {
	g := New("bad")
	in := g.AddInput("x")
	if _, err := g.AddOp(OpAdd); !errors.Is(err, ErrBadGraph) {
		t.Errorf("no-pred AddOp err = %v, want ErrBadGraph", err)
	}
	if _, err := g.AddOp(OpInput, in); !errors.Is(err, ErrBadGraph) {
		t.Errorf("AddOp(OpInput) err = %v, want ErrBadGraph", err)
	}
	if _, err := g.AddOp(OpAdd, NodeID(99)); !errors.Is(err, ErrBadGraph) {
		t.Errorf("dangling pred err = %v, want ErrBadGraph", err)
	}
	out, err := g.AddOutput("y", in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddOp(OpAdd, out); !errors.Is(err, ErrBadGraph) {
		t.Errorf("edge from output err = %v, want ErrBadGraph", err)
	}
}

func TestMustOpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustOp with bad pred should panic")
		}
	}()
	New("x").MustOp(OpAdd, NodeID(5))
}

func TestMustOutputPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustOutput with bad pred should panic")
		}
	}()
	New("x").MustOutput("y", NodeID(5))
}

func TestValidateRejectsBrokenGraphs(t *testing.T) {
	empty := New("empty")
	if err := empty.Validate(); !errors.Is(err, ErrBadGraph) {
		t.Errorf("empty graph err = %v, want ErrBadGraph", err)
	}

	// Disconnected input.
	g := New("dangling-input")
	g.AddInput("x")
	in2 := g.AddInput("y")
	id := g.MustOp(OpAdd, in2)
	g.MustOutput("o", id)
	if err := g.Validate(); !errors.Is(err, ErrBadGraph) {
		t.Errorf("dangling input err = %v, want ErrBadGraph", err)
	}

	// Dangling compute value.
	g2 := New("dangling-op")
	in := g2.AddInput("x")
	g2.MustOp(OpAdd, in, in)
	if err := g2.Validate(); !errors.Is(err, ErrBadGraph) {
		t.Errorf("dangling op err = %v, want ErrBadGraph", err)
	}

	// No outputs at all (single input only).
	g3 := New("no-out")
	g3.AddInput("x")
	if err := g3.Validate(); !errors.Is(err, ErrBadGraph) {
		t.Errorf("no-output err = %v, want ErrBadGraph", err)
	}
}

func TestNodeAccessors(t *testing.T) {
	g := paperExample(t)
	n, err := g.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	if n.Op != OpInput || n.Label != "D_IN,1" {
		t.Errorf("node 0 = %+v", n)
	}
	if _, err := g.Node(NodeID(99)); !errors.Is(err, ErrBadGraph) {
		t.Errorf("Node(99) err = %v, want ErrBadGraph", err)
	}
	if got := len(g.Nodes()); got != g.NumVertices() {
		t.Errorf("Nodes() returned %d, want %d", got, g.NumVertices())
	}
	if len(g.Preds(5)) != 2 || len(g.Succs(0)) != 1 {
		t.Errorf("Preds/Succs structure unexpected: %v %v", g.Preds(5), g.Succs(0))
	}
}

func TestOpMetadata(t *testing.T) {
	ops := []Op{OpInput, OpOutput, OpAdd, OpSub, OpMul, OpDiv, OpCmp, OpLogic, OpShift, OpLoad, OpStore, OpSqrt, OpNonlinear, OpFused}
	for _, op := range ops {
		if op.String() == "" {
			t.Errorf("op %d has empty name", int(op))
		}
		if op.IsCompute() {
			if op.Latency() < 1 {
				t.Errorf("compute op %v has latency %d", op, op.Latency())
			}
			if op.Energy() <= 0 || op.Area() <= 0 {
				t.Errorf("compute op %v has non-positive energy/area", op)
			}
		} else {
			if op.Latency() != 0 || op.Energy() != 0 {
				t.Errorf("structural op %v should have zero cost", op)
			}
		}
	}
	if Op(99).String() != "op(99)" {
		t.Errorf("unknown op string = %q", Op(99).String())
	}
	// Relative cost ordering the scheduler relies on.
	if !(OpDiv.Latency() > OpMul.Latency() && OpMul.Latency() > OpAdd.Latency()) {
		t.Error("latency ordering div > mul > add violated")
	}
}

func TestTotalArea(t *testing.T) {
	g := paperExample(t)
	wantA := 2*OpAdd.Area() + OpDiv.Area() + OpSub.Area()
	if got := g.TotalArea(); math.Abs(got-wantA) > 1e-12 {
		t.Errorf("TotalArea = %g, want %g", got, wantA)
	}
}

// Property-based structural invariants on randomly built layered graphs:
// valid construction always yields a graph that validates, whose depth
// equals the longest path, and whose working sets partition the vertices.
func TestRandomGraphInvariants(t *testing.T) {
	f := func(widths []uint8, seed int64) bool {
		// Build a layered graph: up to 6 layers of width 1..8 each.
		if len(widths) == 0 {
			return true
		}
		if len(widths) > 6 {
			widths = widths[:6]
		}
		g := New("random")
		rng := newRng(seed)
		prev := []NodeID{g.AddInput("i0"), g.AddInput("i1")}
		layers := 1
		for _, w := range widths {
			width := int(w%8) + 1
			var layer []NodeID
			for j := 0; j < width; j++ {
				p1 := prev[rng(len(prev))]
				p2 := prev[rng(len(prev))]
				layer = append(layer, g.MustOp(OpAdd, p1, p2))
			}
			prev = layer
			layers++
		}
		for i, p := range prev {
			g.MustOutput("o", p)
			_ = i
		}
		if g.Validate() != nil {
			// Random layered construction can strand an input or an
			// intermediate node; those graphs are legitimately invalid and
			// out of scope for the invariant.
			return true
		}
		s := g.ComputeStats()
		if s.Depth != layers+1 { // inputs + layers + outputs
			return false
		}
		sum := 0
		for _, ws := range s.WorkingSets {
			sum += ws
		}
		if sum != s.V {
			return false
		}
		return s.Paths >= 1 && s.V == s.VIn+s.VOut+s.VCmp
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// newRng returns a tiny deterministic index generator (xorshift) so the
// property test does not need math/rand plumbing.
func newRng(seed int64) func(n int) int {
	s := uint64(seed)*2654435761 + 1
	return func(n int) int {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return int(s % uint64(n))
	}
}

func TestLimitBoundTableII(t *testing.T) {
	s := paperExample(t).ComputeStats()
	// Memory simplification: time |V|·log(max|WS|), space max|WS|.
	b, err := LimitBound(s, Simplification, Memory)
	if err != nil {
		t.Fatal(err)
	}
	wantTime := float64(s.V) * math.Log2(float64(s.MaxWS))
	if math.Abs(b.Time-wantTime) > 1e-12 {
		t.Errorf("mem simplification time = %g, want %g", b.Time, wantTime)
	}
	if b.Space != float64(s.MaxWS) {
		t.Errorf("mem simplification space = %g, want %d", b.Space, s.MaxWS)
	}
	// Computation heterogeneity: time |V_IN|, space 2^|V_IN|·|V_OUT|.
	b, err = LimitBound(s, Heterogeneity, Computation)
	if err != nil {
		t.Fatal(err)
	}
	if b.Time != float64(s.VIn) {
		t.Errorf("comp heterogeneity time = %g, want %d", b.Time, s.VIn)
	}
	if b.Space != math.Pow(2, float64(s.VIn))*float64(s.VOut) {
		t.Errorf("comp heterogeneity space = %g", b.Space)
	}
	// Computation simplification space is constant.
	b, err = LimitBound(s, Simplification, Computation)
	if err != nil {
		t.Fatal(err)
	}
	if b.Space != 1 {
		t.Errorf("comp simplification space = %g, want 1", b.Space)
	}
}

func TestLimitTableComplete(t *testing.T) {
	s := paperExample(t).ComputeStats()
	rows, err := LimitTable(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("Table II rows = %d, want 9", len(rows))
	}
	seen := make(map[[2]int]bool)
	for _, b := range rows {
		if b.TimeExpr == "" || b.SpaceExpr == "" {
			t.Errorf("row %v/%v missing expressions", b.Concept, b.Component)
		}
		if b.Time <= 0 || b.Space <= 0 {
			t.Errorf("row %v/%v has non-positive bound", b.Concept, b.Component)
		}
		seen[[2]int{int(b.Concept), int(b.Component)}] = true
	}
	if len(seen) != 9 {
		t.Errorf("Table II covers %d distinct cells, want 9", len(seen))
	}
}

func TestLimitBoundUnknown(t *testing.T) {
	s := Stats{V: 1, E: 1, Depth: 1, MaxWS: 1, VIn: 1, VOut: 1}
	if _, err := LimitBound(s, Concept(9), Memory); err == nil {
		t.Error("unknown concept should error")
	}
	if _, err := LimitBound(s, Simplification, Component(9)); err == nil {
		t.Error("unknown component should error")
	}
	if _, err := LimitBound(s, Concept(9), Communication); err == nil {
		t.Error("unknown concept should error (communication)")
	}
	if _, err := LimitBound(s, Concept(9), Computation); err == nil {
		t.Error("unknown concept should error (computation)")
	}
}

func TestConceptComponentStrings(t *testing.T) {
	for _, c := range Concepts() {
		if c.String() == "" {
			t.Errorf("concept %d empty name", int(c))
		}
	}
	for _, c := range Components() {
		if c.String() == "" {
			t.Errorf("component %d empty name", int(c))
		}
	}
	if Concept(9).String() != "Concept(9)" || Component(9).String() != "Component(9)" {
		t.Error("unknown enum strings wrong")
	}
}

func TestLog2Guard(t *testing.T) {
	// Degenerate working sets must not produce zero or negative lookup
	// costs in the bounds.
	s := Stats{V: 3, E: 2, Depth: 3, MaxWS: 1, VIn: 1, VOut: 1}
	b, err := LimitBound(s, Simplification, Memory)
	if err != nil {
		t.Fatal(err)
	}
	if b.Time < float64(s.V) {
		t.Errorf("lookup time %g fell below |V| for unit working set", b.Time)
	}
}
