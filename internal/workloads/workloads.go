// Package workloads builds dataflow graphs for the sixteen accelerator
// benchmarks the paper sweeps in Section VI (Table IV) — kernels drawn
// from MachSuite, SHOC, CortexSuite and PARSEC plus one internal workload
// — and two deep-learning kernels (2D convolution, attention) added
// beyond the paper's set.
//
// The original study extracts DFGs from dynamic LLVM traces via Aladdin;
// here each kernel is built directly as a parameterized graph whose
// structure (parallel width, depth, operation mix, memory behaviour)
// matches the algorithm, which is what the specialization-concept sweep
// actually consumes. Every builder takes a problem-size parameter n
// (<= 0 selects a per-kernel default) and returns a validated graph.
//
// TableIV returns exactly the paper's sixteen applications (the set the
// paper-reproduction experiments iterate); All adds the deep-learning
// kernels and is what the serving registry exposes.
package workloads

import (
	"fmt"
	"math/bits"

	"accelwall/internal/dfg"
)

// Spec describes one Table IV application.
type Spec struct {
	Abbrev string // the paper's abbreviation (AES, BFS, ...)
	Name   string // full benchmark name
	Domain string // application domain column of Table IV
	// Build constructs the kernel's DFG for problem size n; n <= 0 selects
	// the kernel's default size.
	Build func(n int) (*dfg.Graph, error)
}

// TableIV returns the paper's sixteen applications in Table IV order.
// The paper-reproduction experiments (Table II, Table IV, Figure 14)
// iterate exactly this set, so their outputs stay pinned to the paper.
func TableIV() []Spec {
	return []Spec{
		{"AES", "Advanced Encryption Standard", "Cryptography", BuildAES},
		{"BFS", "Breadth-First Search", "Graph Processing", BuildBFS},
		{"FFT", "Fast Fourier Transform", "Signal Processing", BuildFFT},
		{"GMM", "General Matrix Multiplication", "Linear Algebra", BuildGMM},
		{"MDY", "Molecular Dynamics", "Molecular Dynamics", BuildMDY},
		{"KNN", "K-Nearest Neighbors", "Data Mining", BuildKNN},
		{"NWN", "Needleman-Wunsch", "Bioinformatics", BuildNWN},
		{"RBM", "Restricted Boltzmann machine", "Machine Learning", BuildRBM},
		{"RED", "Reduction", "Microbenchmarking", BuildRED},
		{"SAD", "Sum of Absolute Differences", "Video Processing", BuildSAD},
		{"SRT", "Merge Sort", "Algorithms", BuildSRT},
		{"SMV", "Sparse Matrix-Vector Multiply", "Linear Algebra", BuildSMV},
		{"SSP", "Single Source, Shortest Path", "Graph Processing", BuildSSP},
		{"S2D", "2D Stencil", "Image Processing", BuildS2D},
		{"S3D", "3D Stencil", "Image Processing", BuildS3D},
		{"TRD", "Triad", "Microbenchmarking", BuildTRD},
	}
}

// All returns every registered application: the sixteen Table IV kernels
// followed by the deep-learning additions. This is the set the serving
// layer (/v1/workloads, sweep and search requests) resolves against.
func All() []Spec {
	return append(TableIV(),
		Spec{"CNV", "2D Convolution Layer", "Deep Learning", BuildConv2D},
		Spec{"ATT", "Scaled Dot-Product Attention", "Deep Learning", BuildAttention},
	)
}

// ByAbbrev returns the spec with the given abbreviation.
func ByAbbrev(abbrev string) (Spec, error) {
	for _, s := range All() {
		if s.Abbrev == abbrev {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workloads: unknown application %q", abbrev)
}

// Lookup resolves a kernel name across the three registries — an
// application abbreviation (S3D), an algorithm variant (GMM/strassen), or
// a case-study domain kernel (SHA256d) — onto its graph builder.
func Lookup(name string) (func(n int) (*dfg.Graph, error), error) {
	if s, err := ByAbbrev(name); err == nil {
		return s.Build, nil
	}
	if v, err := VariantByName(name); err == nil {
		return v.Build, nil
	}
	if k, err := DomainKernelByName(name); err == nil {
		return k.Build, nil
	}
	return nil, fmt.Errorf("workloads: unknown kernel %q", name)
}

// defaultSize substitutes the kernel default when n is non-positive.
func defaultSize(n, def int) int {
	if n <= 0 {
		return def
	}
	return n
}

// finish validates g and returns it, wrapping any structural error with the
// kernel name so builder bugs are attributable.
func finish(g *dfg.Graph) (*dfg.Graph, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("workloads: %s: %w", g.Name, err)
	}
	return g, nil
}

// reduceTree folds ids pairwise with op until one value remains — the
// balanced reduction pattern shared by many kernels.
func reduceTree(g *dfg.Graph, op dfg.Op, ids []dfg.NodeID) dfg.NodeID {
	for len(ids) > 1 {
		var next []dfg.NodeID
		for i := 0; i+1 < len(ids); i += 2 {
			next = append(next, g.MustOp(op, ids[i], ids[i+1]))
		}
		if len(ids)%2 == 1 {
			next = append(next, ids[len(ids)-1])
		}
		ids = next
	}
	return ids[0]
}

// BuildAES models n parallel 16-byte AES block encryptions: ten rounds of
// SubBytes (nonlinear S-box), ShiftRows (shift), MixColumns (logic network)
// and AddRoundKey (xor), giving a deep serial pipeline per block with block
// level parallelism across blocks. n is the number of blocks (default 4).
func BuildAES(n int) (*dfg.Graph, error) {
	n = defaultSize(n, 4)
	const stateBytes = 16
	const rounds = 10
	g := dfg.New("AES")
	key := make([]dfg.NodeID, stateBytes)
	for i := range key {
		key[i] = g.AddInput(fmt.Sprintf("key%d", i))
	}
	for b := 0; b < n; b++ {
		state := make([]dfg.NodeID, stateBytes)
		for i := range state {
			state[i] = g.AddInput(fmt.Sprintf("pt%d_%d", b, i))
		}
		for r := 0; r < rounds; r++ {
			// SubBytes: per-byte S-box lookup.
			for i := range state {
				state[i] = g.MustOp(dfg.OpNonlinear, state[i])
			}
			// ShiftRows: byte rotation, modeled per row as a shift op.
			for i := range state {
				state[i] = g.MustOp(dfg.OpShift, state[i])
			}
			// MixColumns: each output byte mixes the four bytes of its
			// column via GF(2^8) logic. Skipped in the final round, as in
			// the real cipher.
			if r != rounds-1 {
				mixed := make([]dfg.NodeID, stateBytes)
				for col := 0; col < 4; col++ {
					c0, c1, c2, c3 := state[col*4], state[col*4+1], state[col*4+2], state[col*4+3]
					for rrow := 0; rrow < 4; rrow++ {
						m1 := g.MustOp(dfg.OpLogic, c0, c1)
						m2 := g.MustOp(dfg.OpLogic, c2, c3)
						mixed[col*4+rrow] = g.MustOp(dfg.OpLogic, m1, m2)
					}
				}
				state = mixed
			}
			// AddRoundKey: xor with the round key.
			for i := range state {
				state[i] = g.MustOp(dfg.OpLogic, state[i], key[i])
			}
		}
		for i, s := range state {
			g.MustOutput(fmt.Sprintf("ct%d_%d", b, i), s)
		}
	}
	return finish(g)
}

// BuildBFS models one frontier expansion of breadth-first search on a graph
// with n frontier vertices of degree 4: per edge a neighbor-list load, a
// visited check (load + compare), and a conditional depth write. The
// output per vertex is the updated visit mask — an irregular, memory-bound
// kernel. Default n = 64.
func BuildBFS(n int) (*dfg.Graph, error) {
	n = defaultSize(n, 64)
	const degree = 4
	g := dfg.New("BFS")
	depth := g.AddInput("level")
	for v := 0; v < n; v++ {
		vtx := g.AddInput(fmt.Sprintf("frontier%d", v))
		var updates []dfg.NodeID
		for e := 0; e < degree; e++ {
			nbr := g.MustOp(dfg.OpLoad, vtx)             // neighbor id
			visited := g.MustOp(dfg.OpLoad, nbr)         // visited[] lookup
			isNew := g.MustOp(dfg.OpCmp, visited, depth) // visited check
			upd := g.MustOp(dfg.OpStore, isNew, depth)   // conditional depth write
			updates = append(updates, upd)
		}
		g.MustOutput(fmt.Sprintf("mask%d", v), reduceTree(g, dfg.OpLogic, updates))
	}
	return finish(g)
}

// BuildFFT models an n-point radix-2 decimation-in-time FFT: log2(n)
// butterfly stages of n/2 butterflies, each a twiddle multiply, an add and
// a subtract. n must reach a power of two (it is rounded up); default 64.
func BuildFFT(n int) (*dfg.Graph, error) {
	n = defaultSize(n, 64)
	if n < 2 {
		n = 2
	}
	if n&(n-1) != 0 {
		n = 1 << bits.Len(uint(n))
	}
	g := dfg.New("FFT")
	vals := make([]dfg.NodeID, n)
	for i := range vals {
		vals[i] = g.AddInput(fmt.Sprintf("x%d", i))
	}
	tw := g.AddInput("twiddles")
	stages := bits.TrailingZeros(uint(n))
	for s := 0; s < stages; s++ {
		half := 1 << s
		next := make([]dfg.NodeID, n)
		copy(next, vals)
		for base := 0; base < n; base += half * 2 {
			for k := 0; k < half; k++ {
				a, b := vals[base+k], vals[base+k+half]
				t := g.MustOp(dfg.OpMul, b, tw)
				next[base+k] = g.MustOp(dfg.OpAdd, a, t)
				next[base+k+half] = g.MustOp(dfg.OpSub, a, t)
			}
		}
		vals = next
	}
	for i, v := range vals {
		g.MustOutput(fmt.Sprintf("X%d", i), v)
	}
	return finish(g)
}

// BuildGMM models an n×n by n×n matrix multiplication: n² dot products of
// length n (multiplies feeding a balanced add tree). Default n = 8.
func BuildGMM(n int) (*dfg.Graph, error) {
	n = defaultSize(n, 8)
	g := dfg.New("GMM")
	a := make([][]dfg.NodeID, n)
	b := make([][]dfg.NodeID, n)
	for i := 0; i < n; i++ {
		a[i] = make([]dfg.NodeID, n)
		b[i] = make([]dfg.NodeID, n)
		for j := 0; j < n; j++ {
			a[i][j] = g.AddInput(fmt.Sprintf("a%d_%d", i, j))
			b[i][j] = g.AddInput(fmt.Sprintf("b%d_%d", i, j))
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			prods := make([]dfg.NodeID, n)
			for k := 0; k < n; k++ {
				prods[k] = g.MustOp(dfg.OpMul, a[i][k], b[k][j])
			}
			g.MustOutput(fmt.Sprintf("c%d_%d", i, j), reduceTree(g, dfg.OpAdd, prods))
		}
	}
	return finish(g)
}

// BuildMDY models one timestep of n-body molecular dynamics with an
// 8-neighbor cutoff: per pair a displacement (3 subs), squared distance
// (3 muls + adds), inverse-sqrt force magnitude (sqrt + div), and force
// accumulation per body. Default n = 16.
func BuildMDY(n int) (*dfg.Graph, error) {
	n = defaultSize(n, 16)
	const neighbors = 8
	g := dfg.New("MDY")
	pos := make([][3]dfg.NodeID, n)
	for i := range pos {
		for d := 0; d < 3; d++ {
			pos[i][d] = g.AddInput(fmt.Sprintf("p%d_%c", i, 'x'+d))
		}
	}
	for i := 0; i < n; i++ {
		var forces []dfg.NodeID
		for e := 1; e <= neighbors; e++ {
			j := (i + e) % n
			var dist2Terms []dfg.NodeID
			var diffs [3]dfg.NodeID
			for d := 0; d < 3; d++ {
				diffs[d] = g.MustOp(dfg.OpSub, pos[i][d], pos[j][d])
				dist2Terms = append(dist2Terms, g.MustOp(dfg.OpMul, diffs[d], diffs[d]))
			}
			dist2 := reduceTree(g, dfg.OpAdd, dist2Terms)
			dist := g.MustOp(dfg.OpSqrt, dist2)
			mag := g.MustOp(dfg.OpDiv, dist, dist2)
			forces = append(forces, g.MustOp(dfg.OpMul, mag, diffs[0]))
		}
		g.MustOutput(fmt.Sprintf("f%d", i), reduceTree(g, dfg.OpAdd, forces))
	}
	return finish(g)
}

// BuildKNN models a k-nearest-neighbors query against n reference points in
// 4 dimensions: per point a squared Euclidean distance (subs, muls, add
// tree), then a global compare-select reduction for the minimum. Default
// n = 64.
func BuildKNN(n int) (*dfg.Graph, error) {
	n = defaultSize(n, 64)
	const dims = 4
	g := dfg.New("KNN")
	query := make([]dfg.NodeID, dims)
	for d := range query {
		query[d] = g.AddInput(fmt.Sprintf("q%d", d))
	}
	dists := make([]dfg.NodeID, n)
	for i := 0; i < n; i++ {
		terms := make([]dfg.NodeID, dims)
		for d := 0; d < dims; d++ {
			ref := g.AddInput(fmt.Sprintf("r%d_%d", i, d))
			diff := g.MustOp(dfg.OpSub, ref, query[d])
			terms[d] = g.MustOp(dfg.OpMul, diff, diff)
		}
		dists[i] = reduceTree(g, dfg.OpAdd, terms)
	}
	g.MustOutput("nearest", reduceTree(g, dfg.OpCmp, dists))
	return finish(g)
}

// BuildNWN models Needleman-Wunsch sequence alignment of two length-n
// sequences: the n×n dynamic-programming lattice where each cell takes the
// max of three predecessor scores plus the substitution cost. The
// anti-diagonal wavefront makes the DFG deep (depth ~2n). Default n = 12.
func BuildNWN(n int) (*dfg.Graph, error) {
	n = defaultSize(n, 12)
	if n < 2 {
		n = 2 // a single cell has no alignment lattice (and would strand the gap input)
	}
	g := dfg.New("NWN")
	seqA := make([]dfg.NodeID, n)
	seqB := make([]dfg.NodeID, n)
	for i := 0; i < n; i++ {
		seqA[i] = g.AddInput(fmt.Sprintf("a%d", i))
		seqB[i] = g.AddInput(fmt.Sprintf("b%d", i))
	}
	gap := g.AddInput("gap")
	cells := make([][]dfg.NodeID, n)
	for i := 0; i < n; i++ {
		cells[i] = make([]dfg.NodeID, n)
		for j := 0; j < n; j++ {
			// The substitution score only participates where a diagonal
			// predecessor exists (or at the origin); border cells are pure
			// gap extensions.
			var diag, up, left dfg.NodeID
			switch {
			case i == 0 && j == 0:
				diag = g.MustOp(dfg.OpCmp, seqA[i], seqB[j])
			case i == 0:
				diag = g.MustOp(dfg.OpAdd, cells[i][j-1], gap)
			case j == 0:
				diag = g.MustOp(dfg.OpAdd, cells[i-1][j], gap)
			default:
				match := g.MustOp(dfg.OpCmp, seqA[i], seqB[j])
				diag = g.MustOp(dfg.OpAdd, cells[i-1][j-1], match)
			}
			if i > 0 {
				up = g.MustOp(dfg.OpAdd, cells[i-1][j], gap)
				diag = g.MustOp(dfg.OpCmp, diag, up)
			}
			if j > 0 {
				left = g.MustOp(dfg.OpAdd, cells[i][j-1], gap)
				diag = g.MustOp(dfg.OpCmp, diag, left)
			}
			cells[i][j] = diag
		}
	}
	// Only the final score is the kernel output; interior cells feed
	// later cells. Edge cells on the last row/column that feed nothing
	// would dangle, so they also become outputs (the traceback row).
	for i := 0; i < n; i++ {
		if i < n-1 {
			g.MustOutput(fmt.Sprintf("row%d", i), cells[i][n-1])
			g.MustOutput(fmt.Sprintf("col%d", i), cells[n-1][i])
		}
	}
	g.MustOutput("score", cells[n-1][n-1])
	return finish(g)
}

// BuildRBM models one Gibbs half-step of a restricted Boltzmann machine
// with n visible and n hidden units: a dense matrix-vector product per
// hidden unit followed by a sigmoid activation (nonlinear). Default n = 16.
func BuildRBM(n int) (*dfg.Graph, error) {
	n = defaultSize(n, 16)
	g := dfg.New("RBM")
	visible := make([]dfg.NodeID, n)
	for i := range visible {
		visible[i] = g.AddInput(fmt.Sprintf("v%d", i))
	}
	for h := 0; h < n; h++ {
		terms := make([]dfg.NodeID, n)
		for i := 0; i < n; i++ {
			w := g.AddInput(fmt.Sprintf("w%d_%d", h, i))
			terms[i] = g.MustOp(dfg.OpMul, w, visible[i])
		}
		pre := reduceTree(g, dfg.OpAdd, terms)
		g.MustOutput(fmt.Sprintf("h%d", h), g.MustOp(dfg.OpNonlinear, pre))
	}
	return finish(g)
}

// BuildRED models a sum reduction over n values: the canonical balanced
// binary add tree, maximally parallel and log-depth. Default n = 256.
func BuildRED(n int) (*dfg.Graph, error) {
	n = defaultSize(n, 256)
	if n < 2 {
		n = 2
	}
	g := dfg.New("RED")
	leaves := make([]dfg.NodeID, n)
	for i := range leaves {
		leaves[i] = g.AddInput(fmt.Sprintf("x%d", i))
	}
	g.MustOutput("sum", reduceTree(g, dfg.OpAdd, leaves))
	return finish(g)
}

// BuildSAD models sum-of-absolute-differences block matching over n 16-pixel
// blocks (the PARSEC x264 motion-estimation kernel): per pixel a subtract
// and an absolute value (logic), then an add-tree per block and a final
// best-match compare chain. Default n = 16.
func BuildSAD(n int) (*dfg.Graph, error) {
	n = defaultSize(n, 16)
	const pixels = 16
	g := dfg.New("SAD")
	ref := make([]dfg.NodeID, pixels)
	for p := range ref {
		ref[p] = g.AddInput(fmt.Sprintf("ref%d", p))
	}
	sads := make([]dfg.NodeID, n)
	for b := 0; b < n; b++ {
		diffs := make([]dfg.NodeID, pixels)
		for p := 0; p < pixels; p++ {
			cand := g.AddInput(fmt.Sprintf("c%d_%d", b, p))
			d := g.MustOp(dfg.OpSub, cand, ref[p])
			diffs[p] = g.MustOp(dfg.OpLogic, d) // absolute value
		}
		sads[b] = reduceTree(g, dfg.OpAdd, diffs)
	}
	g.MustOutput("best", reduceTree(g, dfg.OpCmp, sads))
	return finish(g)
}

// BuildSRT models a bitonic merge-sort network over n keys: log²(n)
// compare-exchange stages. Each compare-exchange is a compare plus two
// select (logic) operations. n is rounded up to a power of two; default 32.
func BuildSRT(n int) (*dfg.Graph, error) {
	n = defaultSize(n, 32)
	if n < 2 {
		n = 2
	}
	if n&(n-1) != 0 {
		n = 1 << bits.Len(uint(n))
	}
	g := dfg.New("SRT")
	keys := make([]dfg.NodeID, n)
	for i := range keys {
		keys[i] = g.AddInput(fmt.Sprintf("k%d", i))
	}
	cmpExchange := func(i, j int) {
		c := g.MustOp(dfg.OpCmp, keys[i], keys[j])
		lo := g.MustOp(dfg.OpLogic, c, keys[i])
		hi := g.MustOp(dfg.OpLogic, c, keys[j])
		keys[i], keys[j] = lo, hi
	}
	for k := 2; k <= n; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			for i := 0; i < n; i++ {
				l := i ^ j
				if l > i {
					cmpExchange(i, l)
				}
			}
		}
	}
	for i, k := range keys {
		g.MustOutput(fmt.Sprintf("s%d", i), k)
	}
	return finish(g)
}

// BuildSMV models sparse matrix-vector multiply in CSR form over n rows
// with 6 nonzeros per row: per nonzero a column-index load, a gathered
// vector load, a multiply, then a per-row accumulation chain (serial, as
// CSR accumulation is). Default n = 32.
func BuildSMV(n int) (*dfg.Graph, error) {
	n = defaultSize(n, 32)
	const nnz = 6
	g := dfg.New("SMV")
	vec := g.AddInput("x")
	for r := 0; r < n; r++ {
		rowPtr := g.AddInput(fmt.Sprintf("row%d", r))
		var acc dfg.NodeID
		for e := 0; e < nnz; e++ {
			col := g.MustOp(dfg.OpLoad, rowPtr)  // column index
			xv := g.MustOp(dfg.OpLoad, col, vec) // gathered x[col]
			av := g.MustOp(dfg.OpLoad, rowPtr)   // matrix value
			prod := g.MustOp(dfg.OpMul, av, xv)
			if e == 0 {
				acc = prod
			} else {
				acc = g.MustOp(dfg.OpAdd, acc, prod) // serial CSR accumulation
			}
		}
		g.MustOutput(fmt.Sprintf("y%d", r), acc)
	}
	return finish(g)
}

// BuildSSP models Bellman-Ford single-source shortest path on n vertices of
// degree 4, run for 4 relaxation rounds: per edge an add (distance +
// weight) and a min (compare). Rounds serialize, edges within a round
// parallelize. Default n = 32.
func BuildSSP(n int) (*dfg.Graph, error) {
	n = defaultSize(n, 32)
	const degree = 4
	const rounds = 4
	g := dfg.New("SSP")
	dist := make([]dfg.NodeID, n)
	for v := range dist {
		dist[v] = g.AddInput(fmt.Sprintf("d%d", v))
	}
	weights := g.AddInput("w")
	for r := 0; r < rounds; r++ {
		next := make([]dfg.NodeID, n)
		for v := 0; v < n; v++ {
			best := dist[v]
			for e := 1; e <= degree; e++ {
				u := (v + e*7) % n
				cand := g.MustOp(dfg.OpAdd, dist[u], weights)
				best = g.MustOp(dfg.OpCmp, best, cand) // min relaxation
			}
			next[v] = best
		}
		dist = next
	}
	for v, d := range dist {
		g.MustOutput(fmt.Sprintf("dist%d", v), d)
	}
	return finish(g)
}

// BuildS2D models a 9-point 2D stencil over an n×n interior: per output
// pixel nine coefficient multiplies feeding an add tree — the convolution
// engine pattern. Default n = 8.
func BuildS2D(n int) (*dfg.Graph, error) {
	n = defaultSize(n, 8)
	g := dfg.New("S2D")
	grid := make([][]dfg.NodeID, n+2)
	for i := range grid {
		grid[i] = make([]dfg.NodeID, n+2)
		for j := range grid[i] {
			grid[i][j] = g.AddInput(fmt.Sprintf("g%d_%d", i, j))
		}
	}
	coeff := g.AddInput("c")
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			var taps []dfg.NodeID
			for di := -1; di <= 1; di++ {
				for dj := -1; dj <= 1; dj++ {
					taps = append(taps, g.MustOp(dfg.OpMul, grid[i+di][j+dj], coeff))
				}
			}
			g.MustOutput(fmt.Sprintf("o%d_%d", i, j), reduceTree(g, dfg.OpAdd, taps))
		}
	}
	return finish(g)
}

// BuildS3D models a 7-point 3D stencil over an n×n×n interior — the
// Section VI case-study kernel (Figure 12). Default n = 4.
func BuildS3D(n int) (*dfg.Graph, error) {
	n = defaultSize(n, 4)
	g := dfg.New("S3D")
	// A 7-point stencil never reads the halo's edges and corners, so grid
	// inputs are created lazily: only cells some output actually taps
	// become input vertices.
	c0 := g.AddInput("C0")
	c1 := g.AddInput("C1")
	cells := make(map[[3]int]dfg.NodeID)
	cell := func(i, j, k int) dfg.NodeID {
		key := [3]int{i, j, k}
		if id, ok := cells[key]; ok {
			return id
		}
		id := g.AddInput(fmt.Sprintf("g%d_%d_%d", i, j, k))
		cells[key] = id
		return id
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			for k := 1; k <= n; k++ {
				center := g.MustOp(dfg.OpMul, cell(i, j, k), c0)
				taps := []dfg.NodeID{
					g.MustOp(dfg.OpMul, cell(i-1, j, k), c1),
					g.MustOp(dfg.OpMul, cell(i+1, j, k), c1),
					g.MustOp(dfg.OpMul, cell(i, j-1, k), c1),
					g.MustOp(dfg.OpMul, cell(i, j+1, k), c1),
					g.MustOp(dfg.OpMul, cell(i, j, k-1), c1),
					g.MustOp(dfg.OpMul, cell(i, j, k+1), c1),
				}
				sum := reduceTree(g, dfg.OpAdd, taps)
				g.MustOutput(fmt.Sprintf("o%d_%d_%d", i, j, k), g.MustOp(dfg.OpAdd, center, sum))
			}
		}
	}
	return finish(g)
}

// BuildTRD models the SHOC Triad streaming kernel a[i] = b[i] + s·c[i] over
// n elements: two loads, a multiply, an add, a store per element — wide,
// shallow, and bandwidth-bound. Default n = 128.
func BuildTRD(n int) (*dfg.Graph, error) {
	n = defaultSize(n, 128)
	g := dfg.New("TRD")
	s := g.AddInput("s")
	for i := 0; i < n; i++ {
		b := g.AddInput(fmt.Sprintf("b%d", i))
		c := g.AddInput(fmt.Sprintf("c%d", i))
		lb := g.MustOp(dfg.OpLoad, b)
		lc := g.MustOp(dfg.OpLoad, c)
		prod := g.MustOp(dfg.OpMul, lc, s)
		sum := g.MustOp(dfg.OpAdd, lb, prod)
		st := g.MustOp(dfg.OpStore, sum)
		g.MustOutput(fmt.Sprintf("a%d", i), st)
	}
	return finish(g)
}
