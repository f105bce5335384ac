package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"accelwall/internal/core"
	"accelwall/internal/montecarlo"
	"accelwall/internal/sweep"
)

// Wire bodies. They mirror the request bodies docs/API.md documents; the
// oracle reads the same structs the client serialises, so the daemon and
// the reference see identical inputs.

type chipBody struct {
	NodeNM  float64 `json:"node_nm"`
	DieMM2  float64 `json:"die_mm2"`
	TDPW    float64 `json:"tdp_w"`
	FreqGHz float64 `json:"freq_ghz"`
}

type observationBody struct {
	Name string   `json:"name"`
	Gain float64  `json:"gain"`
	Year float64  `json:"year"`
	Chip chipBody `json:"chip"`
}

type csrBody struct {
	Target       string            `json:"target"`
	Observations []observationBody `json:"observations"`
}

type gridBody struct {
	Nodes           []float64 `json:"nodes"`
	Partitions      []int     `json:"partitions"`
	Simplifications []int     `json:"simplifications"`
	Fusion          []bool    `json:"fusion"`
}

type sweepBody struct {
	Workload string            `json:"workload"`
	Size     int               `json:"size,omitempty"`
	Designs  []core.DesignJSON `json:"designs,omitempty"`
	Grid     *gridBody         `json:"grid,omitempty"`
	Preset   string            `json:"preset,omitempty"`
}

type uncertaintyBody struct {
	Replicates int   `json:"replicates"`
	Seed       int64 `json:"seed"`
}

type searchBody struct {
	Workload    string `json:"workload"`
	Population  int    `json:"population"`
	Generations int    `json:"generations"`
	Seed        int64  `json:"seed"`
}

type jobBody struct {
	Kind            string           `json:"kind"`
	Uncertainty     *uncertaintyBody `json:"uncertainty,omitempty"`
	Sweep           *sweepBody       `json:"sweep,omitempty"`
	Search          *searchBody      `json:"search,omitempty"`
	CheckpointEvery int              `json:"checkpoint_every"`
}

// op is one client operation: a synchronous request, or for durable jobs
// the submit → SSE terminal frame → result round trip. Exactly one of the
// typed fields below the request line is set; the oracle computes the
// expected answer from it.
type op struct {
	class  string // latency class, used only in diagnostics
	method string
	path   string
	body   []byte
	raw    []byte // the whole HTTP/1.1 request, serialised before timing

	cmosNode   float64
	csr        *csrBody
	projection string // "" = both figures
	caseStudy  string
	sweep      *sweepBody
	unc        *uncertaintyBody
	search     *searchBody
	job        *jobBody
}

// workload is a seeded op stream: a priming phase that ends set-up, then
// the measured stream. The first block ops of the stream form the counted
// block after which /v1/metrics counters must repeat exactly.
type workload struct {
	name   string
	prime  []*op
	stream []*op
	block  int
	rssOps int  // loop ops after which the last resident-size reading is taken
	cyclic bool // repeats of the stream are intended (cache-hit traffic)
	jobs   bool // the daemon needs a jobs directory
}

// workloadNames lists every workload perfbench can run; BENCHMARK.json
// lists the ones steady enough to gate on (see layers.json).
var workloadNames = []string{"serve-hot", "explore", "uncertainty", "durable"}

// Every kernel /v1/workloads lists, in its order.
var kernels = []string{
	"AES", "BFS", "FFT", "GMM", "MDY", "KNN", "NWN", "RBM", "RED", "SAD", "SRT", "SMV",
	"SSP", "S2D", "S3D", "TRD", "CNV", "ATT", "GMM/strassen", "S2D/winograd", "FFT/radix4",
	"SHA256d", "IDCT8x8", "Shader",
}

var (
	tableNodes      = []float64{45, 32, 22, 16, 14, 10, 7, 5}
	tablePartitions = []int{1, 4, 16, 64, 256}
	tableSimplify   = []int{1, 3, 5, 7}
)

func getOp(class, path string) *op {
	return &op{class: class, method: "GET", path: path,
		raw: []byte("GET " + path + " HTTP/1.1\r\nHost: accelwalld\r\n\r\n")}
}

func postOp(class, path string, v any) *op {
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // the bodies are plain structs of finite numbers
	}
	raw := []byte(fmt.Sprintf("POST %s HTTP/1.1\r\nHost: accelwalld\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		path, len(body), body))
	return &op{class: class, method: "POST", path: path, body: raw[len(raw)-len(body):], raw: raw}
}

// newWorkload generates the named workload's ops from seed. The stream
// holds enough fresh ops for seconds of measurement at several times the
// rate measured on a 2-vCPU host, so a run never runs out.
func newWorkload(name string, seed int64, seconds int) (*workload, error) {
	h := fnv.New64a()
	h.Write([]byte(name))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64()>>1)))
	switch name {
	case "serve-hot":
		return serveHot(rng, seconds), nil
	case "explore":
		return explore(rng, seconds), nil
	case "uncertainty":
		return uncertainty(rng, seconds), nil
	case "durable":
		return durable(rng, seconds), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// freshSeeds draws n distinct positive seeds.
func freshSeeds(rng *rand.Rand, n int) []int64 {
	seen := make(map[int64]bool, n)
	out := make([]int64, 0, n)
	for len(out) < n {
		s := rng.Int63n(1<<40) + 1
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// round3 keeps generated reals short on the wire; any value is fine.
func round3(x float64) float64 { return math.Round(x*1000) / 1000 }

// serveHot is warm read traffic over a fixed key set: cheap model reads
// plus repeats of grid sweeps, uncertainty runs and searches that the
// response LRU and the memo caches answer. Priming touches every key once.
// The measured stream repeats a fixed 100-op mix, shuffled per cycle,
// whose classes sort by latency on a 2-vCPU host as
//
//	cmos 25 (0.11 ms) < sweep hit 45 (0.14) < csr 6 (0.19) < case study 4 (0.28)
//	< search hit 4 (0.31) < uncertainty hit 13 (0.42) < full projection 3 (1.2)
//
// so p50 falls mid sweep hit, p90 mid uncertainty hit and p99 inside the
// projection recompute, never on the edge between two classes.
func serveHot(rng *rand.Rand, seconds int) *workload {
	var cmosOps, csrOps, caseOps, sweepOps, uncOps, searchOps []*op
	for _, nm := range []float64{5, 7.5, 12, 28, 65, 130} {
		o := getOp("cmos", fmt.Sprintf("/v1/cmos?node=%g", nm))
		o.cmosNode = nm
		cmosOps = append(cmosOps, o)
	}
	for i := 0; i < 4; i++ {
		b := &csrBody{Target: []string{"performance", "efficiency"}[i%2]}
		year := 2004.0
		for j := 0; j < 3+i; j++ {
			year += 1 + float64(rng.Intn(3))
			b.Observations = append(b.Observations, observationBody{
				Name: fmt.Sprintf("gen%d", j+1),
				Gain: round3(math.Pow(2, float64(j)) * (0.8 + 0.4*rng.Float64())),
				Year: year,
				Chip: chipBody{
					NodeNM:  tableNodes[rng.Intn(len(tableNodes))],
					DieMM2:  round3(5 + 95*rng.Float64()),
					TDPW:    round3(1 + 20*rng.Float64()),
					FreqGHz: round3(0.2 + 1.5*rng.Float64()),
				},
			})
		}
		o := postOp("csr", "/v1/csr", b)
		o.csr = b
		csrOps = append(csrOps, o)
	}
	var slowCases []*op
	for _, name := range core.CaseStudyNames() {
		o := getOp("casestudy", "/v1/casestudy/"+name)
		o.caseStudy = name
		if name == "bitcoin" || name == "videodec" {
			caseOps = append(caseOps, o)
		} else {
			slowCases = append(slowCases, o) // other latency classes: primed only
		}
	}
	for _, k := range kernels {
		b := &sweepBody{Workload: k, Preset: "reduced"}
		o := postOp("sweep-hit", "/v1/sweep", b)
		o.sweep = b
		sweepOps = append(sweepOps, o)
	}
	for _, s := range freshSeeds(rng, 3) {
		b := &uncertaintyBody{Replicates: 50, Seed: s}
		o := postOp("uncertainty-hit", "/v1/uncertainty", b)
		o.unc = b
		uncOps = append(uncOps, o)
	}
	for i, s := range freshSeeds(rng, 4) {
		b := &searchBody{Workload: searchKernels[i], Population: 24, Generations: 8, Seed: s}
		o := postOp("search-hit", "/v1/search", b)
		o.search = b
		searchOps = append(searchOps, o)
	}
	proj := getOp("projection", "/v1/projection")
	w := &workload{name: "serve-hot", block: 400, rssOps: 20000, cyclic: true}
	for _, set := range [][]*op{cmosOps, csrOps, caseOps, slowCases, sweepOps, uncOps, searchOps, {proj}} {
		w.prime = append(w.prime, set...)
	}
	mix := []struct {
		ops []*op
		n   int
	}{{cmosOps, 25}, {sweepOps, 45}, {csrOps, 6}, {caseOps, 4}, {searchOps, 4}, {uncOps, 13}, {[]*op{proj}, 3}}
	for c := 0; c < 40; c++ {
		var cycle []*op
		for _, m := range mix {
			for i := 0; i < m.n; i++ {
				cycle = append(cycle, m.ops[(c*m.n+i)%len(m.ops)])
			}
		}
		rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		w.stream = append(w.stream, cycle...)
	}
	return w
}

// Kernels and size ranges for explore's custom grids: each pays graph
// build, compile and schedule walks in about 0.8–2.2 ms on a 2-vCPU host.
var gridFamilies = []struct {
	kernel   string
	min, max int
}{
	{"TRD", 80, 220}, {"KNN", 40, 110}, {"SMV", 18, 48}, {"SAD", 10, 30}, {"RBM", 12, 24},
}

// Kernels whose searches cost about the same; explore's searches and
// durable's search and sweep jobs rotate over them.
var searchKernels = []string{"FFT", "KNN", "NWN", "SAD", "S3D", "SSP", "RBM", "TRD", "ATT", "Shader"}

// explore is cold design-space exploration. Priming sweeps the reduced
// grid once per kernel. The stream repeats a 50-op pattern: 40 explicit
// 16-design batches with continuous clocks (never memoized), 9 custom
// grids on problem sizes not yet compiled, 1 search with a fresh seed.
// The batches rotate over all 24 kernels, so between two uses of a primed
// engine at most 29 other engines are touched and the 32-engine LRU never
// evicts one; custom-grid sizes repeat only after every (kernel, size)
// pair was used, long after the LRU evicted it.
func explore(rng *rand.Rand, seconds int) *workload {
	w := &workload{name: "explore", block: 100, rssOps: 4000}
	for _, k := range kernels {
		b := &sweepBody{Workload: k, Preset: "reduced"}
		o := postOp("prime-sweep", "/v1/sweep", b)
		o.sweep = b
		w.prime = append(w.prime, o)
	}
	type combo struct {
		kernel string
		size   int
	}
	var combos []combo
	for _, f := range gridFamilies {
		for s := f.min; s <= f.max; s++ {
			combos = append(combos, combo{f.kernel, s})
		}
	}
	rng.Shuffle(len(combos), func(i, j int) { combos[i], combos[j] = combos[j], combos[i] })
	n := 50 * (seconds*50 + 4) // 2500 ops/s; 2-vCPU hosts measured 950-1650
	nb, nk := 0, 0
	seeds := freshSeeds(rng, n/50+1)
	for i := 0; i < n; i++ {
		switch pos := i % 50; {
		case pos == 25:
			b := &searchBody{Workload: searchKernels[(i/50)%len(searchKernels)], Population: 40, Generations: 12, Seed: seeds[i/50]}
			o := postOp("search", "/v1/search", b)
			o.search = b
			w.stream = append(w.stream, o)
		case pos%5 == 2 && pos != 22:
			c := combos[nb%len(combos)]
			nb++
			g := &gridBody{Partitions: []int{64, 256}, Simplifications: []int{1, 7}, Fusion: []bool{true}}
			for j := 0; j < 3; j++ {
				g.Nodes = append(g.Nodes, round3(5+40*rng.Float64()))
			}
			b := &sweepBody{Workload: c.kernel, Size: c.size, Grid: g}
			o := postOp("grid", "/v1/sweep", b)
			o.sweep = b
			w.stream = append(w.stream, o)
		default:
			nk++
			b := &sweepBody{Workload: kernels[nk%len(kernels)]}
			for j := 0; j < 16; j++ {
				b.Designs = append(b.Designs, core.DesignJSON{
					NodeNM:         tableNodes[rng.Intn(len(tableNodes))],
					Partition:      tablePartitions[rng.Intn(len(tablePartitions))],
					Simplification: tableSimplify[rng.Intn(len(tableSimplify))],
					Fusion:         rng.Intn(2) == 1,
					ClockGHz:       round3(0.1 + 2.9*rng.Float64()),
				})
			}
			o := postOp("designs", "/v1/sweep", b)
			o.sweep = b
			w.stream = append(w.stream, o)
		}
	}
	return w
}

// uncertaintyReplicates is the fixed replicate count of the uncertainty
// workload: the served minimum, which still leaves Monte Carlo two thirds
// of each request and gives a run the most samples for its p99.
const uncertaintyReplicates = 10

// uncertainty posts /v1/uncertainty with fresh seeds, so every request
// misses the memo. Priming runs one request at a seed outside the stream
// with the served default of 200 replicates: set-up is then mostly Monte
// Carlo, not the 8-11 ms boot, whose jitter would dominate a 10-replicate
// prime.
func uncertainty(rng *rand.Rand, seconds int) *workload {
	w := &workload{name: "uncertainty", block: 12, rssOps: 160}
	seeds := freshSeeds(rng, seconds*200+1)
	mk := func(s int64, replicates int) *op {
		b := &uncertaintyBody{Replicates: replicates, Seed: s}
		o := postOp("uncertainty", "/v1/uncertainty", b)
		o.unc = b
		return o
	}
	w.prime = []*op{mk(seeds[0], montecarlo.DefaultReplicates)}
	for _, s := range seeds[1:] {
		w.stream = append(w.stream, mk(s, uncertaintyReplicates))
	}
	return w
}

// Durable job sizes. The SSE stream polls every 100 ms, so a job's
// latency rounds up to the next tick after it finishes. On a 2-vCPU host
// at full speed an uncertainty job computes in about 20 ms, a reduced-grid
// sweep job in 2-8 ms and a search job in 5-8 ms: inside the first tick
// window even when a busy shared host runs them three times slower.
const (
	jobReplicates  = 16
	jobPopulation  = 24
	jobGenerations = 8
)

// durable submits checkpointed jobs cycling through the three kinds and
// waits on each one's SSE terminal frame before fetching its result.
func durable(rng *rand.Rand, seconds int) *workload {
	w := &workload{name: "durable", block: 6, rssOps: 40, jobs: true}
	n := seconds*40 + 3
	seeds := freshSeeds(rng, n+3)
	mk := func(i int) *op {
		var b *jobBody
		switch i % 3 {
		case 0:
			b = &jobBody{Kind: "uncertainty", CheckpointEvery: 4,
				Uncertainty: &uncertaintyBody{Replicates: jobReplicates, Seed: seeds[i]}}
		case 1:
			b = &jobBody{Kind: "sweep", CheckpointEvery: 64,
				Sweep: &sweepBody{Workload: searchKernels[(i/3)%len(searchKernels)], Preset: "reduced"}}
		default:
			b = &jobBody{Kind: "search", CheckpointEvery: 2,
				Search: &searchBody{Workload: searchKernels[(i/3)%len(searchKernels)],
					Population: jobPopulation, Generations: jobGenerations, Seed: seeds[i]}}
		}
		o := postOp("job-"+b.Kind, "/v1/jobs", b)
		o.job = b
		return o
	}
	for i := 0; i < 3; i++ {
		w.prime = append(w.prime, mk(i))
	}
	for i := 3; i < n+3; i++ {
		w.stream = append(w.stream, mk(i))
	}
	return w
}

// streamOp returns the i-th measured op, or false once a non-cyclic
// stream is exhausted.
func (w *workload) streamOp(i int) (*op, bool) {
	if i < len(w.stream) {
		return w.stream[i], true
	}
	if w.cyclic {
		return w.stream[i%len(w.stream)], true
	}
	return nil, false
}

// sweepGrid resolves a sweep body's grid onto engine parameters.
func (b *sweepBody) sweepGrid() *sweep.Params {
	switch {
	case b.Grid != nil:
		return &sweep.Params{Nodes: b.Grid.Nodes, Partitions: b.Grid.Partitions,
			Simplifications: b.Grid.Simplifications, Fusion: b.Grid.Fusion}
	case b.Preset == "reduced":
		p := sweep.Reduced()
		return &p
	}
	return nil
}
