package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"

	"accelwall/internal/checkpoint"
	"accelwall/internal/core"
	"accelwall/internal/search"
)

// maxSearchEvaluations bounds a search request's evaluation budget —
// population × generations, the worst-case fresh simulations past the
// seeding lattice — to the same grid-point limit exhaustive sweeps get.
const maxSearchEvaluations = 65536

// maxSpaceAxis bounds each custom space axis's value count.
const maxSpaceAxis = 1024

// searchSpaceJSON describes a custom design space intensionally; a nil
// space selects the paper's full Table III grid.
type searchSpaceJSON struct {
	Nodes           []float64 `json:"nodes"`
	Partitions      []int     `json:"partitions"`
	Simplifications []int     `json:"simplifications"`
	Fusion          []bool    `json:"fusion"`
	Clocks          []float64 `json:"clocks"`
	MemoryBanks     []int     `json:"memory_banks"`
}

// searchRequest is the POST /v1/search body (and the search job body).
// Every field but workload is optional; zero values select the search
// defaults (NSGA-II, delay+energy objectives, Table III space, population
// 48, 24 generations, seed 1).
type searchRequest struct {
	Workload    string           `json:"workload"`
	Size        int              `json:"size,omitempty"`
	Strategy    string           `json:"strategy,omitempty"`
	Objectives  []string         `json:"objectives,omitempty"`
	Population  int              `json:"population,omitempty"`
	Generations int              `json:"generations,omitempty"`
	Seed        int64            `json:"seed,omitempty"`
	MaxArea     float64          `json:"max_area,omitempty"`
	MaxPowerW   float64          `json:"max_power_w,omitempty"`
	Space       *searchSpaceJSON `json:"space,omitempty"`
	Workers     int              `json:"workers,omitempty"`

	cfg search.Config // resolved by resolve
}

// config maps the wire body onto the normalized engine configuration.
func (r *searchRequest) config() (search.Config, error) {
	strategy, err := search.ParseStrategy(r.Strategy)
	if err != nil {
		return search.Config{}, err
	}
	cfg := search.Config{
		Strategy:    strategy,
		Population:  r.Population,
		Generations: r.Generations,
		Seed:        r.Seed,
		Constraints: search.Constraints{MaxArea: r.MaxArea, MaxPowerW: r.MaxPowerW},
		Workers:     r.Workers,
	}
	for _, name := range r.Objectives {
		o, err := search.ParseObjective(name)
		if err != nil {
			return search.Config{}, err
		}
		cfg.Objectives = append(cfg.Objectives, o)
	}
	if r.Space != nil {
		cfg.Space = search.Space{
			Nodes:           r.Space.Nodes,
			Partitions:      r.Space.Partitions,
			Simplifications: r.Space.Simplifications,
			Fusion:          r.Space.Fusion,
			Clocks:          r.Space.Clocks,
			MemoryBanks:     r.Space.MemoryBanks,
		}
	}
	cfg = cfg.Normalized()
	if err := cfg.Validate(); err != nil {
		return search.Config{}, err
	}
	return cfg, nil
}

// searchKey fingerprints a normalized search config for the response
// cache. Worker count is excluded: searches are bit-identical at any pool
// width. (search.Config holds slices, so it cannot key a map directly the
// way montecarlo.Config does.)
func searchKey(engine string, cfg search.Config) string {
	var b strings.Builder
	b.WriteString(engine)
	b.WriteByte('|')
	b.WriteString(cfg.Strategy.String())
	f := func(v float64) { b.WriteByte(' '); b.WriteString(strconv.FormatFloat(v, 'g', -1, 64)) }
	i := func(v int) { b.WriteByte(' '); b.WriteString(strconv.Itoa(v)) }
	i(cfg.Population)
	i(cfg.Generations)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(cfg.Seed, 10))
	f(cfg.Constraints.MaxArea)
	f(cfg.Constraints.MaxPowerW)
	b.WriteString("|obj")
	for _, o := range cfg.Objectives {
		i(int(o))
	}
	b.WriteString("|n")
	for _, v := range cfg.Space.Nodes {
		f(v)
	}
	b.WriteString("|p")
	for _, v := range cfg.Space.Partitions {
		i(v)
	}
	b.WriteString("|s")
	for _, v := range cfg.Space.Simplifications {
		i(v)
	}
	b.WriteString("|f")
	for _, v := range cfg.Space.Fusion {
		if v {
			i(1)
		} else {
			i(0)
		}
	}
	b.WriteString("|c")
	for _, v := range cfg.Space.Clocks {
		f(v)
	}
	b.WriteString("|b")
	for _, v := range cfg.Space.MemoryBanks {
		i(v)
	}
	return b.String()
}

func (r *searchRequest) resolve() error {
	if r.Workload == "" {
		return errors.New("missing workload")
	}
	if err := r.validate(); err != nil {
		return err
	}
	var err error
	r.cfg, err = r.config()
	return err
}

func (r *searchRequest) check(s *Server, job bool) error {
	if err := r.resolve(); err != nil {
		return err
	}
	return jobWorkload(job, r.Workload)
}

// key is the search-cache key of a checked request.
func (r *searchRequest) key() string {
	return searchKey(engineKey(r.Workload, r.Size), r.cfg)
}

// run searches cfg over eval at the given pool width, durably when ck is
// set.
func (r *searchRequest) run(ctx context.Context, eval search.Evaluator, cfg search.Config, workers int, ck *checkpoint.Options) (core.SearchJSON, int, error) {
	cfg.Workers = workers
	res, err := search.RunCheckpointed(ctx, eval, cfg, ck)
	if err != nil {
		return core.SearchJSON{}, 0, err
	}
	return core.NewSearchJSON(r.Workload, cfg, res), res.Resumed, nil
}

// serve runs a synchronous design-space search on the workload's cached
// engine. Deterministic in everything but pool width, so completed
// frontiers are memoized on the normalized config; concurrent identical
// requests share one run with reference-counted cancellation, matching
// /v1/uncertainty.
func (r *searchRequest) serve(s *Server, w http.ResponseWriter, req *http.Request) {
	eng, err := s.engine(r.Workload, r.Size)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Cluster mode swaps in an evaluator whose batch evaluations scatter
	// cold designs across the membership; the search trajectory itself
	// stays on this coordinator, so the result is byte-identical either
	// way.
	var eval search.Evaluator = eng
	if s.clusterEnabled() {
		eval = &distEvaluator{s: s, eng: eng, workload: r.Workload, size: r.Size}
	}
	out, err := s.searches.get(req.Context(), r.key(), func(runCtx context.Context) (core.SearchJSON, error) {
		out, _, err := r.run(runCtx, eval, r.cfg, s.poolWidth(r.Workers), nil)
		return out, err
	})
	if err != nil {
		if s.cancelled(w, req, err) {
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func (r *searchRequest) runJob(ctx context.Context, s *Server, ck *checkpoint.Options) (json.RawMessage, int, error) {
	eng, err := s.jobEngine(r.Workload, r.Size)
	if err != nil {
		return nil, 0, err
	}
	out, resumed, err := r.run(ctx, eng, r.cfg, s.poolWidth(r.Workers), ck)
	if err != nil {
		return nil, 0, err
	}
	payload, err := json.Marshal(out)
	return payload, resumed, err
}

func (r *searchRequest) progress(snapshot []byte) (int, int, error) {
	return search.SnapshotProgress(snapshot)
}

// units counts a search's steps: the seeding lattice plus one per
// generation or rung.
func (r *searchRequest) units() (int, int) {
	n := r.cfg.Generations + 1
	return n, n
}
