package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"accelwall/internal/aladdin"
	"accelwall/internal/checkpoint"
	"accelwall/internal/cmos"
	"accelwall/internal/core"
	"accelwall/internal/csr"
	"accelwall/internal/dfg"
	"accelwall/internal/gains"
	"accelwall/internal/montecarlo"
	"accelwall/internal/projection"
	"accelwall/internal/search"
	"accelwall/internal/sweep"
	"accelwall/internal/workloads"
)

// sweepResponse mirrors the /v1/sweep payload and a sweep job's result.
type sweepResponse struct {
	Workload  string                   `json:"workload"`
	Objective string                   `json:"objective"`
	Evaluated int                      `json:"evaluated"`
	Cached    int                      `json:"cached_points"`
	Points    []core.SweepPointJSON    `json:"points,omitempty"`
	Best      *core.SweepPointJSON     `json:"best,omitempty"`
	Frontier  []core.FrontierPointJSON `json:"frontier,omitempty"`
}

// layers replays ops through the public functions of the layer packages,
// in the order the daemon's handlers call them, and returns the payload
// each op must produce. It keeps the daemon's process-lifetime state the
// same way the daemon does — one fitted study, one engine per (workload,
// size), the grid-response cache and the uncertainty and search memos —
// so a request the daemon answers from a cache makes no layer call here
// either. With a tracer, every call is a span under the op's root span.
type layers struct {
	tr    *tracer
	store *checkpoint.Store // durable-job snapshots and results

	study    *core.Study
	engines  *engineLRU
	gridResp map[string][]byte
	uncMemo  map[uncertaintyBody]core.UncertaintyJSON
	srchMemo map[searchBody]core.SearchJSON
	jobs     int

	// Per-layer tallies for the traced run.
	evalPoints   int           // design points asked of sweep engines
	evalNew      int           // of which the engine memo had not seen
	evalTime     time.Duration // time in engine evaluation calls
	walks, hits  uint64        // schedule-class cache walks and hits
	searchEvals  []int         // search.Result.Evaluations per search run
	snapshotSize []int         // checkpoint payload bytes per Save
}

func newLayers(tr *tracer, store *checkpoint.Store) *layers {
	return &layers{
		tr: tr, store: store,
		engines:  newEngineLRU(engineCacheSize),
		gridResp: make(map[string][]byte),
		uncMemo:  make(map[uncertaintyBody]core.UncertaintyJSON),
		srchMemo: make(map[searchBody]core.SearchJSON),
	}
}

// call times fn as a span named name under parent.
func (l *layers) call(name string, parent, req int, fn func() (int, error)) error {
	id := l.tr.begin(name, parent, req)
	n, err := fn()
	l.tr.end(id, n)
	return err
}

// encode renders v the way the daemon writes JSON bodies.
func (l *layers) encode(root, req int, v any) ([]byte, error) {
	var buf bytes.Buffer
	err := l.call("core.encode", root, req, func() (int, error) {
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		return buf.Len(), enc.Encode(v)
	})
	return buf.Bytes(), err
}

// run replays op o as request number req and returns the expected body;
// for a job, the expected result payload.
func (l *layers) run(o *op, req int) ([]byte, error) {
	root := l.tr.begin("request", -1, req)
	defer l.tr.end(root, 0)
	switch {
	case o.cmosNode != 0:
		var n cmos.Node
		err := l.call("cmos.lookup", root, req, func() (int, error) {
			var err error
			n, err = cmos.Lookup(o.cmosNode)
			return 1, err
		})
		if err != nil {
			return nil, err
		}
		return l.encode(root, req, core.NewCMOSNodeJSON(n))
	case o.csr != nil:
		return l.csr(o.csr, root, req)
	case o.caseStudy != "":
		var cs core.CaseStudyJSON
		err := l.call("casestudy.build", root, req, func() (int, error) {
			var err error
			cs, err = core.CaseStudy(o.caseStudy)
			return 1, err
		})
		if err != nil {
			return nil, err
		}
		return l.encode(root, req, cs)
	case o.sweep != nil:
		return l.sweep(o.sweep, root, req)
	case o.unc != nil:
		return l.uncertainty(o.unc, root, req)
	case o.search != nil:
		return l.search(o.search, root, req)
	case o.job != nil:
		return l.job(o.job, root, req)
	case o.method == "GET": // the one GET left is /v1/projection
		return l.projection(o.projection, root, req)
	}
	return nil, fmt.Errorf("op %s %s has no layer call", o.method, o.path)
}

func (l *layers) csr(b *csrBody, root, req int) ([]byte, error) {
	if l.study == nil {
		err := l.call("core.study", root, req, func() (int, error) {
			var err error
			l.study, err = core.New(1)
			return 1, err
		})
		if err != nil {
			return nil, err
		}
	}
	target, err := core.ParseTarget(b.Target)
	if err != nil {
		return nil, err
	}
	obs := make([]csr.Observation, len(b.Observations))
	for i, o := range b.Observations {
		obs[i] = csr.Observation{Name: o.Name, Gain: o.Gain, Year: o.Year,
			Chip: gains.Config{NodeNM: o.Chip.NodeNM, DieMM2: o.Chip.DieMM2, TDPW: o.Chip.TDPW, FreqGHz: o.Chip.FreqGHz}}
	}
	var rows []csr.Row
	err = l.call("csr.analyze", root, req, func() (int, error) {
		var err error
		rows, err = csr.Analyze(l.study.Gains, target, obs, 0)
		return len(rows), err
	})
	if err != nil {
		return nil, err
	}
	return l.encode(root, req, map[string]any{"target": core.TargetName(target), "rows": core.NewCSRRows(rows)})
}

func (l *layers) projection(target string, root, req int) ([]byte, error) {
	runs := []func() ([]projection.Projection, error){projection.Fig15, projection.Fig16}
	switch target {
	case "performance":
		runs = runs[:1]
	case "efficiency":
		runs = runs[1:]
	}
	var out []core.ProjectionJSON
	for _, run := range runs {
		var projs []projection.Projection
		err := l.call("projection.run", root, req, func() (int, error) {
			var err error
			projs, err = run()
			return len(projs), err
		})
		if err != nil {
			return nil, err
		}
		for _, p := range projs {
			out = append(out, core.NewProjectionJSON(p))
		}
	}
	return l.encode(root, req, map[string]any{"projections": out})
}

// buildGraph resolves a kernel name the way the daemon does.
func buildGraph(name string, size int) (*dfg.Graph, error) {
	if spec, err := workloads.ByAbbrev(name); err == nil {
		return spec.Build(size)
	}
	if v, err := workloads.VariantByName(name); err == nil {
		return v.Build(size)
	}
	k, err := workloads.DomainKernelByName(name)
	if err != nil {
		return nil, err
	}
	return k.Build(size)
}

// compile builds and compiles a fresh engine, as two spans.
func (l *layers) compile(name string, size, parent, req int) (*sweep.Engine, error) {
	var g *dfg.Graph
	err := l.call("workloads.build", parent, req, func() (int, error) {
		var err error
		g, err = buildGraph(name, size)
		return 1, err
	})
	if err != nil {
		return nil, err
	}
	var eng *sweep.Engine
	err = l.call("sweep.compile", parent, req, func() (int, error) {
		var err error
		eng, err = sweep.NewEngine(g)
		return 1, err
	})
	return eng, err
}

// engineCacheSize is the daemon's default -cache: resident engines.
const engineCacheSize = 32

// engineLRU mirrors the daemon's engine cache: at most max engines, least
// recently used evicted first.
type engineLRU struct {
	max   int
	order []string // most recent last
	m     map[string]*sweep.Engine
}

func newEngineLRU(max int) *engineLRU {
	return &engineLRU{max: max, m: make(map[string]*sweep.Engine)}
}

func (c *engineLRU) get(key string) (*sweep.Engine, bool) {
	e, ok := c.m[key]
	if ok {
		c.touch(key)
	}
	return e, ok
}

func (c *engineLRU) touch(key string) {
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	c.order = append(c.order, key)
}

func (c *engineLRU) put(key string, e *sweep.Engine) {
	c.m[key] = e
	c.touch(key)
	if len(c.order) > c.max {
		delete(c.m, c.order[0])
		c.order = c.order[1:]
	}
}

// engine returns the resident engine for (name, size), compiling it on
// a miss like the daemon's engine cache.
func (l *layers) engine(name string, size, parent, req int) (*sweep.Engine, error) {
	key := name + "@" + strconv.Itoa(size)
	if e, ok := l.engines.get(key); ok {
		return e, nil
	}
	e, err := l.compile(name, size, parent, req)
	if err == nil {
		l.engines.put(key, e)
	}
	return e, err
}

// evaluate times one engine evaluation call as a span named name and
// tallies its points, memo misses (the engine's CachedPoints delta) and
// schedule walks and hits.
func (l *layers) evaluate(eng *sweep.Engine, name string, points, parent, req int, fn func() error) error {
	before := eng.CachedPoints()
	w0, h0 := eng.ScheduleCacheStats()
	start := time.Now()
	err := l.call(name, parent, req, func() (int, error) { return points, fn() })
	l.evalTime += time.Since(start)
	l.evalPoints += points
	l.evalNew += eng.CachedPoints() - before
	w1, h1 := eng.ScheduleCacheStats()
	l.walks += w1 - w0
	l.hits += h1 - h0
	return err
}

func (l *layers) sweep(b *sweepBody, root, req int) ([]byte, error) {
	eng, err := l.engine(b.Workload, b.Size, root, req)
	if err != nil {
		return nil, err
	}
	grid := b.sweepGrid()
	var key string
	if grid != nil {
		kb, _ := json.Marshal(b)
		key = string(kb)
		if body, ok := l.gridResp[key]; ok {
			return body, nil
		}
	}
	ctx := context.Background()
	var points []sweep.Point
	if grid != nil {
		n := len(grid.Nodes) * len(grid.Partitions) * len(grid.Simplifications) * len(grid.Fusion)
		err = l.evaluate(eng, "sweep.eval", n, root, req, func() error {
			var err error
			points, err = eng.RunContext(ctx, *grid, runtime.GOMAXPROCS(0))
			return err
		})
	} else {
		err = l.evaluate(eng, "sweep.eval", len(b.Designs), root, req, func() error {
			for _, dj := range b.Designs {
				d := dj.Design()
				res, err := eng.EvaluateContext(ctx, d)
				if err != nil {
					return err
				}
				points = append(points, sweep.Point{Design: d, Result: res})
			}
			return nil
		})
	}
	if err != nil {
		return nil, err
	}
	resp := sweepResponse{Workload: b.Workload, Objective: "efficiency", Evaluated: len(points), Cached: eng.CachedPoints()}
	if best, err := sweep.Best(points, sweep.Efficiency); err == nil {
		bj := core.NewSweepPointJSON(best)
		resp.Best = &bj
	}
	resp.Frontier = core.NewFrontierJSON(sweep.DesignFrontier(points))
	if grid == nil {
		for _, p := range points {
			resp.Points = append(resp.Points, core.NewSweepPointJSON(p))
		}
	}
	body, err := l.encode(root, req, resp)
	if err == nil && grid != nil {
		l.gridResp[key] = body
	}
	return body, err
}

// mcConfig maps an uncertainty body onto the engine config the daemon
// builds from it.
func mcConfig(b *uncertaintyBody) montecarlo.Config {
	return montecarlo.Config{Replicates: b.Replicates, Seed: b.Seed}.Normalized()
}

func (l *layers) uncertainty(b *uncertaintyBody, root, req int) ([]byte, error) {
	out, ok := l.uncMemo[*b]
	if !ok {
		cfg := mcConfig(b)
		var eng *montecarlo.Engine
		err := l.call("montecarlo.corpus", root, req, func() (int, error) {
			var err error
			eng, err = montecarlo.New(cfg.CorpusSeed)
			return 1, err
		})
		if err != nil {
			return nil, err
		}
		var res *montecarlo.Result
		err = l.call("montecarlo.run", root, req, func() (int, error) {
			var err error
			res, err = eng.RunContext(context.Background(), cfg)
			return cfg.Replicates, err
		})
		if err != nil {
			return nil, err
		}
		out = core.NewUncertaintyJSON(res)
		l.uncMemo[*b] = out
	}
	return l.encode(root, req, out)
}

// searchConfig maps a search body onto the engine config the daemon
// builds from it.
func searchConfig(b *searchBody) (search.Config, error) {
	cfg := search.Config{Population: b.Population, Generations: b.Generations, Seed: b.Seed}.Normalized()
	return cfg, cfg.Validate()
}

// timedEvaluator wraps the engine a search evaluates through, so each
// population batch is a search.eval span under the search span.
type timedEvaluator struct {
	*sweep.Engine
	l           *layers
	parent, req int
}

func (t *timedEvaluator) EvaluateBatchContext(ctx context.Context, designs []aladdin.Design, workers int) ([]aladdin.Result, error) {
	var res []aladdin.Result
	err := t.l.evaluate(t.Engine, "search.eval", len(designs), t.parent, t.req, func() error {
		var err error
		res, err = t.Engine.EvaluateBatchContext(ctx, designs, workers)
		return err
	})
	return res, err
}

func (l *layers) search(b *searchBody, root, req int) ([]byte, error) {
	out, ok := l.srchMemo[*b]
	if !ok {
		eng, err := l.engine(b.Workload, 0, root, req)
		if err != nil {
			return nil, err
		}
		cfg, err := searchConfig(b)
		if err != nil {
			return nil, err
		}
		var res *search.Result
		id := l.tr.begin("search.run", root, req)
		res, err = search.RunContext(context.Background(), &timedEvaluator{eng, l, id, req}, cfg)
		l.tr.end(id, 0)
		if err != nil {
			return nil, err
		}
		l.searchEvals = append(l.searchEvals, res.Evaluations)
		out = core.NewSearchJSON(b.Workload, cfg, res)
		l.srchMemo[*b] = out
	}
	return l.encode(root, req, out)
}

// timedSink is the checkpoint.Sink a durable job saves through: each
// Save on the job's *checkpoint.Log is a checkpoint.save span.
type timedSink struct {
	log         *checkpoint.Log
	l           *layers
	parent, req int
}

func (s *timedSink) Save(payload []byte) error {
	id := s.l.tr.begin("checkpoint.save", s.parent, s.req)
	err := s.log.Save(payload)
	s.l.tr.end(id, len(payload))
	s.l.snapshotSize = append(s.l.snapshotSize, len(payload))
	return err
}

// job runs a durable job the way the daemon's job runner does: the
// kind's RunCheckpointed into a snapshot log, then the result write.
func (l *layers) job(b *jobBody, root, req int) ([]byte, error) {
	l.jobs++
	name := fmt.Sprintf("job-%06d", l.jobs)
	log, err := l.store.OpenLog(name + ".progress")
	if err != nil {
		return nil, err
	}
	defer log.Close()
	onError := func(error) {}
	ctx := context.Background()
	jobID := l.tr.begin("job.run", root, req)
	sink := &timedSink{log: log, l: l, parent: jobID, req: req}
	var payload any
	switch b.Kind {
	case "uncertainty":
		var res *montecarlo.Result
		id := l.tr.begin("montecarlo.run", jobID, req)
		sink.parent = id
		res, err = montecarlo.RunCheckpointed(ctx, montecarlo.Config{Replicates: b.Uncertainty.Replicates, Seed: b.Uncertainty.Seed},
			&montecarlo.Checkpoint{Sink: sink, Every: b.CheckpointEvery, OnError: onError})
		l.tr.end(id, b.Uncertainty.Replicates)
		if err == nil {
			payload = core.NewUncertaintyJSON(res)
		}
	case "sweep":
		var g *dfg.Graph
		if g, err = buildGraph(b.Sweep.Workload, b.Sweep.Size); err != nil {
			break
		}
		var pts []sweep.Point
		id := l.tr.begin("sweep.run", jobID, req)
		sink.parent = id
		pts, _, err = sweep.RunParallelCheckpointed(ctx, g, *b.Sweep.sweepGrid(), 0,
			&sweep.Checkpoint{Sink: sink, Every: b.CheckpointEvery, OnError: onError})
		l.tr.end(id, len(pts))
		if err == nil {
			resp := sweepResponse{Workload: b.Sweep.Workload, Objective: "efficiency", Evaluated: len(pts)}
			if best, err := sweep.Best(pts, sweep.Efficiency); err == nil {
				bj := core.NewSweepPointJSON(best)
				resp.Best = &bj
			}
			resp.Frontier = core.NewFrontierJSON(sweep.DesignFrontier(pts))
			payload = resp
		}
	case "search":
		var eng *sweep.Engine
		if eng, err = l.compile(b.Search.Workload, 0, jobID, req); err != nil {
			break
		}
		var cfg search.Config
		if cfg, err = searchConfig(b.Search); err != nil {
			break
		}
		var res *search.Result
		id := l.tr.begin("search.run", jobID, req)
		sink.parent = id
		res, err = search.RunCheckpointed(ctx, &timedEvaluator{eng, l, id, req}, cfg,
			&search.Checkpoint{Sink: sink, Every: b.CheckpointEvery, OnError: onError})
		l.tr.end(id, 0)
		if err == nil {
			l.searchEvals = append(l.searchEvals, res.Evaluations)
			payload = core.NewSearchJSON(b.Search.Workload, cfg, res)
		}
	default:
		err = fmt.Errorf("unknown job kind %q", b.Kind)
	}
	l.tr.end(jobID, 0)
	if err != nil {
		return nil, err
	}
	var body []byte
	err = l.call("core.encode", root, req, func() (int, error) {
		var err error
		body, err = json.Marshal(payload)
		return len(body), err
	})
	if err != nil {
		return nil, err
	}
	err = l.call("checkpoint.write", root, req, func() (int, error) {
		return len(body), l.store.Write(name+".result", body)
	})
	return body, err
}
