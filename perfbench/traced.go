package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"accelwall/internal/checkpoint"
	"accelwall/internal/montecarlo"
	"accelwall/internal/server"
	"accelwall/internal/sweep"
)

// runTraced is the traced run. Per-layer metrics are per (workload,
// layer): a layer's numbers mean something only on a stream that calls
// it, so whichever workload the run is started for, it traces every
// workload named in names, with the run's seed, and prefixes each metric
// with its workload's name.
func runTraced(cfg config, names []string, dir string) (*result, error) {
	res := &result{Correct: true, Metrics: make(map[string]metric)}
	for _, name := range names {
		w, err := newWorkload(name, cfg.seed, cfg.seconds)
		if err != nil {
			return nil, err
		}
		wdir := filepath.Join(dir, name)
		if err := os.MkdirAll(wdir, 0o755); err != nil {
			return nil, err
		}
		budget := time.Duration(cfg.seconds) * time.Second / time.Duration(len(names))
		m, chk, failed, err := traceWorkload(cfg, w, wdir, budget)
		if err != nil {
			return nil, err
		}
		res.Attempted += chk
		res.Failed += failed
		for k, v := range m {
			res.Metrics[name+"."+k] = metric{v, layerUnits[k]}
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// traceWorkload traces one workload. It boots the daemon once for the
// counted block (end-to-end latencies of the block and the /v1/metrics
// counters), then replays the same prime + block ops in-process: through
// the daemon's handler with no socket, and through the layer packages
// with every call a span. Untraced layer replays alternate with traced
// ones for about budget to measure the tracing overhead. It returns the
// metrics and how many replies it checked and found wrong.
func traceWorkload(cfg config, w *workload, dir string, budget time.Duration) (map[string]float64, int, int, error) {
	ops := append(append([]*op{}, w.prime...), w.stream[:w.block]...)
	chk := newChecker()
	s, err := boot(cfg, w, dir, 0, chk)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := s.close(); err != nil {
		return nil, 0, 0, err
	}

	tr := newTracer()
	handler, allocKB, err := handlerReplay(dir, w, ops, tr, chk)
	if err != nil {
		return nil, 0, 0, err
	}
	l, err := layerPass(filepath.Join(dir, "layers-traced"), ops, tr)
	if err != nil {
		return nil, 0, 0, err
	}
	overhead, err := traceOverhead(budget, dir, ops)
	if err != nil {
		return nil, 0, 0, err
	}
	store, err := checkpoint.Open(filepath.Join(dir, "reference-jobs"))
	if err != nil {
		return nil, 0, 0, err
	}
	failed := chk.verify(newLayers(nil, store))

	m := layerMetrics(w, ops, tr.spans, handler, l)
	blockP50 := median(s.blockLat)
	m["server.transport_ms"] = blockP50 - m["server.handler_ms"]
	if w.jobs {
		m["server.job_wait_ms"] = blockP50 - m["server.job_compute_ms"]
	} else {
		m["server.job_wait_ms"] = 0
	}
	m["server.alloc_kb_per_op"] = allocKB
	m["trace.overhead_pct"] = overhead
	for k, v := range counterMetrics(s.counters, s.delta) {
		m[k] = v
	}
	if m["sweep.pool_speedup"], err = sweepProbe(ops); err != nil {
		return nil, 0, 0, err
	}
	if err := montecarloProbe(ops, m); err != nil {
		return nil, 0, 0, err
	}

	path := filepath.Join(cfg.work, fmt.Sprintf("trace-%s-seed%d.json", w.name, cfg.seed))
	if err := writeTrace(path, tr.spans, m); err != nil {
		return nil, 0, 0, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	return m, chk.total, failed, nil
}

// handlerReplay serves ops through a fresh in-process server's handler
// and returns each op's ServeHTTP time (a server.handler span, the whole
// submit → SSE → result exchange for a job) and the heap allocated per
// counted-block op.
func handlerReplay(dir string, w *workload, ops []*op, tr *tracer, chk *checker) ([]float64, float64, error) {
	logf, err := os.Create(filepath.Join(dir, "inprocess-access.log"))
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	opts := server.Options{Logger: log.New(logf, "accelwalld ", log.LstdFlags)}
	if w.jobs {
		opts.JobsDir = filepath.Join(dir, "inprocess-jobs")
	}
	srv, err := server.New(opts)
	if err != nil {
		return nil, 0, err
	}
	defer srv.Close()
	h := srv.Handler()
	serve := func(method, path string, body []byte) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	times := make([]float64, len(ops))
	var before, after runtime.MemStats
	for i, o := range ops {
		if i == len(w.prime) {
			runtime.ReadMemStats(&before)
		}
		start := time.Now()
		var r reply
		r.status, r.body = serve(o.method, o.path, o.body)
		if o.job != nil && r.status == http.StatusAccepted {
			var sub struct{ ID string }
			if err := json.Unmarshal(r.body, &sub); err != nil {
				return nil, 0, err
			}
			st, events := serve("GET", "/v1/jobs/"+sub.ID+"/events", nil)
			if state := lastSSEState(events); st != http.StatusOK || state != "done" {
				r.err = fmt.Errorf("job %s: SSE status %d state %q", sub.ID, st, state)
			}
			r.status, r.body = serve("GET", "/v1/jobs/"+sub.ID, nil)
		}
		d := time.Since(start)
		times[i] = ms(d)
		tr.add("server.handler", -1, i, start, d)
		chk.add(o, r)
	}
	runtime.ReadMemStats(&after)
	block := float64(len(ops) - len(w.prime))
	return times, float64(after.TotalAlloc-before.TotalAlloc) / 1024 / block, nil
}

// layerPass replays ops through a fresh layers value whose job store
// lives in dir.
func layerPass(dir string, ops []*op, tr *tracer) (*layers, error) {
	store, err := checkpoint.Open(dir)
	if err != nil {
		return nil, err
	}
	l := newLayers(tr, store)
	for i, o := range ops {
		if _, err := l.run(o, i); err != nil {
			return nil, fmt.Errorf("layer replay of %s %s: %w", o.method, o.path, err)
		}
	}
	return l, os.RemoveAll(dir)
}

// traceOverhead times untraced and traced layer replays in alternating
// pairs for about budget (at least three pairs) and returns the median
// extra time of the traced replay, in per cent.
func traceOverhead(budget time.Duration, dir string, ops []*op) (float64, error) {
	var pct []float64
	deadline := time.Now().Add(budget)
	for k := 0; k < 3 || (k < 30 && time.Now().Before(deadline)); k++ {
		var t [2]time.Duration
		for j := 0; j < 2; j++ {
			traced := (j+k)%2 == 1 // alternate which side runs first
			var tr *tracer
			if traced {
				tr = newTracer()
			}
			runtime.GC()
			start := time.Now()
			if _, err := layerPass(filepath.Join(dir, fmt.Sprintf("layers-%d-%d", k, j)), ops, tr); err != nil {
				return 0, err
			}
			if traced {
				t[1] = time.Since(start)
			} else {
				t[0] = time.Since(start)
			}
		}
		pct = append(pct, 100*(t[1].Seconds()/t[0].Seconds()-1))
	}
	return median(pct), nil
}

// layerMetrics derives the span-based per-layer metrics. Handler, self
// and encode times are medians over the counted-block ops; the layer
// call times are medians over every call of the pass, priming included,
// since priming is where the compiles and fits happen.
func layerMetrics(w *workload, ops []*op, spans []span, handler []float64, l *layers) map[string]float64 {
	self := selfTimes(spans)
	byName := make(map[string][]float64)
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s.dur())
	}
	layerTime := make(map[int]float64) // req -> time in the root's children
	encode := make(map[int]float64)
	searchEval := make(map[int]float64) // search.run span -> eval time
	var searchSelf []float64
	for i, s := range spans {
		if s.Parent >= 0 && spans[s.Parent].Name == "request" {
			layerTime[s.Req] += s.dur()
		}
		switch s.Name {
		case "core.encode":
			encode[s.Req] += s.dur()
		case "search.eval":
			searchEval[s.Parent] += s.dur()
		case "search.run":
			searchSelf = append(searchSelf, self[i])
		}
	}
	var handlerMS, selfMS, encodeMS, evalMS []float64
	for i := len(w.prime); i < len(ops); i++ {
		handlerMS = append(handlerMS, handler[i])
		selfMS = append(selfMS, handler[i]-layerTime[i])
		if v, ok := encode[i]; ok {
			encodeMS = append(encodeMS, v)
		}
	}
	for _, v := range searchEval {
		evalMS = append(evalMS, v)
	}
	var evals []float64
	for _, n := range l.searchEvals {
		evals = append(evals, float64(n))
	}
	var kb float64
	for _, n := range l.snapshotSize {
		kb += float64(n) / 1024
	}
	m := map[string]float64{
		"server.handler_ms":           median(handlerMS),
		"server.self_ms":              median(selfMS),
		"core.study_ms":               sum(byName["core.study"]),
		"core.encode_ms":              median(encodeMS),
		"workloads.build_ms":          median(byName["workloads.build"]),
		"sweep.compile_ms":            median(byName["sweep.compile"]),
		"sweep.eval_us_per_point":     ratio(float64(l.evalTime.Microseconds()), float64(l.evalPoints)),
		"sweep.memo_hit_ratio":        ratio(float64(l.evalPoints-l.evalNew), float64(l.evalPoints)),
		"aladdin.schedule_walk_ratio": ratio(float64(l.walks), float64(l.walks+l.hits)),
		"search.self_ms":              median(searchSelf),
		"search.eval_ms":              median(evalMS),
		"search.evaluations":          median(evals),
		"checkpoint.save_ms":          median(byName["checkpoint.save"]),
		"checkpoint.snapshot_kb":      ratio(kb, float64(len(l.snapshotSize))),
		"checkpoint.saves_per_job":    ratio(float64(len(l.snapshotSize)), float64(l.jobs)),
		"server.job_compute_ms":       median(byName["job.run"]),
	}
	return m
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// counterMetrics turns the daemon's /v1/metrics counters after the
// counted block into per-layer metrics: the cache hit ratios over the
// block alone, and the absolute counts since boot.
func counterMetrics(abs, delta map[string]float64) map[string]float64 {
	hitRatio := func(hits, other string) float64 {
		return ratio(delta[hits], delta[hits]+delta[other])
	}
	return map[string]float64{
		"server.response_cache_hit_ratio":   hitRatio("sweep_response_cache.hits", "sweep_response_cache.misses"),
		"server.uncertainty_memo_hit_ratio": hitRatio("uncertainty_cache.hits", "uncertainty_cache.runs"),
		"server.search_memo_hit_ratio":      hitRatio("search_cache.hits", "search_cache.runs"),
		"server.engine_cache_hit_ratio":     hitRatio("engine_cache.hits", "engine_cache.misses"),
		"server.shed_ops":                   abs["overload.shed_429"] + abs["overload.shed_503"] + abs["resources.mem_sheds"] + abs["overload.degraded_served"],
		"counters.engine_compiles":          abs["engine_cache.compiles"],
		"counters.engine_evictions":         abs["engine_cache.evicted"],
		"counters.study_fits":               abs["study_cache.fits"],
		"counters.response_cache_hits":      abs["sweep_response_cache.hits"],
		"counters.uncertainty_runs":         abs["uncertainty_cache.runs"],
		"counters.search_runs":              abs["search_cache.runs"],
		"counters.schedule_lookups":         abs["engines.schedule_lookups"],
		"counters.schedule_walks":           abs["engines.schedule_walks"],
		"counters.cached_points":            abs["engines.cached_points"],
		"counters.jobs_completed":           abs["jobs.completed"],
		"counters.job_snapshots":            abs["jobs.snapshots"],
	}
}

// sweepProbe times the first grid sweep of ops on fresh engines with one
// worker and with GOMAXPROCS workers, three times each, and returns the
// ratio of the medians; 0 when ops hold no grid sweep.
func sweepProbe(ops []*op) (float64, error) {
	var b *sweepBody
	for _, o := range ops {
		if o.sweep != nil && o.sweep.sweepGrid() != nil {
			b = o.sweep
		} else if o.job != nil && o.job.Sweep != nil {
			b = o.job.Sweep
		}
		if b != nil {
			break
		}
	}
	if b == nil {
		return 0, nil
	}
	g, err := buildGraph(b.Workload, b.Size)
	if err != nil {
		return 0, err
	}
	var t [2][]float64
	for r := 0; r < 6; r++ {
		workers := 1
		if r%2 == 1 {
			workers = runtime.GOMAXPROCS(0)
		}
		eng, err := sweep.NewEngine(g)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if _, err := eng.RunContext(context.Background(), *b.sweepGrid(), workers); err != nil {
			return 0, err
		}
		t[r%2] = append(t[r%2], ms(time.Since(start)))
	}
	return median(t[0]) / median(t[1]), nil
}

// montecarloProbe runs the first uncertainty config of ops with one
// worker and with the default pool, three times each, and records the
// time and heap allocation per replicate with one worker and the pool's
// speed-up; all 0 when ops hold no uncertainty run.
func montecarloProbe(ops []*op, m map[string]float64) error {
	m["montecarlo.replicate_ms"], m["montecarlo.pool_speedup"], m["montecarlo.alloc_kb_per_replicate"] = 0, 0, 0
	var b *uncertaintyBody
	for _, o := range ops {
		if o.unc != nil {
			b = o.unc
		} else if o.job != nil && o.job.Uncertainty != nil {
			b = o.job.Uncertainty
		}
		if b != nil {
			break
		}
	}
	if b == nil {
		return nil
	}
	cfg := mcConfig(b)
	eng, err := montecarlo.New(cfg.CorpusSeed)
	if err != nil {
		return err
	}
	var t [2][]float64
	var alloc []float64
	for r := 0; r < 6; r++ {
		run := cfg
		run.Workers = 1
		if r%2 == 1 {
			run.Workers = 0
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		if _, err := eng.RunContext(context.Background(), run); err != nil {
			return err
		}
		t[r%2] = append(t[r%2], ms(time.Since(start)))
		runtime.ReadMemStats(&after)
		if run.Workers == 1 {
			alloc = append(alloc, float64(after.TotalAlloc-before.TotalAlloc)/1024)
		}
	}
	reps := float64(cfg.Replicates)
	m["montecarlo.replicate_ms"] = median(t[0]) / reps
	m["montecarlo.pool_speedup"] = median(t[0]) / median(t[1])
	m["montecarlo.alloc_kb_per_replicate"] = median(alloc) / reps
	return nil
}

// layerUnits is the unit of every per-layer metric. BENCHMARK.json lists
// the ones each listed workload exercises, prefixed with its name.
var layerUnits = map[string]string{
	"server.handler_ms":                 "ms",
	"server.self_ms":                    "ms",
	"server.alloc_kb_per_op":            "KB",
	"server.transport_ms":               "ms",
	"server.response_cache_hit_ratio":   "ratio",
	"server.uncertainty_memo_hit_ratio": "ratio",
	"server.search_memo_hit_ratio":      "ratio",
	"server.engine_cache_hit_ratio":     "ratio",
	"server.shed_ops":                   "count",
	"server.job_compute_ms":             "ms",
	"server.job_wait_ms":                "ms",
	"core.study_ms":                     "ms",
	"core.encode_ms":                    "ms",
	"workloads.build_ms":                "ms",
	"sweep.compile_ms":                  "ms",
	"sweep.eval_us_per_point":           "us",
	"sweep.memo_hit_ratio":              "ratio",
	"sweep.pool_speedup":                "x",
	"aladdin.schedule_walk_ratio":       "ratio",
	"search.self_ms":                    "ms",
	"search.eval_ms":                    "ms",
	"search.evaluations":                "count",
	"montecarlo.replicate_ms":           "ms",
	"montecarlo.pool_speedup":           "x",
	"montecarlo.alloc_kb_per_replicate": "KB",
	"checkpoint.save_ms":                "ms",
	"checkpoint.snapshot_kb":            "KB",
	"checkpoint.saves_per_job":          "count",
	"trace.overhead_pct":                "%",
	"counters.engine_compiles":          "count",
	"counters.engine_evictions":         "count",
	"counters.study_fits":               "count",
	"counters.response_cache_hits":      "count",
	"counters.uncertainty_runs":         "count",
	"counters.search_runs":              "count",
	"counters.schedule_lookups":         "count",
	"counters.schedule_walks":           "count",
	"counters.cached_points":            "count",
	"counters.jobs_completed":           "count",
	"counters.job_snapshots":            "count",
}
