package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"accelwall/internal/checkpoint"
)

// boots is how many times an end-to-end run starts the daemon. Every boot
// primes and runs the counted block, so set-up is measured boots times and
// the counters are compared across boots; the last boot also runs the
// timed loop.
const boots = 5

// session is one booted, primed daemon with its client connection.
type session struct {
	d        *daemon
	c        *conn
	setup    time.Duration
	counters map[string]float64 // after the counted block
	delta    map[string]float64 // counted block only
	blockLat []float64          // ms per counted-block op
}

// boot starts the daemon, primes it and runs the counted block, feeding
// every reply to chk.
func boot(cfg config, w *workload, dir string, n int, chk *checker) (*session, error) {
	var extra []string
	if w.jobs {
		extra = append(extra, "-jobs", filepath.Join(dir, fmt.Sprintf("jobs-%d", n)))
	}
	d, err := startDaemon(cfg.daemon, filepath.Join(dir, fmt.Sprintf("access-%d.log", n)), extra...)
	if err != nil {
		return nil, err
	}
	s := &session{d: d}
	fail := func(err error) (*session, error) {
		s.close()
		return nil, err
	}
	if err := d.waitReady(30 * time.Second); err != nil {
		return fail(err)
	}
	if s.c, err = dial(d.addr); err != nil {
		return fail(err)
	}
	for _, o := range w.prime {
		chk.add(o, s.c.runOp(o))
	}
	s.setup = time.Since(d.start)
	before, err := scrape(s.c)
	if err != nil {
		return fail(err)
	}
	for i := 0; i < w.block; i++ {
		o, _ := w.streamOp(i)
		t := time.Now()
		r := s.c.runOp(o)
		s.blockLat = append(s.blockLat, ms(time.Since(t)))
		chk.add(o, r)
	}
	after, err := scrape(s.c)
	if err != nil {
		return fail(err)
	}
	s.counters = counterSet(after)
	s.delta = counterSet(after)
	for k, v := range counterSet(before) {
		s.delta[k] -= v
	}
	return s, nil
}

// close drains and stops the daemon; a daemon that does not exit 0
// after SIGTERM is reported.
func (s *session) close() error {
	if s.c != nil {
		s.c.Close()
	}
	if err := s.d.stop(); err != nil {
		return fmt.Errorf("daemon shutdown: %w", err)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// counterSet extracts the /v1/metrics counters that depend only on the
// request stream. Request totals are left out: they include the readiness
// polls, whose number depends on boot timing.
func counterSet(m map[string]any) map[string]float64 {
	out := make(map[string]float64)
	get := func(section, key string) float64 {
		if s, ok := m[section].(map[string]any); ok {
			if v, ok := s[key].(float64); ok {
				return v
			}
		}
		return 0
	}
	for _, k := range [][2]string{
		{"engine_cache", "hits"}, {"engine_cache", "misses"}, {"engine_cache", "compiles"}, {"engine_cache", "evicted"},
		{"study_cache", "hits"}, {"study_cache", "fits"},
		{"uncertainty_cache", "hits"}, {"uncertainty_cache", "runs"},
		{"search_cache", "hits"}, {"search_cache", "runs"},
		{"sweep_response_cache", "hits"}, {"sweep_response_cache", "misses"},
		{"jobs", "submitted"}, {"jobs", "completed"}, {"jobs", "failed"}, {"jobs", "snapshots"},
		{"overload", "shed_429"}, {"overload", "shed_503"}, {"overload", "degraded_served"},
		{"resources", "mem_sheds"},
	} {
		out[k[0]+"."+k[1]] = get(k[0], k[1])
	}
	if engines, ok := m["engines"].(map[string]any); ok {
		for _, e := range engines {
			if e, ok := e.(map[string]any); ok {
				for _, k := range []string{"schedule_walks", "schedule_hits", "cached_points"} {
					if v, ok := e[k].(float64); ok {
						out["engines."+k] += v
					}
				}
			}
		}
	}
	out["engines.schedule_lookups"] = out["engines.schedule_walks"] + out["engines.schedule_hits"]
	return out
}

// workerRaced names counters whose value depends on how the daemon's
// worker pools interleave, so they move from boot to boot on the same
// stream while every answer stays identical:
//   - two sweep workers may both walk a schedule class before either
//     stores it, so the walk/hit split moves by a few per cent while their
//     sum, schedule_lookups, stays exact;
//   - a job's checkpoint.Tracker snapshots when the contiguous completed
//     prefix has advanced a cadence, with one save in flight at a time, so
//     the snapshot count follows the order the workers finish in.
var workerRaced = map[string]bool{
	"engines.schedule_walks": true, "engines.schedule_hits": true, "jobs.snapshots": true,
}

// diffCounters names the counters other than the worker-raced ones that
// differ between a and b.
func diffCounters(a, b map[string]float64) []string {
	var out []string
	for k, v := range a {
		if b[k] != v && !workerRaced[k] {
			out = append(out, fmt.Sprintf("%s %v vs %v", k, v, b[k]))
		}
	}
	sort.Strings(out)
	return out
}

// runE2E is an end-to-end run: boots daemons, measures set-up, drives the
// timed closed loop on the last boot, then checks every reply.
func runE2E(cfg config, w *workload, dir string) (*result, error) {
	chk := newChecker()
	loop := newChecker()
	var setups []float64
	var counters []map[string]float64
	var loopSt *loopStats
	for n := 0; n < boots; n++ {
		s, err := boot(cfg, w, dir, n, chk)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		counters = append(counters, s.counters)
		if n == boots-1 {
			loopSt, err = timedLoop(cfg, w, s, loop)
		}
		if cerr := s.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
	}
	res := &result{Correct: true}
	for n := 1; n < boots; n++ {
		if d := diffCounters(counters[0], counters[n]); len(d) > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: /v1/metrics counters differ between boots 0 and %d: %v\n", n, d)
			res.Correct = false
		}
	}

	store, err := checkpoint.Open(filepath.Join(dir, "reference-jobs"))
	if err != nil {
		return nil, err
	}
	ref := newLayers(nil, store)
	loopFailed := loop.verify(ref)
	res.Failed = chk.verify(ref) + loopFailed
	res.Attempted = chk.total + loop.total
	if res.Failed > 0 {
		res.Correct = false
	}
	sorted := append([]float64(nil), loopSt.lat...)
	sort.Float64s(sorted)
	ops := float64(loopSt.ops)
	res.Metrics = map[string]metric{
		"setup_s":        {median(setups), "s"},
		"throughput_ops": {median(loopSt.rates), "1/s"},
		"latency_p50_ms": {quantile(sorted, 0.50), "ms"},
		"latency_p90_ms": {quantile(sorted, 0.90), "ms"},
		"latency_p99_ms": {quantile(sorted, 0.99), "ms"},
		"success_ratio":  {1 - float64(loopFailed)/float64(loop.total), "ratio"},
		"cpu_ms_per_op":  {ms(loopSt.cpu) / ops, "ms"},
		"rss_mb":         {median(loopSt.rss), "MB"},
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d ops in %d clean windows, window rates %.4v, setups %.3v s\n",
		w.name, cfg.seed, loopSt.ops, len(loopSt.rates), loopSt.rates, setups)
	return res, nil
}

// loopStats is what the timed loop measured, over its clean windows.
type loopStats struct {
	lat   []float64     // ms per op
	rates []float64     // ops/s per window
	cpu   time.Duration // daemon CPU time
	ops   int           // ops completed
	rss   []float64     // daemon VmRSS MB at fixed op counts
}

// stealLimit is the share of the host's CPU time the hypervisor may steal
// in a window before the window is left out.
const stealLimit = 0.10

// timedLoop drives the closed loop on a primed session: one op at a time
// on one connection, each waiting for the previous reply. It closes a
// window every second and keeps only clean windows, those in which the
// hypervisor stole under stealLimit of the guest's CPU time (/proc/stat):
// on a shared VM host, preempted vCPUs slowed every op 2-5x for minutes
// at a time, whatever the program did. The loop runs until it holds
// cfg.seconds clean windows or has run twice that long; with fewer than
// three clean windows it keeps every window. Throughput is the median
// clean window; latency percentiles and CPU per op (daemon user+sys from
// /proc, summed over clean windows) cover the clean windows' ops. The
// daemon's resident size is read after fixed numbers of ops (w.rssOps/4,
// /2, 3/4, 1), so that a workload whose memo tables grow with every op is
// compared at equal work however fast the host ran.
func timedLoop(cfg config, w *workload, s *session, chk *checker) (*loopStats, error) {
	type window struct {
		lat   []float64
		class []string
		rate  float64
		cpu   time.Duration
		steal float64
	}
	var all []window
	var cur window
	cpu0, err := s.d.cpuTime()
	if err != nil {
		return nil, err
	}
	steal0, total0, err := hostSteal()
	if err != nil {
		return nil, err
	}
	st := &loopStats{}
	start := time.Now()
	winStart := start
	limit := start.Add(2 * time.Duration(cfg.seconds) * time.Second)
	clean := 0
	for i := w.block; clean < cfg.seconds && time.Now().Before(limit); i++ {
		o, ok := w.streamOp(i)
		if !ok {
			return nil, fmt.Errorf("%s stream exhausted after %d ops", w.name, i)
		}
		t := time.Now()
		r := s.c.runOp(o)
		now := time.Now()
		cur.lat = append(cur.lat, ms(now.Sub(t)))
		cur.class = append(cur.class, o.class)
		chk.add(o, r)
		if n := i - w.block + 1; n%(w.rssOps/4) == 0 && n <= w.rssOps {
			rss, err := s.d.rss()
			if err != nil {
				return nil, err
			}
			st.rss = append(st.rss, rss)
		}
		if d := now.Sub(winStart); d >= time.Second {
			cpu1, err := s.d.cpuTime()
			if err != nil {
				return nil, err
			}
			steal1, total1, err := hostSteal()
			if err != nil {
				return nil, err
			}
			cur.rate = float64(len(cur.lat)) / d.Seconds()
			cur.cpu = cpu1 - cpu0
			cur.steal = ratio(steal1-steal0, total1-total0)
			if cur.steal < stealLimit {
				clean++
			}
			all = append(all, cur)
			cur = window{}
			winStart, cpu0, steal0, total0 = now, cpu1, steal1, total1
		}
	}
	var steals []float64
	var classes []string
	for _, win := range all {
		steals = append(steals, win.steal)
		if clean < 3 || win.steal < stealLimit {
			st.lat = append(st.lat, win.lat...)
			classes = append(classes, win.class...)
			st.rates = append(st.rates, win.rate)
			st.cpu += win.cpu
			st.ops += len(win.lat)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d of %d windows clean; steal per window %.3v\n", clean, len(all), steals)
	classLatencies(classes, st.lat)
	if st.ops == 0 {
		return nil, fmt.Errorf("timed loop closed no one-second window")
	}
	if len(st.rss) == 0 {
		return nil, fmt.Errorf("timed loop ended before %d ops, the first resident-size reading", w.rssOps/4)
	}
	return st, nil
}

// hostSteal returns the steal and total ticks of the first /proc/stat
// line: time the hypervisor ran something else while a vCPU was runnable.
func hostSteal() (steal, total float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for k, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0, err
		}
		total += x
		if k == 7 {
			steal = x
		}
	}
	return steal, total, nil
}

// classLatencies prints each latency class's share and quartiles to
// standard error, to show which mode each reported percentile falls in.
func classLatencies(classes []string, lat []float64) {
	by := make(map[string][]float64)
	for i, l := range lat {
		by[classes[i]] = append(by[classes[i]], l)
	}
	for class, ls := range by {
		sort.Float64s(ls)
		fmt.Fprintf(os.Stderr, "perfbench:   %-16s %5.1f%%  p25 %.3f  p50 %.3f  p75 %.3f  max %.3f ms\n", class,
			100*float64(len(ls))/float64(len(lat)), quantile(ls, 0.25), quantile(ls, 0.5), quantile(ls, 0.75), ls[len(ls)-1])
	}
}
