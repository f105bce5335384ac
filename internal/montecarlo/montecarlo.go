// Package montecarlo propagates input uncertainty through the whole
// accelerator-wall pipeline and reduces it to confidence bands.
//
// The paper's headline numbers — CMOS potential per node (Figure 3a/3d),
// CSR decompositions (Section IV), and the 5 nm wall ceilings (Figures 15
// and 16) — are point estimates fit from noisy datasheet corpora; the
// paper itself hedges only by reporting linear vs. logarithmic projections
// as a range. This package quantifies the other error sources: each
// replicate (1) case-resamples the chipdb corpus and refits the Figure
// 3b/3c transistor-budget regressions, (2) jitters every CMOS scaling
// factor within a configurable lognormal tolerance, and (3) re-runs CMOS
// potential → CSR decomposition → linear+log wall projection for every
// case-study domain. The replicates are reduced into quantile bands
// (P5/P25/P50/P75/P95 plus the requested confidence interval) for each
// headline quantity, together with the probability that a domain's
// projected wall falls below a user-given gain target.
//
// Replicates run on a chunked worker pool. Every replicate derives its own
// PRNG substream from the root seed with a SplitMix64 mix, writes into its
// own slot of the output slice, and the reducer sorts samples before
// banding — so results are bit-identical regardless of worker count and of
// the order replicates happen to finish in. What every replicate repeats
// is compiled once and shared read-only: the corpus's per-chip Figure
// 3b/3c logarithms and eras (a resample is an index draw), the base point
// projections, and the GPU study's relation plan (package casestudy).
// That compiled state is an Engine: New builds one per corpus seed, and
// RunCheckpointed (or RunContext) and RunSlice/MergeSlices run on it.
package montecarlo

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"accelwall/internal/budget"
	"accelwall/internal/casestudy"
	"accelwall/internal/checkpoint"
	"accelwall/internal/chipdb"
	"accelwall/internal/cmos"
	"accelwall/internal/faultinject"
	"accelwall/internal/gains"
	"accelwall/internal/mix"
	"accelwall/internal/projection"
	"accelwall/internal/resources"
	"accelwall/internal/stats"
)

// Defaults for zero Config fields.
const (
	DefaultReplicates = 200
	DefaultConfidence = 0.90
	DefaultGainTarget = 10
	DefaultCMOSJitter = 0.02
)

// MaxReplicates bounds a single run; the engine's memory is linear in it.
const MaxReplicates = 100000

// Config tunes one Monte Carlo run. The zero value of every field selects
// its default, so Config{} is a valid 200-replicate run at seed 1.
type Config struct {
	// Replicates is the number of bootstrap replicates (default 200).
	Replicates int
	// Seed is the root seed every per-replicate substream derives from
	// (default 1; 0 selects 1 so the zero Config is deterministic).
	Seed int64
	// CorpusSeed selects the synthetic datasheet corpus resampled by every
	// replicate (default 1). Engines built over an explicit corpus via
	// NewEngine ignore it.
	CorpusSeed int64
	// Workers sizes the replicate worker pool (0 = GOMAXPROCS). It never
	// changes results, only wall-clock time.
	Workers int
	// Confidence is the central interval level of the Lo/Hi band bounds
	// (default 0.90, i.e. P5–P95).
	Confidence float64
	// GainTarget is the remaining-gain factor the exceedance probabilities
	// are measured against (default 10): PBelowTarget is the fraction of
	// replicates whose projected wall headroom falls below it.
	GainTarget float64
	// CMOSJitter is the lognormal sigma applied multiplicatively to every
	// scaling-table factor (Freq, VDD, Cap, Leak) of every node, per
	// replicate (default 0.02, roughly a ±2% one-sigma datasheet
	// tolerance). Transistor density is deliberately not jittered: density
	// uncertainty enters through corpus resampling, which refits the
	// density-driven Figure 3b area model.
	CMOSJitter float64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Replicates == 0 {
		c.Replicates = DefaultReplicates
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.CorpusSeed == 0 {
		c.CorpusSeed = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Confidence == 0 {
		c.Confidence = DefaultConfidence
	}
	if c.GainTarget == 0 {
		c.GainTarget = DefaultGainTarget
	}
	if c.CMOSJitter == 0 {
		c.CMOSJitter = DefaultCMOSJitter
	}
	return c
}

// validate rejects configurations with no statistical meaning.
func (c Config) validate() error {
	if c.Replicates < 10 || c.Replicates > MaxReplicates {
		return fmt.Errorf("montecarlo: replicates must be in [10, %d], got %d", MaxReplicates, c.Replicates)
	}
	if c.Confidence <= 0 || c.Confidence >= 1 {
		return fmt.Errorf("montecarlo: confidence %g outside (0, 1)", c.Confidence)
	}
	if c.GainTarget <= 0 {
		return fmt.Errorf("montecarlo: gain target must be positive, got %g", c.GainTarget)
	}
	if c.CMOSJitter < 0 || c.CMOSJitter >= 0.5 {
		return fmt.Errorf("montecarlo: CMOS jitter sigma %g outside [0, 0.5)", c.CMOSJitter)
	}
	return nil
}

// Validate reports whether the config (after defaulting) is runnable,
// without running it. Front-ends use it to turn bad requests into 4xx
// errors before committing a worker pool.
func (c Config) Validate() error {
	return c.withDefaults().validate()
}

// Normalized returns the config with defaults applied and Workers zeroed.
// Two configs with equal Normalized values produce bit-identical results
// (the worker count never changes output), which makes it the natural
// memoization key for serving layers.
func (c Config) Normalized() Config {
	c = c.withDefaults()
	c.Workers = 0
	return c
}

// Band holds the quantile summary of one quantity across replicates.
type Band struct {
	// Fixed quantiles of the replicate distribution.
	P5, P25, P50, P75, P95 float64
	// Lo and Hi bound the central Confidence-level interval (e.g. the
	// 5th and 95th percentiles at the default 0.90).
	Lo, Hi float64
}

// NodeBand is the banded CMOS potential of one Figure 3a node: the
// relative throughput and efficiency of a reference-die chip at that node,
// under the replicate-refitted budget and jittered scaling table.
type NodeBand struct {
	NodeNM     float64
	Throughput Band
	Efficiency Band
}

// DomainBands is the banded accelerator wall of one (domain, target) pair.
type DomainBands struct {
	Domain casestudy.Domain
	Target gains.Target

	// Point estimates from the unperturbed pipeline (base corpus fit,
	// default scaling table), for reference against the bands.
	PointRemainLog    float64
	PointRemainLinear float64

	// PhysLimit bands the relative physical potential of the Table V wall
	// chip at 5 nm; RemainLog and RemainLinear band the remaining headroom
	// under each projection model (Equations 5 and 6); FinalCSR bands the
	// chip-specialization return of the domain's newest observation.
	PhysLimit    Band
	RemainLog    Band
	RemainLinear Band
	FinalCSR     Band

	// PBelowTargetLog and PBelowTargetLinear are the fractions of
	// replicates whose projected headroom falls below Config.GainTarget —
	// the probability the wall is closer than the target under each model.
	PBelowTargetLog    float64
	PBelowTargetLinear float64
}

// Result is the reduced output of one Monte Carlo run.
type Result struct {
	// Config is the fully defaulted configuration that produced the run.
	Config Config
	// Replicates is the number of usable replicates; Failed counts
	// replicates dropped because a degenerate resample broke a fit.
	Replicates int
	Failed     int
	// Resumed is how many replicates were restored from a checkpoint
	// snapshot instead of recomputed (0 for cold runs). It never affects
	// the bands: restored replicates are bit-identical to computed ones.
	Resumed int

	// AreaFitA and AreaFitB band the refitted Figure 3b area model
	// TC(D) = A·D^B across corpus resamples.
	AreaFitA Band
	AreaFitB Band

	// Nodes bands the CMOS potential at each Figure 3a node.
	Nodes []NodeBand

	// Domains holds the banded wall of every (target, domain) pair, both
	// targets over the Section IV domain order.
	Domains []DomainBands
}

// nodePotential is the reference chip the per-node CMOS potential bands
// are computed over: a large die under a datacenter-class envelope, so
// both the area and the power models of the refitted budget matter.
const (
	nodePotentialDie = 250.0
	nodePotentialTDP = 250.0
)

// Engine runs replicates over one compiled corpus. The engine is
// immutable after construction and safe for concurrent runs.
type Engine struct {
	corpus *budget.Compiled
	n      int           // corpus size: draws per resample
	cells  []DomainBands // base point estimates per cell, in reduce order
}

// NewEngine compiles the corpus, fits the base study over it and projects
// the base point estimates. The corpus is not retained.
func NewEngine(corpus *chipdb.Corpus) (*Engine, error) {
	compiled, err := budget.Compile(corpus)
	if err != nil {
		return nil, fmt.Errorf("montecarlo: base fit: %w", err)
	}
	e := &Engine{corpus: compiled, n: corpus.Len()}
	base, err := compiled.Fit(nil, nil)
	if err != nil {
		return nil, fmt.Errorf("montecarlo: base fit: %w", err)
	}
	for _, target := range targets() {
		for _, d := range casestudy.Domains() {
			p, err := projection.ProjectEnv(projection.Env{Budget: base}, d, target)
			if err != nil {
				return nil, fmt.Errorf("montecarlo: base projection for %v: %w", d, err)
			}
			e.cells = append(e.cells, DomainBands{
				Domain:            d,
				Target:            target,
				PointRemainLog:    p.RemainLog,
				PointRemainLinear: p.RemainLinear,
			})
		}
	}
	return e, nil
}

// New builds an engine over the synthetic datasheet corpus of the given
// seed (0 selects 1).
func New(corpusSeed int64) (*Engine, error) {
	if corpusSeed == 0 {
		corpusSeed = 1
	}
	return NewEngine(chipdb.Synthetic(corpusSeed))
}

// substream derives the PRNG seed of replicate i from the root seed with a
// SplitMix64 mix, so every replicate owns an independent deterministic
// stream no matter which worker executes it.
func substream(root int64, i int) int64 { return int64(mix.Substream(uint64(root), uint64(i))) }

// domainOut holds one (target, domain) cell of a replicate.
type domainOut struct {
	physLimit, remainLog, remainLinear, finalCSR float64
}

// replicateOut is the full output of one replicate. ok is false for
// replicates whose degenerate resample broke a fit.
type replicateOut struct {
	ok              bool
	fitA, fitB      float64
	nodeTP, nodeEff []float64
	domains         []domainOut
}

// targets is the fixed evaluation order of the per-domain bands.
func targets() []gains.Target {
	return []gains.Target{gains.TargetThroughput, gains.TargetEfficiency}
}

// scratch is one worker's reusable replicate state: the PRNG, re-seeded
// per replicate, the resample's index draw and the fit's gather buffers.
type scratch struct {
	rng    *rand.Rand
	sample []int
	fit    budget.FitScratch
}

// replicate evaluates replicate idx. The rng consumption order is fixed —
// corpus resample first, then table jitter — and must never depend on
// worker identity. The resample is a case (bootstrap) resample drawn as
// Len() chip indices with replacement.
func (e *Engine) replicate(cfg Config, idx int, s *scratch) (replicateOut, error) {
	// Seed resets the source to exactly the state NewSource gives the
	// same seed, so reusing one *rand.Rand draws the same stream.
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(0))
		s.sample = make([]int, e.n)
	}
	rng := s.rng
	rng.Seed(substream(cfg.Seed, idx))
	for i := range s.sample {
		s.sample[i] = rng.Intn(e.n)
	}
	b, err := e.corpus.Fit(s.sample, &s.fit)
	if err != nil {
		return replicateOut{}, err
	}
	sigma := cfg.CMOSJitter
	tbl, err := cmos.DefaultTable().Perturb(func(n cmos.Node) cmos.Node {
		n.Freq *= math.Exp(rng.NormFloat64() * sigma)
		n.VDD *= math.Exp(rng.NormFloat64() * sigma)
		n.Cap *= math.Exp(rng.NormFloat64() * sigma)
		n.Leak *= math.Exp(rng.NormFloat64() * sigma)
		return n
	})
	if err != nil {
		return replicateOut{}, err
	}

	out := replicateOut{fitA: b.TC.A, fitB: b.TC.B}

	gm := gains.NewModel(b)
	gm.Nodes = tbl
	nodes := cmos.Fig3aNodes()
	out.nodeTP = make([]float64, len(nodes))
	out.nodeEff = make([]float64, len(nodes))
	for i, nm := range nodes {
		c := gains.Config{NodeNM: nm, DieMM2: nodePotentialDie, TDPW: nodePotentialTDP, FreqGHz: 1}
		if out.nodeTP[i], err = gm.RelativeThroughput(c); err != nil {
			return replicateOut{}, err
		}
		if out.nodeEff[i], err = gm.RelativeEfficiency(c); err != nil {
			return replicateOut{}, err
		}
	}

	env := projection.Env{Budget: b, Nodes: tbl}
	out.domains = make([]domainOut, 0, len(targets())*len(casestudy.Domains()))
	for _, target := range targets() {
		for _, d := range casestudy.Domains() {
			p, err := projection.ProjectEnv(env, d, target)
			if err != nil {
				return replicateOut{}, err
			}
			do := domainOut{
				physLimit:    p.PhysLimit,
				remainLog:    p.RemainLog,
				remainLinear: p.RemainLinear,
			}
			// CSR of the newest observation: the collected points put
			// physical potential on X and total gain on Y, so Y/X is the
			// specialization return relative to the domain baseline.
			last := p.Points[len(p.Points)-1]
			if last.X > 0 {
				do.finalCSR = last.Y / last.X
			}
			out.domains = append(out.domains, do)
		}
	}
	out.ok = true
	return out, nil
}

// SiteReplicate is the fault-injection seam hit at the start of every
// replicate on the pool. Chaos tests arm it to prove the pool survives
// panicking, erroring, and stalling replicates.
var SiteReplicate = faultinject.Register("montecarlo.replicate")

// replicateSafe evaluates one replicate, converting a panic anywhere in
// the refit/projection pipeline (including an injected one) into a
// failed-replicate error so the worker goroutine survives it.
func (e *Engine) replicateSafe(cfg Config, idx int, s *scratch) (out replicateOut, err error) {
	defer func() {
		if v := recover(); v != nil {
			out, err = replicateOut{}, fmt.Errorf("montecarlo: replicate %d panic: %v", idx, v)
		}
	}()
	if err := faultinject.Hit(SiteReplicate); err != nil {
		return replicateOut{}, fmt.Errorf("montecarlo: %w", err)
	}
	return e.replicate(cfg, idx, s)
}

// runReplicatesInto runs replicates [start, cfg.Replicates) into outs on
// resources.RunChunks, reporting each completed slot to the (possibly
// nil) checkpoint tracker. Slots below start must already hold restored
// outputs; because every replicate owns an index-derived substream, the
// work is identical no matter where the pool starts or which worker
// runs it.
//
// A failed replicate leaves its slot ok=false; which replicates fail
// depends only on their substreams, so the failure set is
// worker-count-invariant too. Failed slots count as complete for
// checkpointing: the failure is a pure function of the substream, so a
// snapshot restores it as faithfully as recomputing.
func (e *Engine) runReplicatesInto(ctx context.Context, cfg Config, outs []replicateOut, start int, tr *checkpoint.Tracker) {
	resources.RunChunks(ctx, cfg.Replicates, start, cfg.Workers,
		func(i int, s *scratch) replicateOut {
			// A failed replicate comes back zero (ok=false); the bands
			// skip it, so its error has nothing left to report.
			out, _ := e.replicateSafe(cfg, i, s)
			return out
		},
		func(i int, out replicateOut) {
			outs[i] = out
			tr.Complete(i)
		})
}

// RunContext executes cfg.Replicates replicates and reduces them to
// bands: RunCheckpointed without snapshots. Workers re-check ctx between
// replicates, so cancellation quiesces the pool within one replicate per
// worker and the call returns ctx.Err() with no partial Result.
func (e *Engine) RunContext(ctx context.Context, cfg Config) (*Result, error) {
	return e.RunCheckpointed(ctx, cfg, nil)
}

// band reduces one sample vector to its quantile Band.
func band(values []float64, conf float64) (Band, error) {
	lo := (1 - conf) / 2 * 100
	qs, err := stats.Quantiles(values, 5, 25, 50, 75, 95, lo, 100-lo)
	if err != nil {
		return Band{}, err
	}
	return Band{P5: qs[0], P25: qs[1], P50: qs[2], P75: qs[3], P95: qs[4], Lo: qs[5], Hi: qs[6]}, nil
}

// reduce collapses the replicate outputs into the final Result. Samples
// are gathered in replicate order but banded through a sorting quantile
// estimator, so the reduction is invariant to any reordering of outs.
func (e *Engine) reduce(cfg Config, outs []replicateOut) (*Result, error) {
	usable := 0
	for _, o := range outs {
		if o.ok {
			usable++
		}
	}
	if usable < cfg.Replicates/2 {
		return nil, fmt.Errorf("montecarlo: too many degenerate replicates (%d of %d usable)", usable, cfg.Replicates)
	}
	collect := func(get func(replicateOut) float64) []float64 {
		vals := make([]float64, 0, usable)
		for _, o := range outs {
			if o.ok {
				vals = append(vals, get(o))
			}
		}
		return vals
	}

	res := &Result{Config: cfg, Replicates: usable, Failed: cfg.Replicates - usable}
	var err error
	if res.AreaFitA, err = band(collect(func(o replicateOut) float64 { return o.fitA }), cfg.Confidence); err != nil {
		return nil, err
	}
	if res.AreaFitB, err = band(collect(func(o replicateOut) float64 { return o.fitB }), cfg.Confidence); err != nil {
		return nil, err
	}

	for i, nm := range cmos.Fig3aNodes() {
		i := i
		nb := NodeBand{NodeNM: nm}
		if nb.Throughput, err = band(collect(func(o replicateOut) float64 { return o.nodeTP[i] }), cfg.Confidence); err != nil {
			return nil, err
		}
		if nb.Efficiency, err = band(collect(func(o replicateOut) float64 { return o.nodeEff[i] }), cfg.Confidence); err != nil {
			return nil, err
		}
		res.Nodes = append(res.Nodes, nb)
	}

	for k, db := range e.cells {
		if db.PhysLimit, err = band(collect(func(o replicateOut) float64 { return o.domains[k].physLimit }), cfg.Confidence); err != nil {
			return nil, err
		}
		if db.RemainLog, err = band(collect(func(o replicateOut) float64 { return o.domains[k].remainLog }), cfg.Confidence); err != nil {
			return nil, err
		}
		if db.RemainLinear, err = band(collect(func(o replicateOut) float64 { return o.domains[k].remainLinear }), cfg.Confidence); err != nil {
			return nil, err
		}
		if db.FinalCSR, err = band(collect(func(o replicateOut) float64 { return o.domains[k].finalCSR }), cfg.Confidence); err != nil {
			return nil, err
		}
		var belowLog, belowLin int
		for _, o := range outs {
			if !o.ok {
				continue
			}
			if o.domains[k].remainLog < cfg.GainTarget {
				belowLog++
			}
			if o.domains[k].remainLinear < cfg.GainTarget {
				belowLin++
			}
		}
		db.PBelowTargetLog = float64(belowLog) / float64(usable)
		db.PBelowTargetLinear = float64(belowLin) / float64(usable)
		res.Domains = append(res.Domains, db)
	}
	return res, nil
}
