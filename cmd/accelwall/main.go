// Command accelwall reproduces the tables and figures of "The Accelerator
// Wall: Limits of Chip Specialization" (HPCA 2019).
//
// Usage:
//
//	accelwall list                 list every reproducible experiment
//	accelwall all                  run every experiment in paper order
//	accelwall <id> [<id> ...]      run specific experiments (e.g. fig1 fig15)
//
// Flags:
//
//	-seed N      synthetic datasheet corpus seed (default 1)
//	-published   use the paper's published regression constants instead of
//	             fitting the corpus (corpus-based experiments unavailable)
//	-full        use the full Table III sweep grid for fig13/fig14 (slow)
//	-workers N   size of the sweep worker pool (0 = GOMAXPROCS); the
//	             design-space experiments compile each workload graph once
//	             and fan its unique design points out over the pool
//	-json        emit experiments as machine-readable JSON (the same wire
//	             format accelwalld serves); incompatible with -plot and the
//	             dot/corpus/report commands
//
// Uncertainty mode (-uncertainty) replaces the experiment arguments with a
// Monte Carlo run that bands every headline quantity:
//
//	-uncertainty     run the Monte Carlo uncertainty engine instead of
//	                 experiments; -seed doubles as both the replicate root
//	                 seed and the corpus seed
//	-replicates N    number of bootstrap replicates (default 200)
//	-conf C          band confidence level in (0,1) (default 0.90)
//	-gain-target G   headroom factor for the wall-probability report
//	                 (default 10)
//
// Search mode (-search) runs the guided design-space explorer over one
// workload's Table III knob space and reports the Pareto frontier:
//
//	-search          run a multi-objective design-space search instead of
//	                 experiments; deterministic in -seed at any -workers
//	-workload K      kernel to search (Table IV abbreviation like S3D, a
//	                 variant like GMM/strassen, or a domain kernel)
//	-size N          kernel problem size (0 = the kernel's default)
//	-strategy S      nsga2 (default) or halving
//	-objectives L    comma-separated: delay, energy, edp, efficiency
//	                 (default delay,energy)
//	-population N    population / rung survivor floor (default 48)
//	-generations N   evolution generations or refinement rungs (default 24)
//	-max-area A      feasibility constraint: area <= A
//	-max-power W     feasibility constraint: power <= W watts
//
// Durability (-checkpoint) makes long runs survive interruption: progress
// snapshots land in the given directory (created 0700, files 0600), a
// Ctrl-C leaves the completed prefix on disk, and rerunning the same
// command with -resume continues from it — bit-identical to a run that was
// never interrupted:
//
//	-checkpoint DIR  write durable progress snapshots into DIR (applies to
//	                 -uncertainty, -search, and the fig13 design-space sweep)
//	-resume          restore the snapshot a previous run left in DIR
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"accelwall/internal/checkpoint"
	"accelwall/internal/chipdb"
	"accelwall/internal/core"
	"accelwall/internal/dfg"
	"accelwall/internal/montecarlo"
	"accelwall/internal/search"
	"accelwall/internal/sweep"
	"accelwall/internal/workloads"
)

func main() {
	// Ctrl-C / SIGTERM cancels the context; the worker pools observe it
	// within one chunk of simulations, so a long -full sweep dies in
	// milliseconds instead of minutes. A second signal kills the process
	// outright (NotifyContext restores default handling after the first).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		if errors.Is(err, context.Canceled) {
			// A checkpointed run decorates the cancellation with where its
			// parting snapshot went; a plain run's progress is simply gone.
			if msg := err.Error(); msg != context.Canceled.Error() {
				fmt.Fprintln(os.Stderr, "accelwall:", msg)
			} else {
				fmt.Fprintln(os.Stderr, "accelwall: interrupted — partial results discarded")
			}
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "accelwall:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("accelwall", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "synthetic datasheet corpus seed")
	published := fs.Bool("published", false, "use published regression constants (skip corpus fitting)")
	full := fs.Bool("full", false, "use the full Table III sweep grid (slow)")
	workers := fs.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	plot := fs.Bool("plot", false, "append ASCII figures where available (fig1, fig13, fig15, fig16)")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON (the accelwalld wire format)")
	uncertainty := fs.Bool("uncertainty", false, "run the Monte Carlo uncertainty engine (confidence bands on the accelerator wall)")
	replicates := fs.Int("replicates", montecarlo.DefaultReplicates, "Monte Carlo replicate count (with -uncertainty)")
	conf := fs.Float64("conf", montecarlo.DefaultConfidence, "Monte Carlo band confidence level in (0,1) (with -uncertainty)")
	gainTarget := fs.Float64("gain-target", montecarlo.DefaultGainTarget, "headroom factor for the wall-probability report (with -uncertainty)")
	searchMode := fs.Bool("search", false, "run the guided design-space search (Pareto frontier over the Table III knobs)")
	workload := fs.String("workload", "", "kernel to search (with -search)")
	size := fs.Int("size", 0, "kernel problem size, 0 = default (with -search)")
	strategy := fs.String("strategy", "", "search strategy: nsga2 or halving (with -search)")
	objectives := fs.String("objectives", "", "comma-separated search objectives: delay, energy, edp, efficiency (with -search)")
	population := fs.Int("population", 0, "search population size, 0 = default (with -search)")
	generations := fs.Int("generations", 0, "search generations / refinement rungs, 0 = default (with -search)")
	maxArea := fs.Float64("max-area", 0, "search feasibility constraint: area <= A, 0 = unconstrained (with -search)")
	maxPower := fs.Float64("max-power", 0, "search feasibility constraint: power <= W watts, 0 = unconstrained (with -search)")
	ckptDir := fs.String("checkpoint", "", "directory for durable progress snapshots; an interrupted run continues with -resume")
	resume := fs.Bool("resume", false, "resume from the snapshot a previous run left in the -checkpoint directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()

	// Fail-fast validation: every flag and argument problem is reported
	// here, before any corpus fit, graph compile, or experiment output.
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", *workers)
	}
	if *resume && *ckptDir == "" {
		return fmt.Errorf("-resume requires -checkpoint <dir>")
	}
	var store *checkpoint.Store
	if *ckptDir != "" {
		var err error
		if store, err = checkpoint.Open(*ckptDir); err != nil {
			return err
		}
	}
	if *searchMode && *uncertainty {
		return fmt.Errorf("-search and -uncertainty are mutually exclusive")
	}
	if *searchMode {
		if *plot || *published || *full {
			return fmt.Errorf("-search is incompatible with -plot, -published, and -full")
		}
		if len(rest) > 0 {
			return fmt.Errorf("-search takes no experiment arguments (got %s)", strings.Join(rest, " "))
		}
		if *workload == "" {
			return fmt.Errorf("-search requires -workload <kernel> (run `accelwall list` or see /v1/workloads)")
		}
		return runSearch(ctx, searchFlags{
			workload:    *workload,
			size:        *size,
			strategy:    *strategy,
			objectives:  *objectives,
			population:  *population,
			generations: *generations,
			seed:        *seed,
			maxArea:     *maxArea,
			maxPowerW:   *maxPower,
			workers:     *workers,
			jsonOut:     *jsonOut,
			resume:      *resume,
		}, store)
	}
	if *uncertainty {
		if *plot || *published || *full {
			return fmt.Errorf("-uncertainty is incompatible with -plot, -published, and -full")
		}
		if len(rest) > 0 {
			return fmt.Errorf("-uncertainty takes no experiment arguments (got %s)", strings.Join(rest, " "))
		}
		return runUncertainty(ctx, *seed, *replicates, *conf, *gainTarget, *workers, *jsonOut, store, *resume)
	}
	if len(rest) == 0 {
		usage()
		return fmt.Errorf("no experiment given")
	}
	if *jsonOut && *plot {
		return fmt.Errorf("-json and -plot are mutually exclusive")
	}
	switch rest[0] {
	case "dot", "corpus", "report":
		if *jsonOut {
			return fmt.Errorf("-json does not apply to %q (it emits text/CSV/Markdown)", rest[0])
		}
	}
	var experiments []core.Experiment
	switch rest[0] {
	case "dot", "corpus", "report", "list":
		// Commands, handled below.
	case "all":
		experiments = core.Experiments()
	case "ext":
		experiments = core.Extensions()
	default:
		// One validation pass over every requested ID so a typo at the end
		// of the list surfaces before the first experiment runs.
		var unknown []string
		for _, id := range rest {
			e, err := core.ExperimentByID(id)
			if err != nil {
				unknown = append(unknown, id)
				continue
			}
			experiments = append(experiments, e)
		}
		if len(unknown) > 0 {
			return fmt.Errorf("unknown experiment id(s): %s (run `accelwall list`)", strings.Join(unknown, ", "))
		}
	}

	switch rest[0] {
	case "dot":
		if len(rest) != 2 {
			return fmt.Errorf("usage: accelwall dot <KERNEL> (a Table IV abbreviation like S3D, a variant like GMM/strassen, or a domain kernel like SHA256d)")
		}
		return writeDOT(rest[1])
	case "corpus":
		return writeCorpus(*seed)
	case "report":
		path := "report.md"
		if len(rest) > 1 {
			path = rest[1]
		}
		return writeReport(ctx, path, *seed, *published, *full, *workers)
	case "list":
		if *jsonOut {
			return listJSON()
		}
		for _, e := range core.Experiments() {
			fmt.Printf("  %-13s %s\n", e.ID, e.Title)
		}
		for _, e := range core.Extensions() {
			fmt.Printf("  %-13s %s\n", e.ID, e.Title)
		}
		return nil
	}

	var study *core.Study
	if *published {
		study = core.NewPublished()
	} else {
		var err error
		if study, err = core.New(*seed); err != nil {
			return err
		}
	}
	if *full {
		study.Sweep = sweep.Default()
	}
	study.Workers = *workers
	study.Ctx = ctx
	if store != nil {
		study.Ckpt = store
		study.CkptResume = *resume
		study.CkptLogf = ckptLogf
	}

	if *jsonOut {
		out := make([]core.ExperimentJSON, 0, len(experiments))
		for _, e := range experiments {
			ej, err := study.ExperimentJSON(e.ID)
			if err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			out = append(out, ej)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]any{"experiments": out})
	}

	plots := core.Plots()
	for _, e := range experiments {
		fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
		out, err := e.Run(study)
		if err != nil {
			if errors.Is(err, context.Canceled) && store != nil {
				return fmt.Errorf("interrupted (%w) — progress snapshots saved in %s; rerun with -resume to continue", err, store.Dir())
			}
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Println(out)
		if *plot {
			if draw, ok := plots[e.ID]; ok {
				fig, err := draw(study)
				if err != nil {
					return fmt.Errorf("%s plot: %w", e.ID, err)
				}
				fmt.Println(fig)
			}
		}
	}
	return nil
}

// ckptLogf reports a durable run's checkpoint notes on stderr.
func ckptLogf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "accelwall: "+format+"\n", args...)
}

// uncertaintyLog names the snapshot log a checkpointed -uncertainty run
// writes.
const uncertaintyLog = "uncertainty"

// runUncertainty runs the Monte Carlo engine and renders the result. The
// single -seed flag feeds both the replicate root seed and the corpus
// seed, so one number pins the whole run; the JSON output is the exact
// payload POST /v1/uncertainty serves for the same configuration. With a
// checkpoint store the run is durable: snapshots of the completed
// replicate prefix land in the store, an interrupt leaves a parting
// snapshot, and -resume continues from it with bit-identical output.
func runUncertainty(ctx context.Context, seed int64, replicates int, conf, gainTarget float64, workers int, jsonOut bool, store *checkpoint.Store, resume bool) error {
	cfg := montecarlo.Config{
		Replicates: replicates,
		Seed:       seed,
		CorpusSeed: seed,
		Workers:    workers,
		Confidence: conf,
		GainTarget: gainTarget,
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	ck, closeLog, drop, err := store.Durable(uncertaintyLog, resume, ckptLogf)
	if err != nil {
		return err
	}
	defer closeLog()
	res, err := montecarlo.RunCheckpointed(ctx, cfg, ck)
	if err != nil {
		if errors.Is(err, context.Canceled) && store != nil {
			return fmt.Errorf("interrupted (%w) — progress snapshot saved in %s; rerun with -resume to continue", err, store.Dir())
		}
		return err
	}
	if res.Resumed > 0 {
		fmt.Fprintf(os.Stderr, "accelwall: resumed — skipped %d of %d replicates already on disk\n", res.Resumed, cfg.Replicates)
	}
	drop()
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(core.NewUncertaintyJSON(res))
	}
	fmt.Print(core.UncertaintyText(res))
	return nil
}

// searchLog names the snapshot log a checkpointed -search run writes.
const searchLog = "search"

// searchFlags carries the -search mode's flag values into runSearch.
type searchFlags struct {
	workload    string
	size        int
	strategy    string
	objectives  string
	population  int
	generations int
	seed        int64
	maxArea     float64
	maxPowerW   float64
	workers     int
	jsonOut     bool
	resume      bool
}

// runSearch compiles the workload, runs the guided design-space search,
// and renders the Pareto frontier. The JSON output is the exact payload
// POST /v1/search serves for the same configuration. With a checkpoint
// store the run is durable: every completed generation lands in the
// store, an interrupt leaves a parting snapshot, and -resume continues
// from it with bit-identical output.
func runSearch(ctx context.Context, f searchFlags, store *checkpoint.Store) error {
	strategy, err := search.ParseStrategy(f.strategy)
	if err != nil {
		return err
	}
	var objs []search.Objective
	if f.objectives != "" {
		for _, name := range strings.Split(f.objectives, ",") {
			o, err := search.ParseObjective(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			objs = append(objs, o)
		}
	}
	cfg := search.Config{
		Strategy:    strategy,
		Objectives:  objs,
		Population:  f.population,
		Generations: f.generations,
		Seed:        f.seed,
		Constraints: search.Constraints{MaxArea: f.maxArea, MaxPowerW: f.maxPowerW},
		Workers:     f.workers,
	}.Normalized()
	if err := cfg.Validate(); err != nil {
		return err
	}
	g, err := buildKernel(f.workload, f.size)
	if err != nil {
		return err
	}
	eng, err := sweep.NewEngine(g)
	if err != nil {
		return err
	}
	ck, closeLog, drop, err := store.Durable(searchLog, f.resume, ckptLogf)
	if err != nil {
		return err
	}
	defer closeLog()
	res, err := search.RunCheckpointed(ctx, eng, cfg, ck)
	if err != nil {
		if errors.Is(err, context.Canceled) && store != nil {
			return fmt.Errorf("interrupted (%w) — progress snapshot saved in %s; rerun with -resume to continue", err, store.Dir())
		}
		return err
	}
	if res.Resumed > 0 {
		fmt.Fprintf(os.Stderr, "accelwall: resumed — restored %d evaluations already on disk\n", res.Resumed)
	}
	drop()
	if f.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(core.NewSearchJSON(f.workload, cfg, res))
	}
	fmt.Print(core.SearchText(f.workload, cfg, res))
	return nil
}

// listJSON emits the experiment registry in the /v1/experiments wire shape.
func listJSON() error {
	type row struct {
		ID    string `json:"id"`
		Title string `json:"title"`
		Kind  string `json:"kind"`
	}
	var out []row
	for _, e := range core.Experiments() {
		out = append(out, row{ID: e.ID, Title: e.Title, Kind: "paper"})
	}
	for _, e := range core.Extensions() {
		out = append(out, row{ID: e.ID, Title: e.Title, Kind: "extension"})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{"experiments": out})
}

// buildKernel resolves a kernel by name across the three registries — a
// Table IV abbreviation, an algorithm variant, or a case-study domain
// kernel — and builds its dataflow graph (size 0 = the kernel's default
// problem size).
func buildKernel(name string, size int) (*dfg.Graph, error) {
	build, err := workloads.Lookup(name)
	if err != nil {
		return nil, fmt.Errorf("unknown kernel %q", name)
	}
	return build(size)
}

// writeDOT emits a kernel's Graphviz DOT to stdout.
func writeDOT(name string) error {
	g, err := buildKernel(name, 0)
	if err != nil {
		return err
	}
	return g.WriteDOT(os.Stdout)
}

// writeCorpus emits the synthetic datasheet corpus as CSV to stdout, for
// inspection or substitution with real data.
func writeCorpus(seed int64) error {
	return chipdb.Synthetic(seed).WriteCSV(os.Stdout)
}

// writeReport runs every experiment and extension and writes a single
// Markdown report.
func writeReport(ctx context.Context, path string, seed int64, published, full bool, workers int) error {
	var study *core.Study
	if published {
		study = core.NewPublished()
	} else {
		var err error
		if study, err = core.New(seed); err != nil {
			return err
		}
	}
	if full {
		study.Sweep = sweep.Default()
	}
	study.Workers = workers
	study.Ctx = ctx
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "# The Accelerator Wall — full reproduction report")
	fmt.Fprintln(f)
	fmt.Fprintf(f, "Generated by `accelwall report` (seed %d, published=%v, full=%v).\n\n", seed, published, full)
	write := func(e core.Experiment) error {
		out, err := e.Run(study)
		if err != nil {
			// Cancellation aborts the whole report (a half-written file
			// plus exit 130 beats a file full of "unavailable" rows).
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return err
			}
			// Corpus-dependent experiments are unavailable in published
			// mode; note it and continue.
			fmt.Fprintf(f, "## %s: %s\n\nunavailable: %v\n\n", e.ID, e.Title, err)
			return nil
		}
		fmt.Fprintf(f, "## %s: %s\n\n```\n%s```\n\n", e.ID, e.Title, out)
		return nil
	}
	for _, e := range core.Experiments() {
		if err := write(e); err != nil {
			return err
		}
	}
	fmt.Fprintln(f, "# Extensions")
	fmt.Fprintln(f)
	for _, e := range core.Extensions() {
		if err := write(e); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: accelwall [-seed N] [-published] [-full] [-workers N] [-plot] [-json] [-checkpoint DIR [-resume]] <command>
       accelwall -uncertainty [-replicates N] [-conf C] [-gain-target G] [-seed N] [-workers N] [-json] [-checkpoint DIR [-resume]]
       accelwall -search -workload K [-size N] [-strategy S] [-objectives L] [-population N] [-generations N] [-max-area A] [-max-power W] [-seed N] [-workers N] [-json] [-checkpoint DIR [-resume]]
commands:
  list               list every reproducible experiment
  all                run every experiment in paper order
  ext                run the beyond-the-paper extensions
  dot <KERNEL>       emit a kernel's dataflow graph as Graphviz DOT
  corpus             emit the synthetic datasheet corpus as CSV
  report [FILE]      run everything and write a Markdown report (default report.md)
  <id> [<id> ...]    run specific experiments (fig1, fig3a, ..., fig16)`)
}
