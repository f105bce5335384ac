package server

import (
	"context"
	"fmt"
	"strconv"

	"accelwall/internal/core"
	"accelwall/internal/dfg"
	"accelwall/internal/montecarlo"
	"accelwall/internal/sweep"
	"accelwall/internal/workloads"
)

// engineKey normalizes a workload reference onto its cache key. Plain
// concatenation: this runs on every sweep request.
func engineKey(workload string, size int) string {
	if size < 0 {
		size = 0
	}
	return workload + "@" + strconv.Itoa(size)
}

// engine returns the compiled sweep engine for a workload, compiling it
// at most once per residency. The loader takes no context, so a compile
// always finishes and is cached even if every requester has gone. The
// compile counter feeds both /v1/metrics and the compile-once test.
func (s *Server) engine(workload string, size int) (*sweep.Engine, error) {
	return s.engines.get(context.Background(), engineKey(workload, size), func(context.Context) (*sweep.Engine, error) {
		g, err := buildWorkload(workload, size)
		if err != nil {
			return nil, err
		}
		s.metrics.Compiles.Add(1)
		return sweep.NewEngine(g)
	})
}

// buildWorkload resolves a kernel name across the three registries — a
// Table IV abbreviation (S3D), an algorithm variant (GMM/strassen), or a
// case-study domain kernel (SHA256d) — and builds its DFG at the given
// problem size (<= 0 selects the kernel default).
func buildWorkload(name string, size int) (*dfg.Graph, error) {
	if spec, err := workloads.ByAbbrev(name); err == nil {
		return spec.Build(size)
	}
	if v, err := workloads.VariantByName(name); err == nil {
		return v.Build(size)
	}
	if k, err := workloads.DomainKernelByName(name); err == nil {
		return k.Build(size)
	}
	return nil, fmt.Errorf("unknown workload %q (see /v1/workloads)", name)
}

// knownWorkload reports whether name resolves in any registry, without
// building its graph — the cheap submission-time check for async jobs.
func knownWorkload(name string) error {
	if _, err := workloads.ByAbbrev(name); err == nil {
		return nil
	}
	if _, err := workloads.VariantByName(name); err == nil {
		return nil
	}
	if _, err := workloads.DomainKernelByName(name); err == nil {
		return nil
	}
	return fmt.Errorf("unknown workload %q (see /v1/workloads)", name)
}

// studyKey identifies one fitted model configuration.
type studyKey struct {
	published bool
	seed      int64
}

// study returns the fitted study for a configuration, fitting the corpus
// regressions at most once per resident key. Like engines, a fit always
// finishes and is cached.
func (s *Server) study(published bool, seed int64) (*core.Study, error) {
	if seed == 0 {
		seed = s.opts.Seed
	}
	return s.studies.get(context.Background(), studyKey{published: published, seed: seed}, func(context.Context) (*core.Study, error) {
		var study *core.Study
		if published {
			study = core.NewPublished()
		} else {
			var err error
			if study, err = core.New(seed); err != nil {
				return nil, err
			}
		}
		study.Workers = s.opts.Workers
		study.Sweep = sweep.Reduced()
		if s.opts.FullGrid {
			study.Sweep = sweep.Default()
		}
		return study, nil
	})
}

// localUncertaintyRun is the plain single-node Monte Carlo load for the
// uncertainty memo: the normalized key on this process's own pool.
func localUncertaintyRun(key montecarlo.Config, workers int) func(context.Context) (core.UncertaintyJSON, error) {
	return func(ctx context.Context) (core.UncertaintyJSON, error) {
		run := key
		run.Workers = workers
		res, err := montecarlo.RunContext(ctx, run)
		if err != nil {
			return core.UncertaintyJSON{}, err
		}
		return core.NewUncertaintyJSON(res), nil
	}
}
