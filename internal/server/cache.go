package server

import (
	"context"
	"fmt"
	"strconv"

	"accelwall/internal/core"
	"accelwall/internal/dfg"
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

// jobEngine returns a durable job's engine: a Private engine over the
// workload's shared compiled graph (looked up, and compiled on a miss,
// through the engine cache like any request), with its own point memo, so
// a job never grows the shared engine's memo.
func (s *Server) jobEngine(workload string, size int) (*sweep.Engine, error) {
	eng, err := s.engine(workload, size)
	if err != nil {
		return nil, err
	}
	return eng.Private(), nil
}

// buildWorkload builds a kernel's DFG by any registry name
// (workloads.Lookup) at the given problem size (<= 0 selects the kernel
// default).
func buildWorkload(name string, size int) (*dfg.Graph, error) {
	build, err := workloads.Lookup(name)
	if err != nil {
		return nil, fmt.Errorf("unknown workload %q (see /v1/workloads)", name)
	}
	return build(size)
}

// jobWorkload rejects a job whose workload resolves in no registry,
// without building its graph: a job must fail at submission, not later
// in its run. The synchronous path learns the same from its engine
// lookup (an engine-cache miss).
func jobWorkload(job bool, name string) error {
	if !job {
		return nil
	}
	if _, err := workloads.Lookup(name); err != nil {
		return fmt.Errorf("unknown workload %q (see /v1/workloads)", name)
	}
	return nil
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
