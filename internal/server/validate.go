package server

import (
	"fmt"
	"math"

	"accelwall/internal/cmos"
	"accelwall/internal/search"
)

// Numeric sanity bounds for request bodies. JSON happily encodes NaN-free
// but absurd values ("node_nm": 1e308), and Go's strconv round-trips
// ±Inf-adjacent magnitudes that the physical model then folds into every
// downstream exponent; rejecting them at the boundary with the offending
// field named beats a 200 full of NaNs or a panic deep in a worker pool.
const (
	maxNodeNM     = 1000.0  // nm; the corpus spans 65–5, 1000 is generous
	maxClockGHz   = 1000.0  // GHz
	maxGainTarget = 1e12    // dimensionless speedup target
	maxDieMM2     = 1e6     // mm²
	maxTDPW       = 1e6     // W
	maxYear       = 3000.0  // CE
	maxWorkers    = 4096    // pool size an operator could plausibly mean
	maxSize       = 1 << 24 // workload problem-size parameter
)

// badField formats the single-field validation error every check returns:
// the JSON field name first, so clients can map the 400 onto their input.
func badField(field, format string, args ...any) error {
	return fmt.Errorf("field %q: %s", field, fmt.Sprintf(format, args...))
}

// finite rejects NaN and ±Inf. Several downstream validators use ordered
// comparisons (x <= 0, x >= 1) that NaN sails through, so this is the one
// check that cannot be delegated.
func finite(field string, v float64) error {
	if math.IsNaN(v) {
		return badField(field, "is NaN")
	}
	if math.IsInf(v, 0) {
		return badField(field, "is infinite")
	}
	return nil
}

// finiteIn rejects NaN/Inf and values outside [lo, hi].
func finiteIn(field string, v, lo, hi float64) error {
	if err := finite(field, v); err != nil {
		return err
	}
	if v < lo || v > hi {
		return badField(field, "%g outside [%g, %g]", v, lo, hi)
	}
	return nil
}

// modeledNode rejects a feature size the CMOS scaling model does not
// cover: the engines cannot evaluate it, so it is the client's error.
func modeledNode(field string, nm float64) error {
	if err := finiteIn(field, nm, 1, maxNodeNM); err != nil {
		return err
	}
	if _, err := cmos.Lookup(nm); err != nil {
		return badField(field, "%v", err)
	}
	return nil
}

// validate checks a sweep request's numeric fields before any engine work.
func (r *sweepRequest) validate() error {
	if r.Workers < 0 || r.Workers > maxWorkers {
		return badField("workers", "%d outside [0, %d]", r.Workers, maxWorkers)
	}
	if r.Size < 0 || r.Size > maxSize {
		return badField("size", "%d outside [0, %d]", r.Size, maxSize)
	}
	if r.Grid != nil {
		for i, nm := range r.Grid.Nodes {
			if err := modeledNode(fmt.Sprintf("grid.nodes[%d]", i), nm); err != nil {
				return err
			}
		}
	}
	for i, d := range r.Designs {
		if err := finiteIn(fmt.Sprintf("designs[%d].node_nm", i), d.NodeNM, 1, maxNodeNM); err != nil {
			return err
		}
		if err := finiteIn(fmt.Sprintf("designs[%d].clock_ghz", i), d.ClockGHz, 0, maxClockGHz); err != nil {
			return err
		}
		if d.MemoryBanks < 0 || d.MemoryBanks > maxWorkers {
			return badField(fmt.Sprintf("designs[%d].memory_banks", i), "%d outside [0, %d]", d.MemoryBanks, maxWorkers)
		}
	}
	return nil
}

// validate checks an uncertainty request's numeric fields. The montecarlo
// package validates ranges itself, but with ordered comparisons NaN slips
// past — a NaN confidence would silently produce NaN bands.
func (r *uncertaintyRequest) validate() error {
	if r.Replicates < 0 {
		return badField("replicates", "%d is negative", r.Replicates)
	}
	if r.Workers < 0 || r.Workers > maxWorkers {
		return badField("workers", "%d outside [0, %d]", r.Workers, maxWorkers)
	}
	if err := finiteIn("confidence", r.Confidence, 0, 1); err != nil {
		return err
	}
	if err := finiteIn("gain_target", r.GainTarget, 0, maxGainTarget); err != nil {
		return err
	}
	if err := finiteIn("cmos_jitter", r.CMOSJitter, 0, 1); err != nil {
		return err
	}
	return nil
}

// validate checks a search request's numeric fields before config mapping.
// Budget semantics (population × generations against the grid-point limit)
// live here too: the search package happily runs any size, but the server
// bounds synchronous work the same way it bounds exhaustive sweeps.
func (r *searchRequest) validate() error {
	if r.Workers < 0 || r.Workers > maxWorkers {
		return badField("workers", "%d outside [0, %d]", r.Workers, maxWorkers)
	}
	if r.Size < 0 || r.Size > maxSize {
		return badField("size", "%d outside [0, %d]", r.Size, maxSize)
	}
	if r.Population < 0 || r.Generations < 0 {
		return badField("population", "population/generations must be non-negative")
	}
	if r.Seed < 0 {
		return badField("seed", "%d is negative", r.Seed)
	}
	if err := finiteIn("max_area", r.MaxArea, 0, maxDieMM2); err != nil {
		return err
	}
	if err := finiteIn("max_power_w", r.MaxPowerW, 0, maxTDPW); err != nil {
		return err
	}
	pop, gens := r.Population, r.Generations
	if pop == 0 {
		pop = search.DefaultPopulation
	}
	if gens == 0 {
		gens = search.DefaultGenerations
	}
	if pop*gens > maxSearchEvaluations {
		return badField("generations", "population %d x generations %d exceeds the %d evaluation budget", pop, gens, maxSearchEvaluations)
	}
	if sp := r.Space; sp != nil {
		for _, n := range [...]int{len(sp.Nodes), len(sp.Partitions), len(sp.Simplifications), len(sp.Fusion), len(sp.Clocks), len(sp.MemoryBanks)} {
			if n > maxSpaceAxis {
				return badField("space", "axis has %d values, limit %d", n, maxSpaceAxis)
			}
		}
		for i, nm := range sp.Nodes {
			if err := modeledNode(fmt.Sprintf("space.nodes[%d]", i), nm); err != nil {
				return err
			}
		}
		for i, c := range sp.Clocks {
			if err := finiteIn(fmt.Sprintf("space.clocks[%d]", i), c, 0, maxClockGHz); err != nil {
				return err
			}
		}
		for i, b := range sp.MemoryBanks {
			if b < 0 || b > maxWorkers {
				return badField(fmt.Sprintf("space.memory_banks[%d]", i), "%d outside [0, %d]", b, maxWorkers)
			}
		}
	}
	return nil
}

// validate checks a CSR request's observations field by field.
func (r *csrRequest) validate() error {
	for i, o := range r.Observations {
		pre := fmt.Sprintf("observations[%d]", i)
		if err := finiteIn(pre+".gain", o.Gain, 0, maxGainTarget); err != nil {
			return err
		}
		if err := finiteIn(pre+".year", o.Year, 0, maxYear); err != nil {
			return err
		}
		if err := finiteIn(pre+".chip.node_nm", o.Chip.NodeNM, 0, maxNodeNM); err != nil {
			return err
		}
		if err := finiteIn(pre+".chip.die_mm2", o.Chip.DieMM2, 0, maxDieMM2); err != nil {
			return err
		}
		if err := finiteIn(pre+".chip.tdp_w", o.Chip.TDPW, 0, maxTDPW); err != nil {
			return err
		}
		if err := finiteIn(pre+".chip.freq_ghz", o.Chip.FreqGHz, 0, maxClockGHz); err != nil {
			return err
		}
	}
	return nil
}
