package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"testing"

	"accelwall/internal/checkpoint"
	"accelwall/internal/cmos"
	"accelwall/internal/core"
	"accelwall/internal/montecarlo"
)

// decodeBody runs a raw body through the production decode path (size
// cap, strict fields, trailing-garbage rejection) into v.
func decodeBody(v any, body []byte) error {
	r := httptest.NewRequest("POST", "/", bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	return decodeJSON(httptest.NewRecorder(), r, v)
}

// FuzzSweepRequestDecode hammers the sweep codec + validator: no input
// may panic, and any body both accept must contain only finite, sanely
// bounded numerics, and only grid nodes the CMOS model covers — the
// properties the compute path relies on.
func FuzzSweepRequestDecode(f *testing.F) {
	f.Add([]byte(`{"workload": "S3D", "preset": "reduced"}`))
	f.Add([]byte(`{"workload": "RED", "designs": [{"node_nm": 45, "partition": 1, "simplification": 1}]}`))
	f.Add([]byte(`{"workload": "GEM", "grid": {"nodes": [45, 5], "partitions": [1], "simplifications": [1], "fusion": [false]}}`))
	f.Add([]byte(`{"workload": "S3D", "designs": [{"node_nm": 1e309}]}`))
	f.Add([]byte(`{"workload": "S3D", "workers": -1}`))
	f.Add([]byte(`{"workload": "FFT", "grid": {"nodes": [205], "partitions": [1], "simplifications": [1], "fusion": [false]}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req sweepRequest
		if err := decodeBody(&req, body); err != nil {
			return
		}
		if err := req.validate(); err != nil {
			return
		}
		for i, d := range req.Designs {
			if math.IsNaN(d.NodeNM) || math.IsInf(d.NodeNM, 0) || math.IsNaN(d.ClockGHz) || math.IsInf(d.ClockGHz, 0) {
				t.Fatalf("validate accepted non-finite design %d: %+v", i, d)
			}
		}
		if req.Grid != nil {
			for i, nm := range req.Grid.Nodes {
				if _, err := cmos.Lookup(nm); err != nil || math.IsNaN(nm) || math.IsInf(nm, 0) || nm < 1 {
					t.Fatalf("validate accepted bad grid node %d: %v", i, nm)
				}
			}
		}
		if req.Workers < 0 || req.Workers > maxWorkers {
			t.Fatalf("validate accepted workers %d", req.Workers)
		}
	})
}

// FuzzUncertaintyRequestDecode checks the property that motivated the
// validator: a body that clears both the server validator and the
// montecarlo validator can never smuggle NaN/Inf into the Monte Carlo
// configuration (whose own range checks use ordered comparisons that NaN
// slips through).
func FuzzUncertaintyRequestDecode(f *testing.F) {
	f.Add([]byte(`{"replicates": 16, "seed": 3}`))
	f.Add([]byte(`{"replicates": 200, "confidence": 0.9, "gain_target": 10, "cmos_jitter": 0.02}`))
	f.Add([]byte(`{"confidence": null}`))
	f.Add([]byte(`{"gain_target": 1e400}`))
	f.Add([]byte(`{"replicates": -5}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req uncertaintyRequest
		if err := decodeBody(&req, body); err != nil {
			return
		}
		if err := req.validate(); err != nil {
			return
		}
		cfg := montecarlo.Config{
			Replicates: req.Replicates,
			Seed:       req.Seed,
			CorpusSeed: req.CorpusSeed,
			Confidence: req.Confidence,
			GainTarget: req.GainTarget,
			CMOSJitter: req.CMOSJitter,
		}
		if err := cfg.Validate(); err != nil {
			return
		}
		n := cfg.Normalized()
		for name, v := range map[string]float64{
			"confidence": n.Confidence, "gain_target": n.GainTarget, "cmos_jitter": n.CMOSJitter,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted config has non-finite %s: %v (body %q)", name, v, body)
			}
		}
	})
}

// FuzzSearchRequestDecode hammers the search codec + validator + config
// mapping: no input may panic, and a body that clears the validator must
// map to a search.Config that the engine's own Validate accepts, with a
// bounded evaluation budget, only finite numerics and only space nodes the
// CMOS model covers — the invariants the explorer relies on to terminate
// and to evaluate.
func FuzzSearchRequestDecode(f *testing.F) {
	f.Add([]byte(`{"workload": "FFT", "population": 12, "generations": 4, "seed": 5}`))
	f.Add([]byte(`{"workload": "S3D", "strategy": "halving", "objectives": ["delay", "energy"], "max_area": 50, "max_power_w": 5}`))
	f.Add([]byte(`{"workload": "RED", "space": {"nodes": [45, 5], "partitions": [1, 4], "simplifications": [1, 2], "fusion": [false, true], "clocks": [1, 2], "memory_banks": [1, 8]}}`))
	f.Add([]byte(`{"workload": "FFT", "population": 1000, "generations": 1000}`))
	f.Add([]byte(`{"workload": "FFT", "max_area": 1e309}`))
	f.Add([]byte(`{"workload": "FFT", "space": {"nodes": [0]}}`))
	f.Add([]byte(`{"workload": "FFT", "space": {"nodes": [205], "partitions": [1], "simplifications": [1], "fusion": [false]}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req searchRequest
		if err := decodeBody(&req, body); err != nil {
			return
		}
		if err := req.validate(); err != nil {
			return
		}
		cfg, err := req.config()
		if err != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("validated request maps to invalid config: %v (body %q)", err, body)
		}
		if cfg.Population < 2 || cfg.Generations < 1 || cfg.Population*cfg.Generations > maxSearchEvaluations {
			t.Fatalf("accepted config has unbounded budget: pop=%d gens=%d", cfg.Population, cfg.Generations)
		}
		for name, v := range map[string]float64{
			"max_area": cfg.Constraints.MaxArea, "max_power_w": cfg.Constraints.MaxPowerW,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted config has non-finite %s: %v", name, v)
			}
		}
		for i, nm := range cfg.Space.Nodes {
			if _, err := cmos.Lookup(nm); err != nil || math.IsNaN(nm) || math.IsInf(nm, 0) || nm < 1 {
				t.Fatalf("accepted space node %d: %v", i, nm)
			}
		}
		for i, c := range cfg.Space.Clocks {
			if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
				t.Fatalf("accepted space clock %d: %v", i, c)
			}
		}
	})
}

// FuzzCSRRequestDecode checks the CSR codec + validator never panic and
// never accept non-finite observation numerics.
func FuzzCSRRequestDecode(f *testing.F) {
	f.Add([]byte(`{"target": "performance", "observations": [{"name": "a", "gain": 2, "year": 2010, "chip": {"node_nm": 45, "die_mm2": 100, "tdp_w": 100, "freq_ghz": 2}}]}`))
	f.Add([]byte(`{"observations": []}`))
	f.Add([]byte(`{"observations": [{"gain": -1}]}`))
	f.Add([]byte(`{"observations": [{"gain": 1, "chip": {"node_nm": 1e309}}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req csrRequest
		if err := decodeBody(&req, body); err != nil {
			return
		}
		if err := req.validate(); err != nil {
			return
		}
		for i, o := range req.Observations {
			for name, v := range map[string]float64{
				"gain": o.Gain, "year": o.Year,
				"node_nm": o.Chip.NodeNM, "die_mm2": o.Chip.DieMM2,
				"tdp_w": o.Chip.TDPW, "freq_ghz": o.Chip.FreqGHz,
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("validate accepted non-finite %s in observation %d", name, i)
				}
			}
		}
	})
}

// FuzzJobRecordDecode hammers what start-up parses from disk: a job log
// (or a bare record, or a file of the old three-file layout) through
// checkpoint.DecodeLast and restoreJob. No input may panic, and every
// input is either refused with an error or restored to a job in a known
// state whose view marshals.
func FuzzJobRecordDecode(f *testing.F) {
	const id = "job-000001"
	manifest := func(state, extra string) []byte {
		return []byte(`{"id": "` + id + `", "kind": "uncertainty", "state": "` + state + `", "created": "2026-01-02T03:04:05Z", "request": {"kind": "uncertainty", "uncertainty": {"replicates": 10, "seed": 7}, "checkpoint_every": 5}` + extra + `}`)
	}
	var snapshot []byte
	sink := sinkFunc(func(p []byte) error { snapshot = append([]byte(nil), p...); return nil })
	res, err := montecarlo.RunCheckpointed(context.Background(), montecarlo.Config{Replicates: 10, Seed: 7, Workers: 1}, &checkpoint.Options{Sink: sink, Every: 5})
	if err != nil {
		f.Fatal(err)
	}
	result, err := json.Marshal(core.NewUncertaintyJSON(res))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeRecord(manifest(jobPending, ""), nil))
	f.Add(encodeRecord(manifest(jobRunning, ""), snapshot))
	f.Add(encodeRecord(manifest(jobDone, ""), result))
	f.Add(encodeRecord(manifest(jobFailed, `, "error": "boom"`), nil))
	// A whole job log, and a manifest file of the old layout.
	store, err := checkpoint.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	for name, payload := range map[string][]byte{
		logName(id):      encodeRecord(manifest(jobDone, ""), result),
		id + ".manifest": manifest(jobPending, ""),
	} {
		if err := store.Write(name, payload); err != nil {
			f.Fatal(err)
		}
		file, err := os.ReadFile(store.Path(name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(file)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := checkpoint.DecodeLast(data)
		if err != nil {
			rec = data // not a log file: decode the input as a bare record
		}
		j, resume, err := restoreJob(id, rec)
		if err != nil {
			return
		}
		switch {
		case j.id != id || j.spec == nil:
			t.Fatalf("restored job %q without its identity", j.id)
		case j.state == jobDone && (!json.Valid(j.result) || resume != nil):
			t.Fatalf("done job with result %q, resume %d bytes", j.result, len(resume))
		case j.state == jobFailed && resume != nil:
			t.Fatalf("failed job with a %d-byte resume snapshot", len(resume))
		case j.state == jobPending && resume != nil && len(resume) == 0:
			t.Fatal("pending job with an empty, non-nil resume snapshot")
		case j.state != jobDone && j.state != jobFailed && j.state != jobPending:
			t.Fatalf("restored job in state %q", j.state)
		}
		if _, err := json.Marshal(j.json(true)); err != nil {
			t.Fatalf("restored job view does not marshal: %v", err)
		}
	})
}

// sinkFunc adapts a function to checkpoint.Sink.
type sinkFunc func([]byte) error

func (f sinkFunc) Save(p []byte) error { return f(p) }
