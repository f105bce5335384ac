package checkpoint_test

import (
	"context"
	"errors"
	"testing"

	"accelwall/internal/checkpoint"
	"accelwall/internal/montecarlo"
	"accelwall/internal/search"
	"accelwall/internal/sweep"
	"accelwall/internal/workloads"
)

// memSink records every snapshot it is handed.
type memSink struct{ saves [][]byte }

func (s *memSink) Save(p []byte) error {
	s.saves = append(s.saves, append([]byte(nil), p...))
	return nil
}

// FuzzSnapshotDecode feeds arbitrary payloads to the shared envelope and
// to the sweep, search and Monte Carlo snapshot decoders, seeded with
// real snapshots of all three. No payload may panic a decoder, and every
// rejection must wrap one of the three envelope causes. Each resume runs
// under an already-cancelled context, so an accepted payload ends in
// context.Canceled (or success, once nothing is left to compute) instead
// of in engine work.
func FuzzSnapshotDecode(f *testing.F) {
	spec, err := workloads.ByAbbrev("FFT")
	if err != nil {
		f.Fatal(err)
	}
	g, err := spec.Build(0)
	if err != nil {
		f.Fatal(err)
	}
	sw, err := sweep.NewEngine(g)
	if err != nil {
		f.Fatal(err)
	}
	mc, err := montecarlo.New(1)
	if err != nil {
		f.Fatal(err)
	}
	grid := sweep.Params{Nodes: []float64{45, 22}, Partitions: []int{1, 4}, Simplifications: []int{1, 4}, Fusion: []bool{false, true}}
	scfg := search.Config{Seed: 3, Population: 8, Generations: 2}
	mcfg := montecarlo.Config{Replicates: 10, Seed: 9, Workers: 1}

	// Seed with every snapshot of one small checkpointed run per engine.
	sink := &memSink{}
	ck := &checkpoint.Options{Sink: sink, Every: 3}
	fresh, err := sweep.NewEngine(g)
	if err != nil {
		f.Fatal(err)
	}
	if _, _, err := fresh.RunCheckpointed(context.Background(), grid, 1, ck); err != nil {
		f.Fatal(err)
	}
	if _, err := search.RunCheckpointed(context.Background(), sw, scfg, ck); err != nil {
		f.Fatal(err)
	}
	if _, err := mc.RunCheckpointed(context.Background(), mcfg, ck); err != nil {
		f.Fatal(err)
	}
	if len(sink.saves) < 3 {
		f.Fatalf("%d seed snapshots", len(sink.saves))
	}
	for _, p := range sink.saves {
		f.Add(p)
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0})

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	f.Fuzz(func(t *testing.T, payload []byte) {
		check := func(engine string, err error) {
			if err != nil && !errors.Is(err, context.Canceled) && !checkpoint.IsSnapshotErr(err) {
				t.Fatalf("%s: error %v wraps none of the envelope causes", engine, err)
			}
		}
		r := checkpoint.NewReader(payload)
		check("envelope", r.CheckHeader("fuzz", 1, 0))
		for name, progress := range map[string]func([]byte) (int, int, error){
			"sweep": sweep.SnapshotProgress, "search": search.SnapshotProgress, "montecarlo": montecarlo.SnapshotProgress,
		} {
			done, total, err := progress(payload)
			if err == nil && (done < 0 || done > total) {
				t.Fatalf("%s progress %d of %d", name, done, total)
			}
			check(name+" progress", err)
		}
		resume := &checkpoint.Options{Resume: payload}
		_, _, err := sw.RunCheckpointed(cancelled, grid, 1, resume)
		check("sweep", err)
		_, err = search.RunCheckpointed(cancelled, sw, scfg, resume)
		check("search", err)
		_, err = mc.RunCheckpointed(cancelled, mcfg, resume)
		check("montecarlo", err)
	})
}
