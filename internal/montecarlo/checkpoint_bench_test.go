package montecarlo

import (
	"context"
	"testing"

	"accelwall/internal/checkpoint"
)

// BenchmarkCheckpointOverhead measures the cost of durable progress
// snapshots on a full run: "off" is the plain engine, "on" persists to a
// real fsynced log at the default cadence. The delta is the price of
// crash safety; bench.sh records on/off as checkpoint_on_off, with 1.05
// (a 5% overhead) the budget.
func BenchmarkCheckpointOverhead(b *testing.B) {
	e, err := New(1)
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	cfg := Config{Replicates: benchReplicates, Seed: 1, Workers: 4}

	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.RunCheckpointed(context.Background(), cfg, nil); err != nil {
				b.Fatalf("Run: %v", err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		store, err := checkpoint.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		log, err := store.OpenLog("bench")
		if err != nil {
			b.Fatal(err)
		}
		defer log.Close()
		ck := &Checkpoint{Sink: log, OnError: func(err error) { b.Fatalf("save: %v", err) }}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.RunCheckpointed(context.Background(), cfg, ck); err != nil {
				b.Fatalf("Run: %v", err)
			}
		}
	})
}

// BenchmarkSnapshotSave is the write-path latency of one durable
// snapshot: encode the completed prefix, frame it with a CRC, append, and
// fsync. This is what a running study pays per checkpoint.
func BenchmarkSnapshotSave(b *testing.B) {
	e, err := New(1)
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	cfg := Config{Replicates: benchReplicates, Seed: 1, Workers: 4}.withDefaults()
	outs := make([]replicateOut, cfg.Replicates)
	e.runReplicatesInto(context.Background(), cfg, outs, 0, nil)

	store, err := checkpoint.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	log, err := store.OpenLog("bench")
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := log.Save(encodeSnapshot(cfg, outs, cfg.Replicates)); err != nil {
			b.Fatalf("Save: %v", err)
		}
	}
}

// BenchmarkResume compares a cold run against one restored from a
// half-complete snapshot. Resume decodes the prefix instead of
// recomputing it, so "half" should cost roughly half of "cold" — the
// wall-clock value of not losing completed work to a crash.
func BenchmarkResume(b *testing.B) {
	e, err := New(1)
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	cfg := Config{Replicates: benchReplicates, Seed: 1, Workers: 4}.withDefaults()
	outs := make([]replicateOut, cfg.Replicates)
	e.runReplicatesInto(context.Background(), cfg, outs, 0, nil)
	half := encodeSnapshot(cfg, outs, cfg.Replicates/2)

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.RunCheckpointed(context.Background(), cfg, nil); err != nil {
				b.Fatalf("Run: %v", err)
			}
		}
	})
	b.Run("half", func(b *testing.B) {
		ck := &Checkpoint{Resume: half}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := e.RunCheckpointed(context.Background(), cfg, ck)
			if err != nil {
				b.Fatalf("Run: %v", err)
			}
			if res.Resumed != cfg.Replicates/2 {
				b.Fatalf("resumed %d, want %d", res.Resumed, cfg.Replicates/2)
			}
		}
	})
}
