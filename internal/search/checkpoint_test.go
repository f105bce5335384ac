package search

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"accelwall/internal/aladdin"
	"accelwall/internal/checkpoint"
)

// memSink captures every snapshot payload in order.
type memSink struct{ saves [][]byte }

func (m *memSink) Save(p []byte) error {
	m.saves = append(m.saves, append([]byte(nil), p...))
	return nil
}

func (m *memSink) last() []byte {
	if len(m.saves) == 0 {
		return nil
	}
	return m.saves[len(m.saves)-1]
}

// cancelAfterBatches wraps an Evaluator and cancels the run's context
// after n successful batch evaluations — a deterministic stand-in for
// kill -9 mid-search.
type cancelAfterBatches struct {
	Evaluator
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfterBatches) EvaluateBatchContext(ctx context.Context, d []aladdin.Design, w int) ([]aladdin.Result, error) {
	if c.n <= 0 {
		c.cancel()
		return nil, ctx.Err()
	}
	c.n--
	return c.Evaluator.EvaluateBatchContext(ctx, d, w)
}

func searchCfg() Config {
	return Config{Seed: 11, Population: 16, Generations: 6}
}

// Checkpointing must not perturb results, and resuming from any snapshot
// must reproduce the uninterrupted run byte for byte.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	eng := buildEngine(t, "S3D")
	ref, err := RunContext(context.Background(), eng, searchCfg())
	if err != nil {
		t.Fatal(err)
	}

	sink := &memSink{}
	ck := &Checkpoint{Sink: sink, Every: 1}
	withCk, err := RunCheckpointed(context.Background(), eng, searchCfg(), ck)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, withCk) {
		t.Fatal("checkpointing changed the result")
	}
	if len(sink.saves) == 0 {
		t.Fatal("no snapshots written")
	}

	for i, snap := range sink.saves {
		res, err := RunCheckpointed(context.Background(), eng, searchCfg(), &Checkpoint{Resume: snap})
		if err != nil {
			t.Fatalf("resume from snapshot %d: %v", i, err)
		}
		if res.Resumed == 0 {
			t.Errorf("snapshot %d: resumed count is zero", i)
		}
		norm := *res
		norm.Resumed = 0
		if !reflect.DeepEqual(ref, &norm) {
			t.Errorf("resume from snapshot %d diverged from uninterrupted run", i)
		}
	}
}

// Cancellation mid-generation leaves a parting snapshot at the last
// completed step; resuming it completes the search bit-identically.
func TestCancelPartingSnapshotAndResume(t *testing.T) {
	eng := buildEngine(t, "S3D")
	ref, err := RunContext(context.Background(), eng, searchCfg())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wrapped := &cancelAfterBatches{Evaluator: buildEngine(t, "S3D"), n: 3, cancel: cancel}
	sink := &memSink{}
	// Every=100: no cadence saves fire, so any snapshot present is the
	// parting one.
	_, err = RunCheckpointed(ctx, wrapped, searchCfg(), &Checkpoint{Sink: sink, Every: 100})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(sink.saves) != 1 {
		t.Fatalf("%d snapshots, want exactly the parting one", len(sink.saves))
	}
	done, total, err := SnapshotProgress(sink.last())
	if err != nil {
		t.Fatal(err)
	}
	if total != searchCfg().Generations+1 || done == 0 || done >= total {
		t.Fatalf("parting snapshot covers %d/%d steps", done, total)
	}

	res, err := RunCheckpointed(context.Background(), buildEngine(t, "S3D"), searchCfg(), &Checkpoint{Resume: sink.last()})
	if err != nil {
		t.Fatal(err)
	}
	norm := *res
	norm.Resumed = 0
	if !reflect.DeepEqual(ref, &norm) {
		t.Error("resumed-after-cancel result diverged from uninterrupted run")
	}
}

func TestSnapshotValidation(t *testing.T) {
	eng := buildEngine(t, "S3D")
	sink := &memSink{}
	if _, err := RunCheckpointed(context.Background(), eng, searchCfg(), &Checkpoint{Sink: sink, Every: 1}); err != nil {
		t.Fatal(err)
	}
	snap := sink.last()

	resume := func(eng Evaluator, cfg Config, payload []byte) error {
		_, err := RunCheckpointed(context.Background(), eng, cfg, &Checkpoint{Resume: payload})
		return err
	}

	bad := append([]byte(nil), snap...)
	bad[0] ^= 0xFF // version
	if err := resume(eng, searchCfg(), bad); !errors.Is(err, checkpoint.ErrSnapshotVersion) {
		t.Errorf("tampered version: %v, want checkpoint.ErrSnapshotVersion", err)
	}

	other := searchCfg()
	other.Seed++
	if err := resume(eng, other, snap); !errors.Is(err, checkpoint.ErrSnapshotMismatch) {
		t.Errorf("different seed: %v, want checkpoint.ErrSnapshotMismatch", err)
	}
	if err := resume(buildEngine(t, "FFT"), searchCfg(), snap); !errors.Is(err, checkpoint.ErrSnapshotMismatch) {
		t.Errorf("different workload: %v, want checkpoint.ErrSnapshotMismatch", err)
	}

	if err := resume(eng, searchCfg(), snap[:len(snap)-3]); !errors.Is(err, checkpoint.ErrSnapshotCorrupt) {
		t.Errorf("truncated payload: %v, want checkpoint.ErrSnapshotCorrupt", err)
	}
	if err := resume(eng, searchCfg(), append(append([]byte(nil), snap...), 0)); !errors.Is(err, checkpoint.ErrSnapshotCorrupt) {
		t.Errorf("trailing byte: %v, want checkpoint.ErrSnapshotCorrupt", err)
	}

	if _, _, err := SnapshotProgress(snap); err != nil {
		t.Errorf("SnapshotProgress on valid payload: %v", err)
	}
	if _, _, err := SnapshotProgress([]byte{1}); err == nil {
		t.Error("SnapshotProgress on garbage should error")
	}
}
