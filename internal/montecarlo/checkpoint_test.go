package montecarlo

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"

	"accelwall/internal/checkpoint"
	"accelwall/internal/faultinject"
	"accelwall/internal/leakcheck"
)

// sameIgnoringResume compares results up to the Resumed counter, which by
// design differs between a cold run and a resumed one.
func sameIgnoringResume(a, b *Result) bool {
	ca, cb := *a, *b
	ca.Resumed, cb.Resumed = 0, 0
	return sameOutput(&ca, &cb)
}

// memorySink keeps every snapshot payload in memory.
type memorySink struct {
	mu    sync.Mutex
	saves [][]byte
}

func (m *memorySink) Save(p []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.saves = append(m.saves, append([]byte(nil), p...))
	return nil
}

func (m *memorySink) last() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.saves) == 0 {
		return nil
	}
	return m.saves[len(m.saves)-1]
}

func TestRunCheckpointedNilEqualsRun(t *testing.T) {
	ref, err := runFresh(context.Background(), testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCheckpointed(context.Background(), testConfig(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameOutput(got, ref) {
		t.Fatal("RunCheckpointed(nil) diverged from Run")
	}
	if got.Resumed != 0 {
		t.Errorf("cold run Resumed = %d", got.Resumed)
	}
}

func TestRunCheckpointedSnapshotsAndStaysIdentical(t *testing.T) {
	ref, err := runFresh(context.Background(), testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	sink := &memorySink{}
	got, err := RunCheckpointed(context.Background(), testConfig(4), &Checkpoint{Sink: sink, Every: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !sameOutput(got, ref) {
		t.Fatal("checkpointed run diverged from plain run")
	}
	if len(sink.saves) == 0 {
		t.Fatal("no snapshots saved at cadence 8 over 48 replicates")
	}
	done, total, err := SnapshotProgress(sink.last())
	if err != nil {
		t.Fatalf("SnapshotProgress: %v", err)
	}
	if total != testConfig(4).Replicates || done < 8 {
		t.Errorf("last snapshot covers %d/%d", done, total)
	}
}

// TestResumeBitIdentical is the core durability claim: a run restored from
// any intermediate snapshot finishes with output bit-identical to an
// uninterrupted run, at every pool width.
func TestResumeBitIdentical(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			leakcheck.Check(t)
			cfg := testConfig(workers)
			ref, err := runFresh(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			sink := &memorySink{}
			if _, err := RunCheckpointed(context.Background(), cfg, &Checkpoint{Sink: sink, Every: 8}); err != nil {
				t.Fatal(err)
			}
			// Every intermediate snapshot — not just the last — must resume
			// to the identical result.
			for i, snap := range sink.saves {
				res, err := RunCheckpointed(context.Background(), cfg, &Checkpoint{Resume: snap})
				if err != nil {
					t.Fatalf("resume from snapshot %d: %v", i, err)
				}
				if !sameIgnoringResume(res, ref) {
					t.Fatalf("resume from snapshot %d diverged from uninterrupted run", i)
				}
				done, _, _ := SnapshotProgress(snap)
				if res.Resumed != done {
					t.Fatalf("Resumed = %d, snapshot covered %d", res.Resumed, done)
				}
			}
		})
	}
}

// crashSink persists to a real checkpoint log and pulls the plug — cancels
// the run's context — once the target number of snapshots has landed,
// simulating a process killed mid-run with its durable state on disk.
type crashSink struct {
	log    *checkpoint.Log
	after  int
	cancel context.CancelFunc
	mu     sync.Mutex
	n      int
}

func (c *crashSink) Save(p []byte) error {
	if err := c.log.Save(p); err != nil {
		return err
	}
	c.mu.Lock()
	c.n++
	kill := c.n == c.after
	c.mu.Unlock()
	if kill {
		c.cancel()
	}
	return nil
}

// TestCrashResumeChaos kills checkpointed runs mid-flight at every pool
// width, tears the log's tail the way an interrupted append would, resumes
// from what survives, and demands the final output be bit-identical to a
// run that was never interrupted.
func TestCrashResumeChaos(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			leakcheck.Check(t)
			cfg := testConfig(workers)
			ref, err := runFresh(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			store, err := checkpoint.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			log, err := store.OpenLog("mc")
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sink := &crashSink{log: log, after: 1, cancel: cancel}
			_, err = RunCheckpointed(ctx, cfg, &Checkpoint{Sink: sink, Every: 8})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("crashed run returned %v, want context.Canceled", err)
			}
			log.Close()

			// The crash also tore a half-written record onto the tail.
			f, err := os.OpenFile(store.Path("mc"), os.O_WRONLY|os.O_APPEND, 0o600)
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte{0x10, 0x00, 0x00, 0x00, 0xde, 0xad})
			f.Close()

			snap, err := store.ReadLast("mc")
			if err != nil {
				t.Fatalf("ReadLast after crash: %v", err)
			}
			done, total, err := SnapshotProgress(snap)
			if err != nil {
				t.Fatal(err)
			}
			if done == 0 || done > total {
				t.Fatalf("parting snapshot covers %d/%d", done, total)
			}
			// With one worker the crash point is deterministic: the pool
			// cannot race past the cancel, so the snapshot must be a strict
			// prefix. Wider pools may legitimately finish the grid before
			// observing the cancel.
			if workers == 1 && done >= total {
				t.Fatalf("single-worker parting snapshot covers %d/%d, want a strict prefix", done, total)
			}
			res, err := RunCheckpointed(context.Background(), cfg, &Checkpoint{Resume: snap})
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if !sameIgnoringResume(res, ref) {
				t.Fatal("resumed run diverged from uninterrupted reference")
			}
			if res.Resumed != done {
				t.Errorf("Resumed = %d, snapshot covered %d", res.Resumed, done)
			}
		})
	}
}

func TestResumeRejectsWrongRun(t *testing.T) {
	cfg := testConfig(2)
	sink := &memorySink{}
	if _, err := RunCheckpointed(context.Background(), cfg, &Checkpoint{Sink: sink, Every: 8}); err != nil {
		t.Fatal(err)
	}
	snap := sink.last()
	if snap == nil {
		t.Fatal("no snapshot")
	}

	other := cfg
	other.Seed++
	if _, err := RunCheckpointed(context.Background(), other, &Checkpoint{Resume: snap}); !errors.Is(err, checkpoint.ErrSnapshotMismatch) {
		t.Errorf("resume with different seed = %v, want checkpoint.ErrSnapshotMismatch", err)
	}

	trunc := snap[:len(snap)-3]
	if _, err := RunCheckpointed(context.Background(), cfg, &Checkpoint{Resume: trunc}); !errors.Is(err, checkpoint.ErrSnapshotCorrupt) {
		t.Errorf("resume with truncated payload = %v, want checkpoint.ErrSnapshotCorrupt", err)
	}

	trailing := append(append([]byte(nil), snap...), 0x00)
	if _, err := RunCheckpointed(context.Background(), cfg, &Checkpoint{Resume: trailing}); !errors.Is(err, checkpoint.ErrSnapshotCorrupt) {
		t.Errorf("resume with trailing bytes = %v, want checkpoint.ErrSnapshotCorrupt", err)
	}

	versioned := append([]byte(nil), snap...)
	versioned[0] = 0xfe
	if _, err := RunCheckpointed(context.Background(), cfg, &Checkpoint{Resume: versioned}); !errors.Is(err, checkpoint.ErrSnapshotVersion) {
		t.Errorf("resume with alien version = %v, want checkpoint.ErrSnapshotVersion", err)
	}
	if _, _, err := SnapshotProgress(versioned); !errors.Is(err, checkpoint.ErrSnapshotVersion) {
		t.Errorf("SnapshotProgress with alien version = %v", err)
	}
}

// TestCheckpointSaveFaultsDoNotHurtResults arms the fs seams so snapshot
// appends fail mid-run: checkpointing must disable itself, report through
// OnError, and leave the computation untouched.
func TestCheckpointSaveFaultsDoNotHurtResults(t *testing.T) {
	for _, site := range []string{faultinject.SiteFSWrite, faultinject.SiteFSSync} {
		t.Run(site, func(t *testing.T) {
			leakcheck.Check(t)
			cfg := testConfig(4)
			ref, err := runFresh(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			store, err := checkpoint.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			log, err := store.OpenLog("mc")
			if err != nil {
				t.Fatal(err)
			}
			defer log.Close()

			var mu sync.Mutex
			var reported error
			faultinject.Enable(faultinject.New(9).Set(site, faultinject.Rule{
				Mode: faultinject.ModeError, Every: 1,
			}))
			res, err := RunCheckpointed(context.Background(), cfg, &Checkpoint{
				Sink: log, Every: 8,
				OnError: func(e error) { mu.Lock(); reported = e; mu.Unlock() },
			})
			faultinject.Disable()
			if err != nil {
				t.Fatalf("run with failing snapshots errored: %v", err)
			}
			if !sameOutput(res, ref) {
				t.Fatal("failing snapshots changed the computation")
			}
			mu.Lock()
			defer mu.Unlock()
			if !errors.Is(reported, faultinject.ErrInjected) {
				t.Errorf("OnError got %v, want injected fault", reported)
			}
		})
	}
}

func TestResumeFullyCompleteSnapshot(t *testing.T) {
	// One worker, cadence 1: saves are synchronous on the only worker, so
	// the final snapshot deterministically covers every replicate.
	cfg := testConfig(1)
	ref, err := runFresh(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := &memorySink{}
	ck := &Checkpoint{Sink: sink, Every: 1}
	if _, err := RunCheckpointed(context.Background(), cfg, ck); err != nil {
		t.Fatal(err)
	}
	snap := sink.last()
	done, total, err := SnapshotProgress(snap)
	if err != nil || done != total {
		t.Fatalf("cadence-1 final snapshot covers %d/%d (%v)", done, total, err)
	}
	// Resuming a finished run recomputes nothing and still reduces right.
	res, err := RunCheckpointed(context.Background(), cfg, &Checkpoint{Resume: snap})
	if err != nil {
		t.Fatal(err)
	}
	if !sameIgnoringResume(res, ref) {
		t.Fatal("resume of complete snapshot diverged")
	}
	if res.Resumed != total {
		t.Errorf("Resumed = %d, want %d", res.Resumed, total)
	}
}

// TestResumeAtEveryOffset: for every prefix length k of an uninterrupted
// run — chunk-aligned or not, empty or complete — a snapshot of the first
// k replicates resumes to the uninterrupted result.
func TestResumeAtEveryOffset(t *testing.T) {
	cfg := testConfig(3)
	cfg.Replicates = 20
	e, err := New(cfg.CorpusSeed)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := e.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	outs := e.runReplicates(context.Background(), cfg)
	for k := 0; k <= cfg.Replicates; k++ {
		res, err := e.RunCheckpointed(context.Background(), cfg, &Checkpoint{Resume: encodeSnapshot(cfg, outs, k)})
		if err != nil {
			t.Fatalf("resume at %d: %v", k, err)
		}
		if res.Resumed != k {
			t.Errorf("resume at %d: Resumed = %d", k, res.Resumed)
		}
		if !sameIgnoringResume(res, ref) {
			t.Fatalf("resume at %d diverged from the uninterrupted run", k)
		}
	}
}
