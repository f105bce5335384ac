package sweep

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"sync"
	"testing"

	"accelwall/internal/aladdin"
	"accelwall/internal/checkpoint"
	"accelwall/internal/leakcheck"
)

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

func TestRunParallelCheckpointedNilEqualsRunParallel(t *testing.T) {
	g := buildApp(t, "S2D", 0)
	ref, err := runParallel(g, tiny(), 4)
	if err != nil {
		t.Fatal(err)
	}
	got, resumed, err := RunParallelCheckpointed(context.Background(), g, tiny(), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 0 {
		t.Errorf("cold run resumed = %d", resumed)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("RunParallelCheckpointed(nil) diverged from RunParallel")
	}
}

// TestSweepResumeBitIdentical resumes from every snapshot an interrupted-
// style run left behind and demands point-for-point identical output, at
// every pool width.
func TestSweepResumeBitIdentical(t *testing.T) {
	g := buildApp(t, "S2D", 0)
	ref, err := runParallel(g, tiny(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			leakcheck.Check(t)
			sink := &memorySink{}
			if _, _, err := RunParallelCheckpointed(context.Background(), g, tiny(), workers, &Checkpoint{Sink: sink, Every: 8}); err != nil {
				t.Fatal(err)
			}
			if len(sink.saves) == 0 {
				t.Fatal("no snapshots saved")
			}
			for i, snap := range sink.saves {
				pts, resumed, err := RunParallelCheckpointed(context.Background(), g, tiny(), workers, &Checkpoint{Resume: snap})
				if err != nil {
					t.Fatalf("resume from snapshot %d: %v", i, err)
				}
				done, total, perr := SnapshotProgress(snap)
				if perr != nil {
					t.Fatal(perr)
				}
				if resumed != done {
					t.Fatalf("resumed = %d, snapshot covered %d/%d", resumed, done, total)
				}
				if !reflect.DeepEqual(pts, ref) {
					t.Fatalf("resume from snapshot %d diverged from uninterrupted run", i)
				}
			}
		})
	}
}

// crashSink persists to a real log and cancels the sweep's context after
// the target number of snapshots, simulating a process killed mid-sweep.
type crashSink struct {
	log    *checkpoint.Log
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
	kill := c.n == 1
	c.mu.Unlock()
	if kill {
		c.cancel()
	}
	return nil
}

func TestSweepCrashResume(t *testing.T) {
	g := buildApp(t, "S2D", 0)
	ref, err := runParallel(g, tiny(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			leakcheck.Check(t)
			store, err := checkpoint.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			log, err := store.OpenLog("sweep")
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, _, err = RunParallelCheckpointed(ctx, g, tiny(), workers, &Checkpoint{
				Sink: &crashSink{log: log, cancel: cancel}, Every: 8,
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("crashed sweep returned %v, want context.Canceled", err)
			}
			log.Close()

			// The crash tore a half-written record onto the log's tail.
			f, err := os.OpenFile(store.Path("sweep"), os.O_WRONLY|os.O_APPEND, 0o600)
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte{0x20, 0x00, 0x00, 0x00, 0xbe, 0xef})
			f.Close()

			snap, err := store.ReadLast("sweep")
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
			pts, resumed, err := RunParallelCheckpointed(context.Background(), g, tiny(), workers, &Checkpoint{Resume: snap})
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if resumed != done {
				t.Errorf("resumed = %d, snapshot covered %d", resumed, done)
			}
			if !reflect.DeepEqual(pts, ref) {
				t.Fatal("resumed sweep diverged from uninterrupted reference")
			}
		})
	}
}

func TestSweepResumeRejectsWrongSweep(t *testing.T) {
	g := buildApp(t, "S2D", 0)
	sink := &memorySink{}
	if _, _, err := RunParallelCheckpointed(context.Background(), g, tiny(), 2, &Checkpoint{Sink: sink, Every: 8}); err != nil {
		t.Fatal(err)
	}
	snap := sink.last()
	if snap == nil {
		t.Fatal("no snapshot")
	}

	// A different workload graph: digest mismatch.
	other := buildApp(t, "FFT", 0)
	if _, _, err := RunParallelCheckpointed(context.Background(), other, tiny(), 2, &Checkpoint{Resume: snap}); !errors.Is(err, checkpoint.ErrSnapshotMismatch) {
		t.Errorf("resume on different workload = %v, want checkpoint.ErrSnapshotMismatch", err)
	}

	// A different grid: digest mismatch.
	p := tiny()
	p.Nodes = p.Nodes[:2]
	if _, _, err := RunParallelCheckpointed(context.Background(), g, p, 2, &Checkpoint{Resume: snap}); !errors.Is(err, checkpoint.ErrSnapshotMismatch) {
		t.Errorf("resume on different grid = %v, want checkpoint.ErrSnapshotMismatch", err)
	}

	trunc := snap[:len(snap)-5]
	if _, _, err := RunParallelCheckpointed(context.Background(), g, tiny(), 2, &Checkpoint{Resume: trunc}); !errors.Is(err, checkpoint.ErrSnapshotCorrupt) {
		t.Errorf("resume with truncated payload = %v, want checkpoint.ErrSnapshotCorrupt", err)
	}

	versioned := append([]byte(nil), snap...)
	versioned[0] = 0x7f
	if _, _, err := RunParallelCheckpointed(context.Background(), g, tiny(), 2, &Checkpoint{Resume: versioned}); !errors.Is(err, checkpoint.ErrSnapshotVersion) {
		t.Errorf("resume with alien version = %v, want checkpoint.ErrSnapshotVersion", err)
	}
}

func TestFig13CheckpointedMatchesFig13(t *testing.T) {
	g := buildApp(t, "S2D", 0)
	refRows, refBest, err := fig13(g, tiny(), 4)
	if err != nil {
		t.Fatal(err)
	}
	sink := &memorySink{}
	rows, best, resumed, err := fig13Checkpointed(context.Background(), g, tiny(), 4, &Checkpoint{Sink: sink, Every: 8})
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 0 {
		t.Errorf("cold Fig13 resumed = %d", resumed)
	}
	if !reflect.DeepEqual(rows, refRows) || !reflect.DeepEqual(best, refBest) {
		t.Fatal("checkpointed Fig13 diverged")
	}
	// And resumed from its own last snapshot.
	rows2, best2, _, err := fig13Checkpointed(context.Background(), g, tiny(), 4, &Checkpoint{Resume: sink.last()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows2, refRows) || !reflect.DeepEqual(best2, refBest) {
		t.Fatal("resumed Fig13 diverged")
	}
}

// TestSweepResumeAtEveryOffset: for every prefix length k of an
// uninterrupted run — chunk-aligned or not, empty or complete — a snapshot
// of the first k unique designs resumes to the uninterrupted sweep.
func TestSweepResumeAtEveryOffset(t *testing.T) {
	g := buildApp(t, "S2D", 0)
	ref, err := runParallel(g, tiny(), 3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	uniques := r.uniqueDesigns(tiny())
	results, err := r.simulateAll(uniques)
	if err != nil {
		t.Fatal(err)
	}
	digest := sweepDigest(r.c, uniques)
	for k := 0; k <= len(uniques); k++ {
		snap := encodeSweepSnapshot(digest, len(uniques), results, k)
		pts, resumed, err := RunParallelCheckpointed(context.Background(), g, tiny(), 3, &Checkpoint{Resume: snap})
		if err != nil {
			t.Fatalf("resume at %d: %v", k, err)
		}
		if resumed != k {
			t.Errorf("resume at %d: resumed = %d", k, resumed)
		}
		if !reflect.DeepEqual(pts, ref) {
			t.Fatalf("resume at %d diverged from the uninterrupted sweep", k)
		}
	}
}

// TestReadResultRejectsNonFinite checks the one Result record codec: a
// record round-trips bit for bit, and a NaN or infinity in any float
// position marks the reader bad.
func TestReadResultRejectsNonFinite(t *testing.T) {
	want := aladdin.Result{Cycles: -3, FusedOps: 9, RuntimeNS: 1.5, DynEnergy: math.Copysign(0, -1), LeakEnergy: 2,
		Energy: 3, Power: math.SmallestNonzeroFloat64, Area: math.MaxFloat64, Utilization: 0.25}
	w := checkpoint.NewWriter(0)
	PutResult(w, want)
	if len(w.Bytes()) != 8*ResultWords {
		t.Fatalf("record is %d bytes, want %d", len(w.Bytes()), 8*ResultWords)
	}
	r := checkpoint.NewReader(w.Bytes())
	if got := ReadResult(r); r.Bad() || math.Float64bits(got.DynEnergy) != math.Float64bits(want.DynEnergy) || got != want {
		t.Fatalf("round trip: got %+v (bad %v), want %+v", got, r.Bad(), want)
	}
	for word := 2; word < ResultWords; word++ {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			b := append([]byte(nil), w.Bytes()...)
			binary.LittleEndian.PutUint64(b[8*word:], math.Float64bits(v))
			r := checkpoint.NewReader(b)
			if ReadResult(r); !r.Bad() {
				t.Errorf("word %d = %v accepted", word, v)
			}
		}
	}
}
