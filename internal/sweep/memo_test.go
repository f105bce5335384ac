package sweep

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"accelwall/internal/aladdin"
)

// distinctGrid is a 24,000-point grid whose node values no other offset
// shares, so consecutive offsets never overlap in the memo.
func distinctGrid(offset int) Params {
	p := Params{
		Partitions:      []int{1, 2, 4, 8},
		Simplifications: []int{1, 5},
		Fusion:          []bool{false, true},
	}
	for k := 0; k < 1500; k++ {
		p.Nodes = append(p.Nodes, 5+0.05*float64(k)+0.01*float64(offset))
	}
	return p
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestMemoBoundedAcrossGrids drives distinct grids through one engine
// past MaxMemoPoints: the memo resets when a run starts on a memo its
// points would overflow, so CachedPoints never exceeds the bound and live
// heap stops growing once the memo first fills.
func TestMemoBoundedAcrossGrids(t *testing.T) {
	eng, err := NewEngine(buildApp(t, "FFT", 0))
	if err != nil {
		t.Fatal(err)
	}
	const grids = 5
	var filled uint64
	for i := 0; i < grids; i++ {
		if _, err := eng.RunContext(context.Background(), distinctGrid(i), 2); err != nil {
			t.Fatal(err)
		}
		n, resets := eng.CachedPoints(), eng.MemoResets()
		if n > MaxMemoPoints {
			t.Fatalf("grid %d: %d memoized points, bound %d", i, n, MaxMemoPoints)
		}
		// 24,000 points per grid: the memo holds two grids, so every
		// second grid starts with a reset.
		if want := i / 2; resets != want {
			t.Errorf("grid %d: %d resets, want %d", i, resets, want)
		}
		if i == 1 {
			filled = liveHeap()
		}
	}
	if grown := int64(liveHeap()) - int64(filled); grown > 4<<20 {
		t.Errorf("live heap grew %d B over %d more grids with a full memo", grown, grids-2)
	}
	t.Logf("memo %d points, %d resets", eng.CachedPoints(), eng.MemoResets())
}

// TestMemoResetKeepsPrimedPoints: a scatter primes the memo past its
// bound, and the run that assembles the grid still reads the primed
// results — its reset comes after it copied them out.
func TestMemoResetKeepsPrimedPoints(t *testing.T) {
	eng, err := NewEngine(buildApp(t, "FFT", 0))
	if err != nil {
		t.Fatal(err)
	}
	filler := make([]aladdin.Design, MaxMemoPoints)
	for i := range filler {
		filler[i] = aladdin.Design{NodeNM: 5 + float64(i)*1e-3, Partition: 1, Simplification: 2} // off tiny's grid
	}
	if err := eng.Prime(filler, make([]aladdin.Result, len(filler))); err != nil {
		t.Fatal(err)
	}
	p := tiny()
	uniques, err := eng.UniqueDesigns(p)
	if err != nil {
		t.Fatal(err)
	}
	primed := make([]aladdin.Result, len(uniques))
	for i := range primed {
		primed[i].Cycles = 1_000_000 + i // no simulation yields these
	}
	if err := eng.Prime(uniques, primed); err != nil {
		t.Fatal(err)
	}
	pts, err := eng.RunContext(context.Background(), p, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		if pt.Result.Cycles < 1_000_000 {
			t.Fatalf("%+v was simulated, not read from its primed result", pt.Design)
		}
	}
	if eng.MemoResets() != 1 || eng.CachedPoints() != 0 {
		t.Errorf("after the assembly: %d resets, %d points; want 1 reset, 0 points", eng.MemoResets(), eng.CachedPoints())
	}
}

// TestPrivateEnginesShareCompiled runs concurrent full Table III sweeps
// on private engines and their parent, all over one shared
// *aladdin.Compiled: under -race this is the shared schedule-class and
// energy caches' thread-safety proof. Every run equals a cold engine's
// bit for bit, and the private runs leave the parent's memo alone.
func TestPrivateEnginesShareCompiled(t *testing.T) {
	g := buildApp(t, "S3D", 0)
	p := Default()
	cold, err := NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.RunContext(context.Background(), p, 1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	engines := []*Engine{base, base.Private(), base.Private(), base.Private()}
	got := make([][]Point, len(engines))
	errs := make([]error, len(engines))
	var wg sync.WaitGroup
	for i, eng := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = eng.RunContext(context.Background(), p, 2)
		}()
	}
	wg.Wait()
	for i := range engines {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if len(got[i]) != len(want) {
			t.Fatalf("engine %d: %d points, want %d", i, len(got[i]), len(want))
		}
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("engine %d point %d:\ngot  %+v\nwant %+v", i, j, got[i][j], want[j])
			}
		}
		if n := engines[i].CachedPoints(); n != cold.CachedPoints() {
			t.Errorf("engine %d memoized %d points, want its own grid's %d", i, n, cold.CachedPoints())
		}
	}
}
