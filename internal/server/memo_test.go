package server

import (
	"context"
	"errors"
	"expvar"
	"strings"
	"sync"
	"testing"
	"time"

	"accelwall/internal/leakcheck"
)

// testMemo is a memo with its own counters.
type testMemo struct {
	*memo[string, int]
	hits, loads, evicted expvar.Int
}

func newTestMemo(max int) *testMemo {
	m := &testMemo{}
	m.memo = newMemo[string, int](max, &m.hits, &m.loads, &m.evicted)
	return m
}

// constLoad loads v immediately.
func constLoad(v int) func(context.Context) (int, error) {
	return func(context.Context) (int, error) { return v, nil }
}

// mustGet gets k through a constant load of v.
func mustGet(t *testing.T, m *testMemo, k string, v int) {
	t.Helper()
	if _, err := m.get(context.Background(), k, constLoad(v)); err != nil {
		t.Fatalf("get(%s): %v", k, err)
	}
}

// gatedLoad loads v once release is closed, reporting its load context on
// started.
func gatedLoad(v int, started chan<- context.Context, release <-chan struct{}) func(context.Context) (int, error) {
	return func(ctx context.Context) (int, error) {
		started <- ctx
		<-release
		return v, nil
	}
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMemoSingleflight: concurrent gets for one cold key share one load
// and all see its value.
func TestMemoSingleflight(t *testing.T) {
	leakcheck.Check(t)
	m := newTestMemo(4)
	started := make(chan context.Context, 1)
	release := make(chan struct{})
	const n = 8
	var wg sync.WaitGroup
	vals := make([]int, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i] = m.get(context.Background(), "k", gatedLoad(42, started, release))
		}(i)
	}
	<-started
	waitFor(t, "every caller to join", func() bool { return m.hits.Value() == n-1 })
	close(release)
	wg.Wait()
	for i := range vals {
		if errs[i] != nil || vals[i] != 42 {
			t.Fatalf("caller %d got (%d, %v), want (42, nil)", i, vals[i], errs[i])
		}
	}
	if got := m.loads.Value(); got != 1 {
		t.Fatalf("loads = %d, want 1", got)
	}
}

// TestMemoLRUOrder: the bound evicts the least-recent completed entry,
// and peek counts as a use.
func TestMemoLRUOrder(t *testing.T) {
	m := newTestMemo(2)
	mustGet(t, m, "a", 1)
	mustGet(t, m, "b", 2)
	// Touch a: b becomes least recent.
	if v, ok := m.peek("a"); !ok || v != 1 {
		t.Fatalf("peek(a) = (%d, %v), want (1, true)", v, ok)
	}
	mustGet(t, m, "c", 3)
	if _, ok := m.peek("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := m.peek(k); !ok {
			t.Fatalf("recent entry %s evicted", k)
		}
	}
	if m.len() != 2 {
		t.Fatalf("len = %d, want 2", m.len())
	}
}

// TestMemoInFlightNeverEvicted: loads in flight hold their entries past
// the bound; the bound is restored as soon as one completes.
func TestMemoInFlightNeverEvicted(t *testing.T) {
	leakcheck.Check(t)
	m := newTestMemo(1)
	started := make(chan context.Context, 2)
	releaseA, releaseB := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	var a, b int
	wg.Add(2)
	go func() { defer wg.Done(); a, _ = m.get(context.Background(), "a", gatedLoad(1, started, releaseA)) }()
	<-started
	go func() { defer wg.Done(); b, _ = m.get(context.Background(), "b", gatedLoad(2, started, releaseB)) }()
	<-started

	if m.len() != 2 || m.evicted.Value() != 0 {
		t.Fatalf("with two loads in flight: len %d, evicted %d; want 2, 0", m.len(), m.evicted.Value())
	}
	close(releaseA)
	waitFor(t, "the bound to be restored", func() bool { return m.len() == 1 })
	if got := m.evicted.Value(); got != 1 {
		t.Fatalf("evicted = %d, want 1", got)
	}
	close(releaseB)
	wg.Wait()
	if a != 1 || b != 2 {
		t.Fatalf("waiters got a=%d b=%d, want 1 and 2", a, b)
	}
	if v, ok := m.peek("b"); !ok || v != 2 {
		t.Fatalf("peek(b) = (%d, %v), want (2, true)", v, ok)
	}
}

// TestMemoFailedLoadNotCached: an error reaches the caller, leaves nothing
// resident, and the next get loads again.
func TestMemoFailedLoadNotCached(t *testing.T) {
	m := newTestMemo(4)
	boom := errors.New("boom")
	if _, err := m.get(context.Background(), "k", func(context.Context) (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if m.len() != 0 {
		t.Fatalf("failed load left %d entries resident", m.len())
	}
	if v, err := m.get(context.Background(), "k", constLoad(7)); err != nil || v != 7 {
		t.Fatalf("reload = (%d, %v), want (7, nil)", v, err)
	}
	if got := m.loads.Value(); got != 2 {
		t.Fatalf("loads = %d, want 2", got)
	}
}

// TestMemoPutPeek: put stores a completed value that peek returns; peek
// never reports a missing key or an in-flight load.
func TestMemoPutPeek(t *testing.T) {
	leakcheck.Check(t)
	m := newTestMemo(4)
	m.put("k", 5)
	if v, ok := m.peek("k"); !ok || v != 5 {
		t.Fatalf("peek after put = (%d, %v), want (5, true)", v, ok)
	}
	m.put("k", 6)
	if v, _ := m.peek("k"); v != 6 || m.len() != 1 {
		t.Fatalf("re-put: value %d, len %d; want 6, 1", v, m.len())
	}
	if _, ok := m.peek("missing"); ok {
		t.Fatal("peek found a missing key")
	}

	started := make(chan context.Context, 1)
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.get(context.Background(), "slow", gatedLoad(1, started, release)) //nolint:errcheck
	}()
	<-started
	if _, ok := m.peek("slow"); ok {
		t.Fatal("peek returned an in-flight load")
	}
	close(release)
	<-done
	if m.hits.Value() != 0 || m.loads.Value() != 1 {
		t.Fatalf("put/peek moved counters: hits %d loads %d, want 0 and 1", m.hits.Value(), m.loads.Value())
	}
}

// TestMemoCounters: hits count gets that found an entry, loads count gets
// that started one, evicted counts bound evictions.
func TestMemoCounters(t *testing.T) {
	m := newTestMemo(1)
	mustGet(t, m, "a", 1)
	mustGet(t, m, "a", 1)
	mustGet(t, m, "a", 1)
	mustGet(t, m, "b", 2)
	mustGet(t, m, "a", 1)
	if h, l, e := m.hits.Value(), m.loads.Value(), m.evicted.Value(); h != 2 || l != 3 || e != 2 {
		t.Fatalf("hits/loads/evicted = %d/%d/%d, want 2/3/2", h, l, e)
	}
}

// TestMemoLastLeaverCancels: one waiter leaving does not cancel a shared
// load, the last one does, and the abandoned entry is detached.
func TestMemoLastLeaverCancels(t *testing.T) {
	leakcheck.Check(t)
	m := newTestMemo(4)
	started := make(chan context.Context, 1)
	load := func(ctx context.Context) (int, error) {
		started <- ctx
		<-ctx.Done()
		return 0, ctx.Err()
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	errs := make(chan error, 2)
	go func() { _, err := m.get(ctx1, "k", load); errs <- err }()
	loadCtx := <-started
	go func() { _, err := m.get(ctx2, "k", load); errs <- err }()
	waitFor(t, "the second caller to join", func() bool { return m.hits.Value() == 1 })

	cancel1()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("first leaver got %v, want context.Canceled", err)
	}
	waitFor(t, "the first caller to leave", func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		e, ok := m.entries["k"]
		return !ok || e.waiters == 1
	})
	if loadCtx.Err() != nil {
		t.Fatal("load cancelled while a waiter remained")
	}
	cancel2()
	<-errs
	select {
	case <-loadCtx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("load not cancelled after the last waiter left")
	}
	if m.len() != 0 {
		t.Fatalf("abandoned entry still resident (len %d)", m.len())
	}
}

// TestMemoPanickingLoad: a panic in a load becomes an error for every
// waiter, is not cached, and does not take the process down.
func TestMemoPanickingLoad(t *testing.T) {
	leakcheck.Check(t)
	m := newTestMemo(4)
	started := make(chan context.Context, 1)
	release := make(chan struct{})
	load := func(ctx context.Context) (int, error) {
		started <- ctx
		<-release
		panic("kaboom")
	}
	const n = 4
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() { _, err := m.get(context.Background(), "k", load); errs <- err }()
	}
	<-started
	waitFor(t, "every caller to join", func() bool { return m.hits.Value() == n-1 })
	close(release)
	for i := 0; i < n; i++ {
		if err := <-errs; err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("waiter got %v, want the panic as an error", err)
		}
	}
	if m.len() != 0 {
		t.Fatalf("panicked load left %d entries resident", m.len())
	}
	if v, err := m.get(context.Background(), "k", constLoad(3)); err != nil || v != 3 {
		t.Fatalf("reload after panic = (%d, %v), want (3, nil)", v, err)
	}
}
