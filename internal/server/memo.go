package server

import (
	"container/list"
	"context"
	"expvar"
	"fmt"
	"sync"
)

// memoBound caps every memo but the engine one (which -cache sizes):
// fitted studies, Monte Carlo runs, search frontiers, and marshaled sweep
// bodies. Their keys come from request bodies, so each needs a bound.
const memoBound = 64

// memo is the server's one result cache: a bounded LRU with singleflight
// loads. Concurrent gets for a cold key share one load, which runs in its
// own goroutine on a context cancelled only when the last waiting caller
// has gone away — one impatient client cannot kill a load others still
// wait on, but a load every client abandoned stops promptly. Failed,
// abandoned and panicking loads are never cached, and only completed
// entries are evicted: an in-flight load's waiters hold its entry, so the
// bound is restored when it completes instead.
type memo[K comparable, V any] struct {
	mu      sync.Mutex
	max     int
	entries map[K]*memoEntry[K, V]
	lru     *list.List // front = most recent; values are *memoEntry[K, V]

	// hits counts gets that found an entry, in flight or complete; loads
	// counts gets that started one; evicted counts bound evictions. Any
	// may be nil.
	hits, loads, evicted *expvar.Int
}

type memoEntry[K comparable, V any] struct {
	key   K
	elem  *list.Element
	ready chan struct{} // closed once val/err are set; nil for put entries

	// Guarded by memo.mu.
	val     V
	err     error
	done    bool
	waiters int
	cancel  context.CancelFunc // cancels the load's context
}

// newMemo builds a memo of at most max entries.
func newMemo[K comparable, V any](max int, hits, loads, evicted *expvar.Int) *memo[K, V] {
	return &memo[K, V]{
		max:     max,
		entries: make(map[K]*memoEntry[K, V]),
		lru:     list.New(),
		hits:    hits,
		loads:   loads,
		evicted: evicted,
	}
}

func count(c *expvar.Int) {
	if c != nil {
		c.Add(1)
	}
}

// get returns the value for k, calling load at most once per residency no
// matter how many goroutines ask concurrently. ctx bounds only this
// caller's wait; load receives a context that ends when every waiter has
// left.
func (m *memo[K, V]) get(ctx context.Context, k K, load func(context.Context) (V, error)) (V, error) {
	m.mu.Lock()
	if e, ok := m.entries[k]; ok {
		m.lru.MoveToFront(e.elem)
		count(m.hits)
		if e.done {
			m.mu.Unlock()
			return e.val, nil // resident complete entries never hold an error
		}
		e.waiters++
		m.mu.Unlock()
		return m.await(ctx, e)
	}
	loadCtx, cancel := context.WithCancel(context.Background())
	e := &memoEntry[K, V]{key: k, ready: make(chan struct{}), waiters: 1, cancel: cancel}
	e.elem = m.lru.PushFront(e)
	m.entries[k] = e
	m.evict()
	m.mu.Unlock()

	count(m.loads)
	go m.run(loadCtx, e, load)
	return m.await(ctx, e)
}

// run executes one load and publishes its outcome: a success stays
// resident (and may restore the bound), anything else leaves the memo.
func (m *memo[K, V]) run(ctx context.Context, e *memoEntry[K, V], load func(context.Context) (V, error)) {
	val, err := safeLoad(ctx, load)
	m.mu.Lock()
	e.val, e.err, e.done = val, err, true
	if m.resident(e) {
		if err != nil {
			m.remove(e)
		} else {
			m.evict()
		}
	}
	m.mu.Unlock()
	e.cancel()
	close(e.ready)
}

// safeLoad turns a panicking load into an error. Loads run off the
// request goroutine, outside the middleware's recovery, so an escaped
// panic would crash the process.
func safeLoad[V any](ctx context.Context, load func(context.Context) (V, error)) (val V, err error) {
	defer func() {
		if p := recover(); p != nil {
			var zero V
			val, err = zero, fmt.Errorf("load panicked: %v", p)
		}
	}()
	return load(ctx)
}

// await blocks until e's load finishes or ctx ends, holding one waiter
// stake in e meanwhile.
func (m *memo[K, V]) await(ctx context.Context, e *memoEntry[K, V]) (V, error) {
	stop := context.AfterFunc(ctx, func() { m.leave(e) })
	select {
	case <-e.ready:
		stop()
		return e.val, e.err
	case <-ctx.Done():
		// leave runs (or ran) via AfterFunc.
		var zero V
		return zero, ctx.Err()
	}
}

// leave withdraws one waiter; the last to leave an unfinished load
// cancels it and detaches its entry, so the next get starts afresh.
func (m *memo[K, V]) leave(e *memoEntry[K, V]) {
	m.mu.Lock()
	e.waiters--
	abandon := e.waiters == 0 && !e.done
	if abandon && m.resident(e) {
		m.remove(e)
	}
	m.mu.Unlock()
	if abandon {
		e.cancel()
	}
}

// peek returns a completed value without joining, loading, or counting.
// It is how the sweep response cache's warm path (sweepRequest.serve)
// reads the bodies put stores; that cache never loads. It does refresh
// k's LRU position.
func (m *memo[K, V]) peek(k K) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[k]
	if !ok || !e.done {
		var zero V
		return zero, false
	}
	m.lru.MoveToFront(e.elem)
	return e.val, true
}

// put stores a completed value, replacing any entry for k.
func (m *memo[K, V]) put(k K, v V) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.entries[k]; ok {
		m.remove(old)
	}
	e := &memoEntry[K, V]{key: k, val: v, done: true}
	e.elem = m.lru.PushFront(e)
	m.entries[k] = e
	m.evict()
}

// len reports resident entries, in-flight loads included.
func (m *memo[K, V]) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// each calls fn on every completed entry, outside the lock: a metrics
// scrape must never block on a load or hold up the memo.
func (m *memo[K, V]) each(fn func(K, V)) {
	m.mu.Lock()
	done := make([]*memoEntry[K, V], 0, len(m.entries))
	for _, e := range m.entries {
		if e.done {
			done = append(done, e)
		}
	}
	m.mu.Unlock()
	for _, e := range done {
		fn(e.key, e.val)
	}
}

// resident reports whether e is still the entry for its key. Callers hold
// m.mu.
func (m *memo[K, V]) resident(e *memoEntry[K, V]) bool {
	cur, ok := m.entries[e.key]
	return ok && cur == e
}

// remove detaches e. Callers hold m.mu.
func (m *memo[K, V]) remove(e *memoEntry[K, V]) {
	m.lru.Remove(e.elem)
	delete(m.entries, e.key)
}

// evict drops least-recent completed entries until the bound holds,
// skipping in-flight loads. Callers hold m.mu.
func (m *memo[K, V]) evict() {
	for el := m.lru.Back(); el != nil && m.lru.Len() > m.max; {
		prev := el.Prev()
		if e := el.Value.(*memoEntry[K, V]); e.done {
			m.remove(e)
			count(m.evicted)
		}
		el = prev
	}
}
