package faultinject

import (
	"errors"
	"sync"
	"time"
)

// ErrPartitioned is the sentinel wrapped by transport drops, so chaos
// suites can assert errors.Is(err, faultinject.ErrPartitioned).
var ErrPartitioned = errors.New("faultinject: frame dropped by partition rule")

// TransportOp is what a transport seam does to one outgoing frame.
// The zero value delivers the frame untouched.
type TransportOp struct {
	// Drop discards the frame: the sender sees a connection-level
	// failure (feeding the failure detector) and the
	// receiver never sees the frame.
	Drop bool
	// Delay sleeps before the frame is sent (applies even when the
	// frame is then dropped, modeling a slow-then-dead link).
	Delay time.Duration
	// Duplicate delivers the frame twice; the duplicate's response is
	// discarded. Exercises receiver idempotency.
	Duplicate bool
}

// TransportRule decides the fate of attempt n (1-based) on a directed
// link. The link is "src->dst" with both ends' advertised URLs, so
// asymmetric partitions (A cannot reach B, B reaches A fine) are
// expressible. Rules must be pure functions of (link, n) to keep chaos
// runs deterministic.
type TransportRule func(link string, n uint64) TransportOp

// transportState is one armed transport rule plus its per-link attempt
// counters.
type transportState struct {
	rule TransportRule
	mu   sync.Mutex
	n    map[string]uint64 // link -> attempts observed
}

// SetTransport arms (or re-arms) a transport rule at a site. Attempt
// counters restart from 1 when a site is re-armed.
func (inj *Injector) SetTransport(site string, rule TransportRule) *Injector {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.transports == nil {
		inj.transports = make(map[string]*transportState)
	}
	inj.transports[site] = &transportState{rule: rule, n: make(map[string]uint64)}
	return inj
}

// TransportAttempts reports how many frames the site has seen for a
// directed link under this injector.
func (inj *Injector) TransportAttempts(site, link string) uint64 {
	inj.mu.Lock()
	st := inj.transports[site]
	inj.mu.Unlock()
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.n[link]
}

// transport evaluates one frame send.
func (inj *Injector) transport(site, link string) TransportOp {
	inj.mu.Lock()
	st := inj.transports[site]
	inj.mu.Unlock()
	if st == nil {
		return TransportOp{}
	}
	st.mu.Lock()
	st.n[link]++
	n := st.n[link]
	st.mu.Unlock()
	return st.rule(link, n)
}

// Transport is the production seam on a frame send: a no-op (one
// atomic load) unless an injector with a rule at this site is enabled.
// Callers apply the returned op themselves — sleep Delay, fail on
// Drop, resend on Duplicate — because only the caller knows what a
// "send" is.
func Transport(site, link string) TransportOp {
	inj := active.Load()
	if inj == nil {
		return TransportOp{}
	}
	return inj.transport(site, link)
}
