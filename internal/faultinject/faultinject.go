// Package faultinject is a seams-based fault injector for chaos-testing
// the worker pools of the compute engines. Production code declares named
// injection sites (Register) and calls Hit at each one; by default Hit is
// a single atomic load returning nil, so the seams cost nothing in
// normal operation. A chaos test builds an Injector with a seed and a
// per-site Rule, installs it with Enable, and the selected sites start
// returning errors, sleeping, or panicking on a deterministic subset of
// their hits.
//
// Determinism: whether hit number n at a site fires is a pure function of
// (seed, site, n) — a SplitMix64-style hash compared against the rule's
// probability — so a chaos run is reproducible given the same per-site
// hit ordering, and the *number* of faults injected for a given hit count
// never depends on goroutine scheduling.
package faultinject

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"accelwall/internal/mix"
)

// Mode selects what a firing site does.
type Mode int

const (
	// ModeError makes Hit return an injected error.
	ModeError Mode = iota
	// ModePanic makes Hit panic.
	ModePanic
	// ModeDelay makes Hit sleep for Rule.Delay, then return nil.
	ModeDelay
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModePanic:
		return "panic"
	case ModeDelay:
		return "delay"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ErrInjected is the sentinel wrapped by every ModeError fault, so tests
// can assert errors.Is(err, faultinject.ErrInjected).
var ErrInjected = errors.New("faultinject: injected fault")

// Rule arms one site. A zero P with a zero Every never fires.
type Rule struct {
	Mode Mode
	// P is the per-hit firing probability in [0, 1], decided by a
	// deterministic hash of (seed, site, hit index).
	P float64
	// Every, when > 0, fires on every Every-th hit (1-based: hits
	// Every, 2*Every, ...) instead of probabilistically. It takes
	// precedence over P.
	Every uint64
	// Delay is the sleep of ModeDelay.
	Delay time.Duration
	// Err, when non-nil, is wrapped into the error a firing ModeError
	// site returns, so chaos suites can model a specific failure —
	// syscall.ENOSPC for a full disk, syscall.EIO for a dying one — and
	// production errors.Is checks see exactly what the real syscall
	// would have produced. ErrInjected is still wrapped alongside it.
	Err error
}

// siteState is the armed rule plus its hit/fire counters.
type siteState struct {
	rule  Rule
	hits  atomic.Uint64
	fired atomic.Uint64
}

// Injector is one armed fault plan. It is safe for concurrent Hit calls
// once installed.
type Injector struct {
	seed       uint64
	mu         sync.Mutex
	sites      map[string]*siteState
	transports map[string]*transportState
}

// New returns an empty injector deriving all firing decisions from seed.
func New(seed int64) *Injector {
	return &Injector{seed: uint64(seed), sites: make(map[string]*siteState)}
}

// Set arms (or re-arms) a rule at a site. Unknown sites are accepted: the
// registry only aids discovery, it does not gate injection.
func (inj *Injector) Set(site string, r Rule) *Injector {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.sites[site] = &siteState{rule: r}
	return inj
}

// Fired reports how many times the site has fired under this injector.
func (inj *Injector) Fired(site string) uint64 {
	inj.mu.Lock()
	st := inj.sites[site]
	inj.mu.Unlock()
	if st == nil {
		return 0
	}
	return st.fired.Load()
}

// Hits reports how many times the site has been reached.
func (inj *Injector) Hits(site string) uint64 {
	inj.mu.Lock()
	st := inj.sites[site]
	inj.mu.Unlock()
	if st == nil {
		return 0
	}
	return st.hits.Load()
}

// hit evaluates one arrival at a site.
func (inj *Injector) hit(site string) error {
	inj.mu.Lock()
	st := inj.sites[site]
	inj.mu.Unlock()
	if st == nil {
		return nil
	}
	n := st.hits.Add(1)
	r := st.rule
	fire := false
	switch {
	case r.Every > 0:
		fire = n%r.Every == 0
	case r.P > 0:
		x := mix.Mix64(inj.seed ^ mix.Mix64(mix.FNV1a(site)+n))
		fire = float64(x>>11)/(1<<53) < r.P
	}
	if !fire {
		return nil
	}
	st.fired.Add(1)
	switch r.Mode {
	case ModePanic:
		panic(fmt.Sprintf("faultinject: injected panic at %s (hit %d)", site, n))
	case ModeDelay:
		time.Sleep(r.Delay)
		return nil
	default:
		if r.Err != nil {
			return fmt.Errorf("%w at %s (hit %d): %w", ErrInjected, site, n, r.Err)
		}
		return fmt.Errorf("%w at %s (hit %d)", ErrInjected, site, n)
	}
}

// active is the installed injector; nil means every Hit is a no-op.
var active atomic.Pointer[Injector]

// Enable installs inj as the process-wide injector. Tests must pair it
// with Disable (typically via t.Cleanup / defer).
func Enable(inj *Injector) { active.Store(inj) }

// Disable removes any installed injector.
func Disable() { active.Store(nil) }

// Hit is the production seam: a no-op (one atomic load) unless an
// injector is enabled and armed at this site. It may return an injected
// error, sleep, or panic, according to the armed rule.
func Hit(site string) error {
	inj := active.Load()
	if inj == nil {
		return nil
	}
	return inj.hit(site)
}

// registry tracks every site the production code has declared, so chaos
// suites can iterate "every registered seam" without hard-coding names.
var registry sync.Map // site string -> struct{}

// Register declares an injection site and returns its name, so packages
// can write `var site = faultinject.Register("pkg.site")`.
func Register(site string) string {
	registry.Store(site, struct{}{})
	return site
}

// Sites returns every registered site, sorted.
func Sites() []string {
	var out []string
	registry.Range(func(k, _ any) bool {
		out = append(out, k.(string))
		return true
	})
	sort.Strings(out)
	return out
}
