package server

import (
	"context"
	"math"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"
)

// statusClientClosedRequest is the non-standard (nginx-originated) status
// for "the client went away before we could answer". It never reaches a
// live client — by definition nobody is reading — but it keeps access
// logs and metrics truthful about why the request produced no 2xx.
const statusClientClosedRequest = 499

// routeCtxKey carries the registration pattern through the middleware
// chain so deep handlers can attribute shed/cancel metrics per route.
type routeCtxKey struct{}

// routeOf extracts the route pattern stored by instrument; empty if the
// request bypassed it (direct handler tests).
func routeOf(ctx context.Context) string {
	s, _ := ctx.Value(routeCtxKey{}).(string)
	return s
}

// statusWriter captures the response status for logging and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap lets http.NewResponseController reach the underlying writer's
// Flush, which the SSE job-progress stream depends on.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument is the outermost middleware: panic recovery, in-flight
// gauge, access logging, and per-route metrics. route is the registration
// pattern, recorded verbatim so /v1/metrics aggregates by endpoint rather
// than by raw URL; it is also stowed in the request context for the
// admission layer and handlers below.
func (s *Server) instrument(route string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := context.WithValue(r.Context(), routeCtxKey{}, route)
		if s.opts.MaxBodyBytes > 0 {
			ctx = context.WithValue(ctx, bodyLimitCtxKey{}, s.opts.MaxBodyBytes)
		}
		r = r.WithContext(ctx)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		s.metrics.InFlight.Add(1)
		defer func() {
			s.metrics.InFlight.Add(-1)
			if v := recover(); v != nil {
				s.metrics.Panics.Add(1)
				s.logf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
				if sw.status == 0 {
					writeError(sw, http.StatusInternalServerError, "internal error")
				}
			}
			d := time.Since(start)
			s.metrics.Observe(route, sw.status, d)
			s.logf("%s %s %d %s", r.Method, r.URL.Path, sw.status, d.Round(time.Microsecond))
		}()
		h.ServeHTTP(sw, r)
	})
}

// retrySeconds renders a Retry-After value: whole seconds, rounded up,
// at least 1.
func retrySeconds(d time.Duration) string {
	sec := int(math.Ceil(d.Seconds()))
	if sec < 1 {
		sec = 1
	}
	return strconv.Itoa(sec)
}

// limit applies the heavy-endpoint overload policy. Outermost, a hard
// request timeout (http.TimeoutHandler) puts a deadline on the request
// context; inside it, the admission controller either grants an
// execution slot, sheds the request (429 when its deadline cannot
// survive the expected queue wait, 503 when the wait queue itself is
// full — both with Retry-After), or observes the client abandoning the
// queue. The deadline also propagates into the engines via the request
// context, so a request that times out stops computing within one chunk
// instead of burning its worker pool to completion.
func (s *Server) limit(route string, h http.Handler) http.Handler {
	limited := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		v := s.adm.admit(r.Context())
		switch v.kind {
		case admitOK:
			start := time.Now()
			defer func() { s.adm.release(time.Since(start)) }()
			h.ServeHTTP(w, r)
		case admitShedDeadline:
			s.metrics.Shed(route, http.StatusTooManyRequests)
			w.Header().Set("Retry-After", retrySeconds(v.retryAfter))
			writeError(w, http.StatusTooManyRequests,
				"expected queue wait %s exceeds the request deadline; retry after %ss",
				v.retryAfter.Round(time.Millisecond), retrySeconds(v.retryAfter))
		case admitShedSaturated:
			s.metrics.Shed(route, http.StatusServiceUnavailable)
			w.Header().Set("Retry-After", retrySeconds(v.retryAfter))
			writeError(w, http.StatusServiceUnavailable,
				"server saturated: admission queue full; retry after %ss", retrySeconds(v.retryAfter))
		case admitAbandoned:
			s.metrics.Cancel(route)
			writeError(w, statusClientClosedRequest, "client abandoned request while queued")
		}
	})
	if s.opts.RequestTimeout <= 0 {
		return limited
	}
	return http.TimeoutHandler(limited, s.opts.RequestTimeout,
		`{"error":{"code":503,"message":"request timed out"}}`)
}

// logf writes to the configured logger; a nil logger silences access logs
// (the test suite) while errors still surface in responses.
func (s *Server) logf(format string, args ...any) {
	if s.opts.Logger != nil {
		s.opts.Logger.Printf(format, args...)
	}
}
