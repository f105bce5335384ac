package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share req; the
// op's root span has parent -1.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Req    int     `json:"req"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	N      int     `json:"n,omitempty"` // work units: points, designs, bytes
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced replay runs the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0)) / 1e6 }

// begin opens a span and returns its id (-1 when untraced).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: t.now(), End: -1})
	return id
}

// end closes span id, recording n work units.
func (t *tracer) end(id, n int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = t.now()
	t.spans[id].N = n
}

// add records an already-timed span, for calls measured outside the
// tracer such as the in-process handler replay.
func (t *tracer) add(name string, parent, req int, start time.Time, d time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	s := float64(start.Sub(t.t0)) / 1e6
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: s, End: s + float64(d)/1e6})
	return id
}

// selfTimes returns each span's duration minus its children's.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// spanSummary aggregates spans by name.
type spanSummary struct {
	Count   int      `json:"count"`
	TotalMS float64  `json:"total_ms"`
	SelfMS  float64  `json:"self_ms"`
	Parents []string `json:"parents"`
}

func summarize(spans []span) map[string]*spanSummary {
	self := selfTimes(spans)
	out := make(map[string]*spanSummary)
	for i, s := range spans {
		sum := out[s.Name]
		if sum == nil {
			sum = &spanSummary{}
			out[s.Name] = sum
		}
		sum.Count++
		sum.TotalMS += s.dur()
		sum.SelfMS += self[i]
		parent := "-"
		if s.Parent >= 0 {
			parent = spans[s.Parent].Name
		}
		if !contains(sum.Parents, parent) {
			sum.Parents = append(sum.Parents, parent)
			sort.Strings(sum.Parents)
		}
	}
	return out
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// writeTrace writes the spans, their per-name summary and the per-layer
// metrics to path.
func writeTrace(path string, spans []span, metrics map[string]float64) error {
	b, err := json.MarshalIndent(map[string]any{
		"metrics": metrics,
		"summary": summarize(spans),
		"spans":   spans,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
