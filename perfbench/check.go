package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"reflect"
)

// checker collects replies during a run and verifies them afterwards,
// outside the timed region, against the in-process layer replay. A
// repeated op whose reply bytes repeat too is verified once.
type checker struct {
	ops     []*op            // distinct ops in first-seen order
	bodies  map[*op][][]byte // distinct 200/202-path bodies per op
	counts  map[*op][]int    // replies per distinct body
	bad     int              // transport errors and wrong statuses
	total   int
	reports int
}

func newChecker() *checker {
	return &checker{bodies: make(map[*op][][]byte), counts: make(map[*op][]int)}
}

// add records one reply; it reports whether the reply was well formed.
func (c *checker) add(o *op, r reply) bool {
	c.total++
	if r.err != nil || r.status != http.StatusOK {
		c.bad++
		c.report("%s %s: status %d, err %v: %.200s", o.method, o.path, r.status, r.err, r.body)
		return false
	}
	if _, seen := c.bodies[o]; !seen {
		c.ops = append(c.ops, o)
	}
	for i, b := range c.bodies[o] {
		if bytes.Equal(b, r.body) {
			c.counts[o][i]++
			return true
		}
	}
	c.bodies[o] = append(c.bodies[o], r.body)
	c.counts[o] = append(c.counts[o], 1)
	return true
}

func (c *checker) report(format string, args ...any) {
	if c.reports < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
	c.reports++
}

// verify replays every distinct op through l and returns how many
// replies were wrong, transport failures included.
func (c *checker) verify(l *layers) int {
	failed := c.bad
	for i, o := range c.ops {
		want, err := l.run(o, i)
		for j, got := range c.bodies[o] {
			if err == nil {
				err = sameAnswer(o, want, got)
			}
			if err != nil {
				failed += c.counts[o][j]
				c.report("%s %s %.120s: %v", o.method, o.path, o.body, err)
			}
		}
	}
	return failed
}

// sameAnswer compares a reply with the reference as decoded JSON,
// ignoring cached_points, which depends on the engine's history. A job
// reply must be done and carry the reference as its result.
func sameAnswer(o *op, want, got []byte) error {
	if o.job != nil {
		var j struct {
			State  string
			Result json.RawMessage
		}
		if err := json.Unmarshal(got, &j); err != nil {
			return err
		}
		if j.State != "done" {
			return fmt.Errorf("job state %q", j.State)
		}
		got = j.Result
	}
	var w, g any
	if err := json.Unmarshal(want, &w); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if err := json.Unmarshal(got, &g); err != nil {
		return fmt.Errorf("reply: %w", err)
	}
	for _, m := range []any{w, g} {
		if obj, ok := m.(map[string]any); ok {
			delete(obj, "cached_points")
		}
	}
	if !reflect.DeepEqual(w, g) {
		return fmt.Errorf("reply differs from the in-process reference")
	}
	return nil
}
