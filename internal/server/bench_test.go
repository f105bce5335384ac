package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// BenchmarkSweepWarm measures a served sweep once the engine is resident
// and the grid memoized — the daemon's steady state — over one warmed
// server: "serial" from one client, "parallel" from RunParallel's
// GOMAXPROCS clients. scripts/bench.sh records both in BENCH_server.json.
func BenchmarkSweepWarm(b *testing.B) {
	s, err := New(Options{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post := func() error {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(`{"workload": "FFT", "preset": "reduced"}`))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}
	// Warm: compile + simulate the grid once.
	if err := post(); err != nil {
		b.Fatal(err)
	}

	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := post(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := post(); err != nil {
					b.Error(err) // not Fatal: this is not the benchmark's goroutine
					return
				}
			}
		})
	})
	if got := s.metrics.Compiles.Value(); got != 1 {
		b.Fatalf("compiles = %d during steady state, want 1", got)
	}
}

// BenchmarkCaseStudy measures a stateless analytical endpoint.
func BenchmarkCaseStudy(b *testing.B) {
	s, err := New(Options{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(ts.URL + "/v1/casestudy/bitcoin")
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// BenchmarkJobRoundTrip is one durable job from submit to done through the
// handler: POST /v1/jobs, then GET /v1/jobs/{id} until the job reads done.
// The bodies are the durable perfbench stream's. A first job warms the
// server, so an op is what a repeat job costs: its run on a private memo
// over the resident compiled graph (sweep and search), its fsynced
// snapshot and terminal records, and the polls.
func BenchmarkJobRoundTrip(b *testing.B) {
	for _, c := range []struct{ name, body string }{
		{"sweep", `{"kind": "sweep", "checkpoint_every": 64, "sweep": {"workload": "FFT", "preset": "reduced"}}`},
		{"search", `{"kind": "search", "checkpoint_every": 2, "search": {"workload": "FFT", "population": 24, "generations": 8, "seed": 5}}`},
		{"uncertainty", `{"kind": "uncertainty", "checkpoint_every": 4, "uncertainty": {"replicates": 10, "seed": 5}}`},
	} {
		b.Run(c.name, func(b *testing.B) {
			s, err := New(Options{JobsDir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			h := s.Handler()
			serve := func(method, path, body string) (int, []byte) {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
				return rec.Code, rec.Body.Bytes()
			}
			roundTrip := func() {
				status, resp := serve(http.MethodPost, "/v1/jobs", c.body)
				var j jobJSON
				if status != http.StatusAccepted || json.Unmarshal(resp, &j) != nil {
					b.Fatalf("submit: %d %s", status, resp)
				}
				for j.State != jobDone {
					if j.State == jobFailed {
						b.Fatalf("job failed: %+v", j)
					}
					time.Sleep(50 * time.Microsecond)
					status, resp = serve(http.MethodGet, "/v1/jobs/"+j.ID, "")
					if status != http.StatusOK || json.Unmarshal(resp, &j) != nil {
						b.Fatalf("poll: %d %s", status, resp)
					}
				}
			}
			roundTrip()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				roundTrip()
			}
		})
	}
}
