package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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
