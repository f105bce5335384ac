package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"accelwall/internal/resources"
)

// BenchmarkSweepWarm measures a served sweep once the engine is resident
// and the grid memoized — the daemon's steady state — over one warmed
// server: "serial" from one client, "parallel" from RunParallel's
// GOMAXPROCS clients. scripts/bench.sh records both in BENCH_server.json
// and divides BenchmarkResources/ledger by "serial" in BENCH_resources.json.
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

// BenchmarkResources quantifies the admission layer's price: "ledger" is
// one cost-estimate + TryReserve/release round trip on the shared byte
// budget — the only work memory-budgeted admission adds to a costed
// request. scripts/bench.sh divides it by BenchmarkSweepWarm/serial, the
// request it rides on, in BENCH_resources.json.
func BenchmarkResources(b *testing.B) {
	b.Run("ledger", func(b *testing.B) {
		s, err := New(Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cost := resources.SweepCost(1056, 32)
			release, ok := s.budget.TryReserve(cost)
			if !ok {
				b.Fatal("reserve refused on an idle budget")
			}
			release()
		}
	})
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
