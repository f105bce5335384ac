package main

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"accelwall/internal/search"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// TestDefaultOutputGolden pins what `accelwall` prints with the default
// seed: every paper experiment, the extensions, the JSON wire format,
// the default uncertainty run (text and JSON: the text rounds away a
// one-ulp change in a replicate), and the default search per strategy.
// Regenerate with `go test ./cmd/accelwall -run TestDefaultOutputGolden -update`.
func TestDefaultOutputGolden(t *testing.T) {
	cases := map[string][]string{
		"all":              {"all"},
		"ext":              {"ext"},
		"json-all":         {"-json", "all"},
		"uncertainty":      {"-uncertainty"},
		"json-uncertainty": {"-json", "-uncertainty"},
	}
	for _, s := range []search.Strategy{search.NSGA2, search.Halving} {
		cases["search-"+s.String()] = []string{"-search", "-workload", "FFT", "-strategy", s.String()}
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			out, err := capture(t, func() error { return run(context.Background(), args) })
			if err != nil {
				t.Fatalf("accelwall %s: %v", strings.Join(args, " "), err)
			}
			path := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if out == string(want) {
				return
			}
			got, exp := strings.Split(out, "\n"), strings.Split(string(want), "\n")
			for i := 0; ; i++ {
				if i >= len(got) || i >= len(exp) || got[i] != exp[i] {
					t.Fatalf("accelwall %s diverged from %s at line %d:\n got: %q\nwant: %q",
						strings.Join(args, " "), path, i+1, line(got, i), line(exp, i))
				}
			}
		})
	}
}

// line returns lines[i], or "" past the end.
func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
}
