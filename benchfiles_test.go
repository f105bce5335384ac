package accelwall_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// benchFunc matches a benchmark function declaration in a _test.go file.
var benchFunc = regexp.MustCompile(`(?m)^func (Benchmark\w+)\(b \*testing\.B\)`)

// TestBenchFilesShareSchema pins the one schema scripts/bench.sh writes to
// every committed BENCH_*.json file, and checks that every row still names
// a benchmark function in its layer's package, so a renamed or deleted
// benchmark cannot leave a stale baseline behind.
func TestBenchFilesShareSchema(t *testing.T) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no BENCH_*.json files (err %v)", err)
	}
	benchmarks := map[string][]string{} // package dir -> its Benchmark funcs
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var doc any
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Errorf("%s: %v", file, err)
			continue
		}
		top := object(t, file, doc, "description", "command", "host", "date", "benchmarks", "ratios")
		if top == nil {
			continue
		}
		for _, k := range []string{"description", "command", "date"} {
			if s, _ := top[k].(string); s == "" {
				t.Errorf("%s: %s is not a non-empty string", file, k)
			}
		}
		host := object(t, file+" host", top["host"], "cpu", "cpus", "goos", "goarch", "go")
		number(t, file+" host", host, "cpus")

		rows, _ := top["benchmarks"].([]any)
		if len(rows) == 0 {
			t.Errorf("%s: no benchmark rows", file)
		}
		names := map[string]bool{}
		for i, r := range rows {
			where := fmt.Sprintf("%s benchmarks[%d]", file, i)
			row := object(t, where, r, "name", "layer", "iterations", "ns_op", "bytes_op", "allocs_op", "metrics")
			if row == nil {
				continue
			}
			number(t, where, row, "iterations", "ns_op", "bytes_op", "allocs_op")
			metrics, ok := row["metrics"].(map[string]any)
			if !ok {
				t.Errorf("%s: metrics is not an object", where)
			}
			for unit := range metrics {
				number(t, where+" metrics", metrics, unit)
			}
			name, _ := row["name"].(string)
			layer, _ := row["layer"].(string)
			names[name] = true
			dir := "."
			if layer != "accelwall" {
				dir = strings.TrimPrefix(layer, "accelwall/")
			}
			if _, ok := benchmarks[dir]; !ok {
				benchmarks[dir] = benchFuncs(t, dir)
			}
			if fn, _, _ := strings.Cut(name, "/"); !slices.Contains(benchmarks[dir], fn) {
				t.Errorf("%s: %q names no func %s in %s (layer %q)", where, name, fn, dir, layer)
			}
		}

		ratios, ok := top["ratios"].([]any)
		if !ok {
			t.Errorf("%s: ratios is not an array", file)
		}
		for i, r := range ratios {
			where := fmt.Sprintf("%s ratios[%d]", file, i)
			ratio := object(t, where, r, "name", "numerator", "denominator", "value")
			number(t, where, ratio, "value")
			for _, k := range []string{"numerator", "denominator"} {
				if s, _ := ratio[k].(string); !names[s] {
					t.Errorf("%s: %s %q is not a row of %s", where, k, ratio[k], file)
				}
			}
		}
	}
}

// object reports v unless it is a JSON object with exactly the given keys.
func object(t *testing.T, where string, v any, keys ...string) map[string]any {
	t.Helper()
	obj, ok := v.(map[string]any)
	if !ok {
		t.Errorf("%s: not an object", where)
		return nil
	}
	got := make([]string, 0, len(obj))
	for k := range obj {
		got = append(got, k)
	}
	sort.Strings(got)
	want := slices.Clone(keys)
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Errorf("%s: keys %v, want %v", where, got, want)
	}
	return obj
}

// number reports each key of obj whose value is not a JSON number.
func number(t *testing.T, where string, obj map[string]any, keys ...string) {
	t.Helper()
	for _, k := range keys {
		if _, ok := obj[k].(float64); !ok {
			t.Errorf("%s: %s = %v, want a number", where, k, obj[k])
		}
	}
}

// benchFuncs lists the Benchmark functions declared in dir's test files.
func benchFuncs(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range benchFunc.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
	}
	return names
}
