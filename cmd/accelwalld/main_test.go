package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestRunFlagErrors covers the fail-fast validation paths: bad flags must
// be rejected before any listener binds.
func TestRunFlagErrors(t *testing.T) {
	for name, tc := range map[string]struct {
		args []string
		want string
	}{
		"negative workers":          {[]string{"-workers=-1"}, "-workers must be >= 0"},
		"extra args":                {[]string{"serve", "now"}, "unexpected arguments"},
		"unknown flag":              {[]string{"-frobnicate"}, "flag provided but not defined"},
		"bad duration":              {[]string{"-timeout", "fast"}, "invalid value"},
		"orphan max-jobs":           {[]string{"-max-jobs", "8"}, "-max-jobs requires -jobs"},
		"removed hedge-delay":       {[]string{"-hedge-delay", "1s"}, "flag provided but not defined"},
		"removed breaker-threshold": {[]string{"-breaker-threshold", "3"}, "flag provided but not defined"},
		"removed watchdog-deadline": {[]string{"-watchdog-deadline", "1s"}, "flag provided but not defined"},
		"removed mem-budget":        {[]string{"-mem-budget", "1"}, "flag provided but not defined"},
	} {
		t.Run(name, func(t *testing.T) {
			err := run(context.Background(), tc.args, io.Discard)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) = %q, want substring %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestFlagTableMatchesUsage: the flag table in docs/API.md names exactly
// the flags the daemon defines, so a flag added or removed without its
// row fails here.
func TestFlagTableMatchesUsage(t *testing.T) {
	var usage bytes.Buffer
	if err := run(context.Background(), []string{"-h"}, &usage); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", err)
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "API.md"))
	if err != nil {
		t.Fatal(err)
	}
	section, _, _ := strings.Cut(string(doc), "**Graceful shutdown.**")
	_, table, _ := strings.Cut(section, "| Flag |")
	defined := flagNames(`(?m)^  (-[a-z-]+)`, usage.String())
	documented := flagNames("(?m)^\\| `(-[a-z-]+)`", table)
	if len(defined) == 0 || !slices.Equal(defined, documented) {
		t.Fatalf("docs/API.md flag table drifted from accelwalld -h:\n  -h:    %v\n  table: %v", defined, documented)
	}
}

// TestHelpExitsZero re-executes the test binary as the daemon with -h:
// asking for the usage is not an error, so it prints only the usage and
// exits 0.
func TestHelpExitsZero(t *testing.T) {
	if os.Getenv("ACCELWALLD_RUN_MAIN") == "1" {
		os.Args = []string{"accelwalld", "-h"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelpExitsZero$")
	cmd.Env = append(os.Environ(), "ACCELWALLD_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("accelwalld -h: %v\n%s", err, stderr.String())
	}
	if out := stderr.String(); !strings.Contains(out, "Usage of accelwalld") || strings.Contains(out, "help requested") {
		t.Fatalf("accelwalld -h printed more than the usage:\n%s", out)
	}
}

// flagNames returns the sorted first submatches of pattern in text.
func flagNames(pattern, text string) []string {
	var names []string
	for _, m := range regexp.MustCompile(pattern).FindAllStringSubmatch(text, -1) {
		names = append(names, m[1])
	}
	slices.Sort(names)
	return names
}

// TestRunBadJobsDir verifies an unusable -jobs path refuses to start the
// daemon with a clear error instead of failing minutes later on the first
// snapshot write.
func TestRunBadJobsDir(t *testing.T) {
	// A path under a regular file fails even for root (ENOTDIR).
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	err := run(context.Background(), []string{"-jobs", filepath.Join(blocker, "jobs")}, io.Discard)
	if err == nil {
		t.Fatal("run with unusable -jobs dir succeeded")
	}
	if !strings.Contains(err.Error(), "jobs directory") {
		t.Fatalf("run = %q, want mention of the jobs directory", err)
	}
}

// TestRunBadAddr verifies a listen failure surfaces as an error instead of
// hanging.
func TestRunBadAddr(t *testing.T) {
	err := run(context.Background(), []string{"-addr", "256.0.0.1:0"}, io.Discard)
	if err == nil {
		t.Fatal("run with bad addr succeeded")
	}
}

// TestRunServesAndShutsDown is the end-to-end smoke test: boot on an
// ephemeral port, answer a health probe and a model query, then shut down
// cleanly on context cancellation (the signal path main wires up).
func TestRunServesAndShutsDown(t *testing.T) {
	// Find a free port; a race with another process is possible but
	// vanishingly unlikely in CI.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", addr, "-published", "-quiet"}, io.Discard)
	}()

	base := "http://" + addr
	var resp *http.Response
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err = http.Get(base + "/healthz")
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}

	resp, err = http.Get(base + "/v1/cmos?node=7")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "node_nm") {
		t.Fatalf("cmos: %d %s", resp.StatusCode, body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v on graceful shutdown", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("run did not return after cancellation")
	}

	// The port must be released.
	if ln, err := net.Listen("tcp", addr); err != nil {
		t.Fatalf("port not released: %v", err)
	} else {
		ln.Close()
	}
}
