package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

const resourcesGridBody = `{"workload": "FFT", "objective": "efficiency",
	"grid": {"nodes": [45, 32], "partitions": [1, 2], "simplifications": [1], "fusion": [false]}}`

// TestMaxBodyLimit: a request body past -max-body is cut off with the
// named 413 before any decode work, while a normal body still serves.
func TestMaxBodyLimit(t *testing.T) {
	s := newTestServer(t, Options{MaxBodyBytes: 1024})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	huge := `{"workload": "FFT", "pad": "` + strings.Repeat("x", 4096) + `"}`
	status, body := post(t, ts.URL+"/v1/sweep", huge)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized sweep body: %d %s", status, body)
	}
	if !bytes.Contains(body, []byte("body_too_large")) || !bytes.Contains(body, []byte("1024")) {
		t.Fatalf("413 body does not name the limit: %s", body)
	}

	if status, body := post(t, ts.URL+"/v1/sweep", resourcesGridBody); status != http.StatusOK {
		t.Fatalf("normal body under the limit: %d %s", status, body)
	}
}
