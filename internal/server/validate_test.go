package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestValidationRejectsAbsurdNumerics drives the boundary validator over
// HTTP: every body carries one bad numeric, and the 400 must name the
// offending field so clients can fix their input without bisecting it.
// A node the CMOS model does not cover is refused here too, by the sync
// routes and at job submit alike.
func TestValidationRejectsAbsurdNumerics(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, Options{JobsDir: t.TempDir()}).Handler())
	defer ts.Close()

	cases := []struct {
		url, body, field string
	}{
		{"/v1/sweep", `{"workload": "S3D", "designs": [{"node_nm": 1e308, "partition": 1, "simplification": 1}]}`, "designs[0].node_nm"},
		{"/v1/sweep", `{"workload": "S3D", "designs": [{"node_nm": 45, "partition": 1, "simplification": 1, "clock_ghz": -2}]}`, "designs[0].clock_ghz"},
		{"/v1/sweep", `{"workload": "S3D", "preset": "reduced", "workers": 100000}`, "workers"},
		{"/v1/sweep", `{"workload": "S3D", "grid": {"nodes": [0.5], "partitions": [1], "simplifications": [1], "fusion": [false]}}`, "grid.nodes[0]"},
		{"/v1/sweep", `{"workload": "FFT", "grid": {"nodes": [205], "partitions": [1], "simplifications": [1], "fusion": [false]}}`, "grid.nodes[0]"},
		{"/v1/search", `{"workload": "FFT", "space": {"nodes": [205], "partitions": [1], "simplifications": [1], "fusion": [false]}}`, "space.nodes[0]"},
		{"/v1/jobs", `{"kind": "sweep", "sweep": {"workload": "FFT", "grid": {"nodes": [205], "partitions": [1], "simplifications": [1], "fusion": [false]}}}`, "grid.nodes[0]"},
		{"/v1/jobs", `{"kind": "search", "search": {"workload": "FFT", "space": {"nodes": [205], "partitions": [1], "simplifications": [1], "fusion": [false]}}}`, "space.nodes[0]"},
		{"/v1/uncertainty", `{"gain_target": 1e300}`, "gain_target"},
		{"/v1/uncertainty", `{"replicates": -1}`, "replicates"},
		{"/v1/uncertainty", `{"cmos_jitter": -0.5}`, "cmos_jitter"},
		{"/v1/csr", `{"observations": [{"name": "x", "gain": 1, "year": 9999, "chip": {"node_nm": 45, "die_mm2": 25, "tdp_w": 50, "freq_ghz": 1}}]}`, "observations[0].year"},
		{"/v1/csr", `{"observations": [{"name": "x", "gain": 1, "chip": {"node_nm": 45, "die_mm2": -1, "tdp_w": 50, "freq_ghz": 1}}]}`, "observations[0].chip.die_mm2"},
	}
	for _, tc := range cases {
		status, body := post(t, ts.URL+tc.url, tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400 (%s)", tc.url, tc.field, status, body)
			continue
		}
		if !strings.Contains(string(body), tc.field) {
			t.Errorf("%s: error %s does not name field %q", tc.url, body, tc.field)
		}
	}
}
