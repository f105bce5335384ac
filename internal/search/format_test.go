package search

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestSnapshotFormatPinned pins the search snapshot bytes: every snapshot
// of a small fixed run must match its recorded length and SHA-256, so a
// codec refactor cannot silently change what existing checkpoint files
// decode to.
func TestSnapshotFormatPinned(t *testing.T) {
	sink := &memSink{}
	cfg := Config{Seed: 3, Population: 8, Generations: 2}
	if _, err := RunCheckpointed(context.Background(), buildEngine(t, "S3D"), cfg, &Checkpoint{Sink: sink, Every: 1}); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"20218:8e644de955e6e7b3cadfbdb32d8d750b8a428d43dea24c8afba9e221dcfcfb33",
		"20698:b212b7f45c6d209c28c5946845543bfd8a190a1ae5957683dbede5c11ed21b85",
		"21058:836ae17152e2bdf16ea0311f51b7e33ab62d0ff7fc9346e8d616a462af1ec93d",
	}
	if len(sink.saves) != len(want) {
		t.Fatalf("%d snapshots, want %d", len(sink.saves), len(want))
	}
	for i, p := range sink.saves {
		if got := pinOf(p); got != want[i] {
			t.Errorf("snapshot %d: %s, want %s", i, got, want[i])
		}
	}
}

// pinOf summarizes a payload as its length and SHA-256.
func pinOf(p []byte) string { return fmt.Sprintf("%d:%x", len(p), sha256.Sum256(p)) }
