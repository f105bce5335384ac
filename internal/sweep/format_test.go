package sweep

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestSnapshotFormatPinned pins the on-disk sweep snapshot bytes: a small
// fixed run is encoded at a partial and a full prefix and each payload's
// length and SHA-256 must match the recorded values, so a codec refactor
// cannot silently change what existing checkpoint files decode to.
func TestSnapshotFormatPinned(t *testing.T) {
	g := buildApp(t, "S2D", 0)
	r, err := newRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	uniques := r.uniqueDesigns(tiny())
	results, err := r.simulateAll(uniques)
	if err != nil {
		t.Fatal(err)
	}
	digest := sweepDigest(r.c, uniques)
	for _, tc := range []struct {
		n    int
		want string
	}{
		{0, "18:e5ea6e6edb49d6c2a74feba732dfad83bd5ed4d8ef941a61ac3fb0e8fbe52284"},
		{5, "378:432f02bc229ea8c035023dc0ffad8c404713d73018474dc7698f45e3fea6250c"},
		{len(uniques), "5202:b982caa3ad69dbf9599082d4ea61cda9e67233f2cf0f467eeee559f0e98147bf"},
	} {
		p := encodeSweepSnapshot(digest, len(uniques), results, tc.n)
		if got := pinOf(p); got != tc.want {
			t.Errorf("prefix %d: snapshot %s, want %s", tc.n, got, tc.want)
		}
	}
}

// pinOf summarizes a payload as its length and SHA-256.
func pinOf(p []byte) string { return fmt.Sprintf("%d:%x", len(p), sha256.Sum256(p)) }
