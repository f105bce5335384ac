package mix

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// TestFNVMatchesStdlib checks the running hash against hash/fnv over a
// string followed by little-endian words: the layout snapshot digests use.
func TestFNVMatchesStdlib(t *testing.T) {
	ref := fnv.New64a()
	ref.Write([]byte("S3D/strassen"))
	h := NewFNV().String("S3D/strassen")
	for _, v := range []uint64{0, 1, 0xFFFFFFFFFFFFFFFF, 0x0123456789ABCDEF} {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		ref.Write(b[:])
		h = h.Word(v)
	}
	if uint64(h) != ref.Sum64() {
		t.Fatalf("FNV = %#x, hash/fnv = %#x", uint64(h), ref.Sum64())
	}
	if FNV1a("") != uint64(NewFNV()) {
		t.Fatal("FNV1a of no bytes is not the offset basis")
	}
}

// TestSplitMix64Reference checks the first outputs of the stream seeded
// at 0 against the published SplitMix64 reference values.
func TestSplitMix64Reference(t *testing.T) {
	want := []uint64{0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F}
	for i, w := range want {
		if got := Substream(0, uint64(i)); got != w {
			t.Errorf("output %d = %#x, want %#x", i, got, w)
		}
	}
}
