package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"accelwall/internal/aladdin"
	"accelwall/internal/checkpoint"
	"accelwall/internal/montecarlo"
	"accelwall/internal/sweep"
)

func sampleRequests() []*SliceRequest {
	return []*SliceRequest{
		{
			Kind: KindSweep, Lo: 0, Hi: 12, Workload: "S3D", Size: 14,
			Grid: &sweep.Params{
				Nodes:           []float64{45, 32, 22},
				Partitions:      []int{1, 2, 4},
				Simplifications: []int{0, 1},
				Fusion:          []bool{false, true},
			},
		},
		{
			Kind: KindUncertainty, Lo: 100, Hi: 250,
			MC: &montecarlo.Config{Replicates: 500, Seed: 7, CorpusSeed: 3, Confidence: 0.9, GainTarget: 10, CMOSJitter: 0.02},
		},
		{
			Kind: KindSearch, Lo: 8, Hi: 10, Workload: "GMM/strassen", Size: 0,
			Designs: []aladdin.Design{
				{NodeNM: 22, Partition: 4, Simplification: 1, Fusion: true, ClockGHz: 1.5, MemoryBanks: 2},
				{NodeNM: 45, Partition: 1, Simplification: 0, Fusion: false, ClockGHz: 0, MemoryBanks: 0},
			},
		},
	}
}

// TestRequestRoundTrip checks every request shape survives the codec
// exactly, including negative-free float bit patterns.
func TestRequestRoundTrip(t *testing.T) {
	for _, req := range sampleRequests() {
		frame := EncodeRequest(req)
		got, err := DecodeRequest(frame)
		if err != nil {
			t.Fatalf("kind %d: decode: %v", req.Kind, err)
		}
		if !reflect.DeepEqual(req, got) {
			t.Fatalf("kind %d: round trip mismatch:\n enc %+v\n dec %+v", req.Kind, req, got)
		}
	}
}

// TestResponseRoundTrip checks responses survive the codec bit for bit.
func TestResponseRoundTrip(t *testing.T) {
	resp := &SliceResponse{
		Kind: KindSweep, Lo: 4, Hi: 6,
		Results: []aladdin.Result{
			{Cycles: 123456, FusedOps: 42, RuntimeNS: 1.25e6, DynEnergy: 3.5, LeakEnergy: 0.25,
				Energy: 3.75, Power: 3e-6, Area: 0.5, Utilization: 0.875},
			{Cycles: 1, RuntimeNS: 0.1},
		},
		Payload: []byte{1, 2, 3, 255, 0},
	}
	frame := EncodeResponse(resp)
	got, err := DecodeResponse(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(resp, got) {
		t.Fatalf("round trip mismatch:\n enc %+v\n dec %+v", resp, got)
	}
}

// TestDecodeRejectsCorruption checks headline corruption classes all fail
// with ErrCodec instead of panicking or passing through.
func TestDecodeRejectsCorruption(t *testing.T) {
	valid := EncodeRequest(sampleRequests()[0])
	cases := map[string][]byte{
		"empty":               {},
		"short magic":         valid[:3],
		"bad magic":           append([]byte("nope"), valid[4:]...),
		"truncated":           valid[:len(valid)-3],
		"trailing":            append(append([]byte{}, valid...), 0),
		"response as request": EncodeResponse(&SliceResponse{Kind: KindSweep}),
	}
	for name, frame := range cases {
		if _, err := DecodeRequest(frame); !errors.Is(err, ErrCodec) {
			t.Errorf("%s: err = %v, want ErrCodec", name, err)
		}
	}

	// Version mismatch.
	bumped := append([]byte{}, valid...)
	bumped[4]++
	if _, err := DecodeRequest(bumped); !errors.Is(err, ErrCodec) {
		t.Errorf("version bump: err = %v, want ErrCodec", err)
	}

	// A NaN smuggled into a grid axis must be refused.
	nan := append([]byte{}, valid...)
	// The first grid node float sits after: magic(4) version(2) kind(1)
	// lo(4) hi(4) wstr(2+3) size(4) flags(1) nodeCount(4).
	off := 4 + 2 + 1 + 4 + 4 + 2 + 3 + 4 + 1 + 4
	copy(nan[off:], []byte{0, 0, 0, 0, 0, 0, 0xF8, 0x7F}) // IEEE-754 NaN
	if _, err := DecodeRequest(nan); !errors.Is(err, ErrCodec) {
		t.Errorf("NaN axis: err = %v, want ErrCodec", err)
	}

	vresp := EncodeResponse(&SliceResponse{Kind: KindSearch, Lo: 0, Hi: 1,
		Results: []aladdin.Result{{Cycles: 5, RuntimeNS: 1}}})
	for name, frame := range map[string][]byte{
		"resp empty":          {},
		"resp truncated":      vresp[:len(vresp)-2],
		"request as response": valid,
	} {
		if _, err := DecodeResponse(frame); !errors.Is(err, ErrCodec) {
			t.Errorf("%s: err = %v, want ErrCodec", name, err)
		}
	}
}

// TestDecodeBoundsHugeCounts checks a corrupt length field cannot drive
// allocation: a frame claiming 2^30 designs in 20 bytes must fail fast.
func TestDecodeBoundsHugeCounts(t *testing.T) {
	w := checkpoint.NewWriter(0)
	w.Raw(reqMagic[:])
	w.U16(codecVersion)
	w.U8(KindSearch)
	w.U32(0)
	w.U32(1)
	putStr(w, "S3D")
	w.U32(0)
	w.U8(0)        // no grid, no MC
	w.U32(1 << 30) // absurd design count
	if _, err := DecodeRequest(w.Bytes()); !errors.Is(err, ErrCodec) {
		t.Fatalf("huge design count: err = %v, want ErrCodec", err)
	}
}

// FuzzSliceRequestDecode asserts no frame can panic the request decoder,
// and that accepted frames re-encode canonically.
func FuzzSliceRequestDecode(f *testing.F) {
	for _, req := range sampleRequests() {
		f.Add(EncodeRequest(req))
	}
	f.Add([]byte("awsq"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, frame []byte) {
		req, err := DecodeRequest(frame)
		if err != nil {
			return
		}
		// An accepted frame must be exactly the canonical encoding of what
		// it decodes to — the codec has no redundant representations.
		if !bytes.Equal(EncodeRequest(req), frame) {
			t.Fatalf("accepted frame is not canonical")
		}
	})
}

// FuzzSliceResponseDecode asserts no frame can panic the response decoder.
func FuzzSliceResponseDecode(f *testing.F) {
	f.Add(EncodeResponse(&SliceResponse{Kind: KindSweep, Lo: 0, Hi: 1,
		Results: []aladdin.Result{{Cycles: 9, RuntimeNS: 2.5}}}))
	f.Add(EncodeResponse(&SliceResponse{Kind: KindUncertainty, Lo: 0, Hi: 4, Payload: []byte{1, 2, 3}}))
	f.Add([]byte("awsp"))
	f.Fuzz(func(t *testing.T, frame []byte) {
		resp, err := DecodeResponse(frame)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeResponse(resp), frame) {
			t.Fatalf("accepted frame is not canonical")
		}
	})
}

// TestFrameBytesPinned pins the internode frame bytes: every sample
// request and a response carrying both result records and a real Monte
// Carlo slice payload must match its recorded length and SHA-256, so a
// codec refactor cannot silently change what peers exchange.
func TestFrameBytesPinned(t *testing.T) {
	e, err := montecarlo.New(1)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := e.RunSlice(context.Background(), montecarlo.Config{Replicates: 12, Seed: 9, CorpusSeed: 1, Workers: 1}, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for _, req := range sampleRequests() {
		frames = append(frames, EncodeRequest(req))
	}
	frames = append(frames, EncodeResponse(&SliceResponse{
		Kind: KindSearch, Lo: 3, Hi: 5,
		Results: []aladdin.Result{
			{Cycles: 123456, FusedOps: 42, RuntimeNS: 1.25e6, DynEnergy: 3.5, LeakEnergy: 0.25,
				Energy: 3.75, Power: 3e-6, Area: 0.5, Utilization: 0.875},
			{Cycles: 7, FusedOps: 0, RuntimeNS: math.SmallestNonzeroFloat64, DynEnergy: math.Copysign(0, -1), Area: math.MaxFloat64},
		},
		Payload: payload,
	}))
	want := []string{
		"91:9ad5a309d72cd7b97b1793e78cf38313f49a04755cdd0e96bb15863b7c40d36e",
		"70:57c2fb021382c08d4d559cca1e206afbde4f54ddaac13dcd90a34aaead0784fe",
		"96:ec633af9d1c9437b547f7d1b24623d8c12ef34a3e2f88cf820718ab340028eea",
		"1304:9ff85f915e2f27a018c72b43b285ea91460f2d3c8b43361a42aded2f215c3bb5",
	}
	for i, f := range frames {
		if got := fmt.Sprintf("%d:%x", len(f), sha256.Sum256(f)); got != want[i] {
			t.Errorf("frame %d: %s, want %s", i, got, want[i])
		}
	}
}
