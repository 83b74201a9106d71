package batch

import (
	"bytes"
	"errors"
	"testing"
)

// sizedPayload stands in for a protocol payload with a known wire size.
type sizedPayload struct{ n int }

// finPayload flips to its finalized form when the frame flushes.
type finPayload struct{ finalized bool }

func (p *finPayload) FinalizeFlush() any { return &finPayload{finalized: true} }

func TestFrameWireSizeMatchesCodec(t *testing.T) {
	// The in-process frame must charge exactly what the binary codec would
	// produce for records with the same kinds and body sizes — that is what
	// keeps E11/E13 byte counts honest with batching on.
	cases := [][]Rec{
		{},
		{{Kind: "rel.data", Size: 44}},
		{{Kind: "rel.data", Size: 44}, {Kind: "rel.ack", Size: 20}, {Kind: "", Size: 0}},
		{{Kind: "wl.raise", Size: 200}, {Kind: "k.fd.hb", Size: 8}},
	}
	for _, recs := range cases {
		fr := Get()
		var wire []WireRec
		for _, r := range recs {
			fr.Append(r)
			wire = append(wire, WireRec{Kind: r.Kind, Body: make([]byte, r.Size)})
		}
		encoded := AppendFrame(nil, wire)
		if fr.Footprint() != len(encoded) {
			t.Errorf("recs %v: Frame.Footprint = %d, encoded length = %d", recs, fr.Footprint(), len(encoded))
		}
		if EncodedSize(wire) != len(encoded) {
			t.Errorf("recs %v: EncodedSize = %d, encoded length = %d", recs, EncodedSize(wire), len(encoded))
		}
		Put(fr)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	recs := []WireRec{
		{Kind: "rel.data", Body: []byte("envelope-body")},
		{Kind: "attr.delta", Body: nil},
		{Kind: "", Body: bytes.Repeat([]byte{0xAB}, 300)},
		{Kind: "rel.ack", Body: []byte{1, 2, 3}},
	}
	enc := AppendFrame(nil, recs)
	got, err := DecodeFrame(nil, enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Kind != recs[i].Kind || !bytes.Equal(got[i].Body, recs[i].Body) {
			t.Errorf("record %d: got %q/%x, want %q/%x", i, got[i].Kind, got[i].Body, recs[i].Kind, recs[i].Body)
		}
	}
}

func TestDecodeRejectsCorruptFrames(t *testing.T) {
	valid := AppendFrame(nil, []WireRec{{Kind: "k", Body: []byte("body")}})
	bad := [][]byte{
		{},                                  // missing count
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, // varint overflow
		{0x20},                              // count 32 with no records
		valid[:len(valid)-1],                // truncated body
		append(append([]byte{}, valid...), 0x00), // trailing byte
	}
	for _, src := range bad {
		if _, err := DecodeFrame(nil, src); !errors.Is(err, ErrCorrupt) {
			t.Errorf("DecodeFrame(%x) = %v, want ErrCorrupt", src, err)
		}
	}
}

func TestFramePoolResetsState(t *testing.T) {
	fr := Get()
	fr.Append(Rec{Kind: "k", Payload: "p", Size: 10})
	Put(fr)
	fr2 := Get()
	if fr2.Len() != 0 || fr2.Bytes() != 0 {
		t.Fatalf("pooled frame not reset: len=%d bytes=%d", fr2.Len(), fr2.Bytes())
	}
	Put(fr2)
}

func TestFinalizeRunsFinalizers(t *testing.T) {
	fr := Get()
	defer Put(fr)
	fr.Append(Rec{Kind: "a", Payload: &finPayload{}, Size: 4})
	fr.Append(Rec{Kind: "b", Payload: "plain", Size: 5})
	fr.Finalize()
	if p, ok := fr.Recs()[0].Payload.(*finPayload); !ok || !p.finalized {
		t.Errorf("finalizer payload not rewritten: %#v", fr.Recs()[0].Payload)
	}
	if fr.Recs()[1].Payload != "plain" {
		t.Errorf("plain payload disturbed: %#v", fr.Recs()[1].Payload)
	}
}

// TestFrameAppendZeroAllocs is the arena guard the issue requires: once a
// frame's record slice has grown, appending a message costs zero
// allocations — batching must not reintroduce the per-message allocs the
// dispatch hot path shed.
func TestFrameAppendZeroAllocs(t *testing.T) {
	fr := Get()
	defer Put(fr)
	payload := any(&sizedPayload{n: 32}) // pre-boxed: the sender boxes once, not per append
	for i := 0; i < 4096; i++ {
		fr.Append(Rec{Kind: "rel.data", Payload: payload, Size: 32})
	}
	fr.reset()
	allocs := testing.AllocsPerRun(200, func() {
		fr.Append(Rec{Kind: "rel.data", Payload: payload, Size: 32})
	})
	if allocs != 0 {
		t.Fatalf("Frame.Append allocates %v objects per record, want 0", allocs)
	}
}

// TestEncoderZeroAllocs guards the append-only binary encoder: with a
// reused arena buffer, encoding a frame allocates nothing.
func TestEncoderZeroAllocs(t *testing.T) {
	recs := []WireRec{
		{Kind: "rel.data", Body: bytes.Repeat([]byte{0x5A}, 64)},
		{Kind: "rel.ack", Body: bytes.Repeat([]byte{0xA5}, 20)},
	}
	buf := AppendFrame(make([]byte, 0, 4096), recs)
	allocs := testing.AllocsPerRun(200, func() {
		buf = AppendFrame(buf[:0], recs)
	})
	if allocs != 0 {
		t.Fatalf("AppendFrame allocates %v objects per frame with a warm arena, want 0", allocs)
	}
}

func BenchmarkAppendFrame(b *testing.B) {
	recs := []WireRec{
		{Kind: "rel.data", Body: bytes.Repeat([]byte{0x5A}, 64)},
		{Kind: "rel.ack", Body: bytes.Repeat([]byte{0xA5}, 20)},
		{Kind: "attr.delta", Body: bytes.Repeat([]byte{0x11}, 40)},
	}
	buf := make([]byte, 0, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendFrame(buf[:0], recs)
	}
}
