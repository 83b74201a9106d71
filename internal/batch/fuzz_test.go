package batch

import (
	"bytes"
	"testing"
)

// FuzzBatchRoundTrip drives the frame codec from a byte script in two
// modes, selected by the first byte:
//
//   - build mode: the remaining bytes script a mixed record set (envelope-,
//     ack- and delta-like kinds with scripted body lengths); the set must
//     encode, size-predict exactly, decode back identically, and survive a
//     re-encode byte-for-byte.
//   - decode mode: the remaining bytes are treated as a wire frame; the
//     decoder must reject or accept without panicking, and anything it
//     accepts must re-encode to the identical bytes (the codec has one
//     canonical encoding).
func FuzzBatchRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})                               // decode mode, empty frame input
	f.Add([]byte{0x01, 0x00})                         // build mode, one empty record
	f.Add([]byte{0x01, 0x12, 0x40, 0x33, 0x00, 0x91}) // build mode, mixed kinds
	f.Add(append([]byte{0x00}, AppendFrame(nil, []WireRec{
		{Kind: "rel.data", Body: []byte("seq=7 payload")},
		{Kind: "rel.ack", Body: []byte{0, 0, 0, 7}},
		{Kind: "attr.delta", Body: []byte("v3->v4")},
	})...)) // decode mode, a well-formed frame
	kinds := []string{"rel.data", "rel.ack", "attr.delta", "wl.raise", "k.fd.hb", ""}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mode, script := data[0], data[1:]
		if mode == 0 {
			// Decode mode: arbitrary bytes must never panic the decoder, and
			// an accepted frame must round-trip canonically.
			recs, err := DecodeFrame(nil, script)
			if err != nil {
				return
			}
			if re := AppendFrame(nil, recs); !bytes.Equal(re, script) {
				t.Fatalf("accepted frame is not canonical: decode+encode %x -> %x", script, re)
			}
			return
		}

		// Build mode: each script byte picks a kind (high bits) and a body
		// length (low bits); the body is drawn from the following bytes.
		var recs []WireRec
		for i := 0; i < len(script); i++ {
			b := script[i]
			kind := kinds[int(b>>5)%len(kinds)]
			bodyLen := int(b & 0x1F)
			if bodyLen > len(script)-i-1 {
				bodyLen = len(script) - i - 1
			}
			recs = append(recs, WireRec{Kind: kind, Body: script[i+1 : i+1+bodyLen]})
			i += bodyLen
		}
		enc := AppendFrame(nil, recs)
		if got := EncodedSize(recs); got != len(enc) {
			t.Fatalf("EncodedSize = %d, encoded length = %d", got, len(enc))
		}
		// The in-process Frame must charge the same footprint.
		fr := Get()
		for _, r := range recs {
			fr.Append(Rec{Kind: r.Kind, Size: len(r.Body)})
		}
		if fr.Footprint() != len(enc) {
			t.Fatalf("Frame.Footprint = %d, encoded length = %d", fr.Footprint(), len(enc))
		}
		Put(fr)
		dec, err := DecodeFrame(nil, enc)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if len(dec) != len(recs) {
			t.Fatalf("decoded %d records, want %d", len(dec), len(recs))
		}
		for i := range recs {
			if dec[i].Kind != recs[i].Kind || !bytes.Equal(dec[i].Body, recs[i].Body) {
				t.Fatalf("record %d mismatch: got %q/%x, want %q/%x",
					i, dec[i].Kind, dec[i].Body, recs[i].Kind, recs[i].Body)
			}
		}
	})
}
