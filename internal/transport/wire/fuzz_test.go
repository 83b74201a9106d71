package wire

import (
	"bytes"
	"testing"
)

// FuzzWireRoundTrip feeds arbitrary bytes to the value decoder. The
// invariants, mirroring internal/batch's frame fuzzer:
//
//   - no input panics the decoder, no matter how truncated, oversized or
//     padded (length prefixes are checked against the remaining input
//     before any allocation, varints must be minimal-form);
//   - anything the decoder accepts re-encodes, and the re-encoding is a
//     fixed point: decode(enc) followed by encode yields enc byte-for-byte
//     (the codec has one canonical encoding — the original input may
//     differ only for legitimately order-free map bodies);
//   - EncodedSize agrees exactly with the canonical encoding's length.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{tagNil})
	f.Add([]byte{tagUint64, 0x85, 0x00})                   // non-minimal uvarint
	f.Add([]byte{tagString, 0xff, 0xff, 0x03, 'a'})        // oversized length prefix
	f.Add([]byte{tagSliceAny, 0xff, 0xff, 0xff, 0xff, 15}) // huge element count
	f.Add([]byte{tagError, 44, 3, 'f', 'o', 'o'})
	f.Add(bytes.Repeat([]byte{tagSliceAny, 1}, 64)) // deep nesting
	for _, v := range samples() {
		if enc, err := EncodeValue(v); err == nil {
			f.Add(enc)
			if len(enc) > 1 {
				f.Add(enc[:len(enc)/2]) // truncation seed
			}
		}
	}
	// Typed nil pointers: a registered tag followed by a zero presence flag.
	for _, id := range []byte{idEventBlock, idAttributes, idDelta, idFaultError} {
		f.Add([]byte{firstTypeTag + id, 0})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := DecodeValue(data)
		if err != nil {
			return
		}
		enc, err := EncodeValue(v)
		if err != nil {
			t.Fatalf("decoded value failed to re-encode: %v", err)
		}
		size, err := EncodedSize(v)
		if err != nil || size != len(enc) {
			t.Fatalf("EncodedSize=%d err=%v, canonical length=%d", size, err, len(enc))
		}
		v2, err := DecodeValue(enc)
		if err != nil {
			t.Fatalf("canonical encoding rejected: %v", err)
		}
		enc2, err := EncodeValue(v2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point: %x vs %x", enc, enc2)
		}
	})
}
