package reliable

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/ids"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// The envelope protocol's two wire types, held to what the wire package
// holds its own to: counting mode equals appending mode, decode reproduces
// the value, and the canonical encoding is a fixed point.
func TestWireCodecRoundTrip(t *testing.T) {
	for name, v := range map[string]any{
		"envelope": Envelope{Seq: 8, Gen: 2, Kind: "rpc.req", Payload: map[string]any{"k": "v"}, AckCum: 7},
		"ack":      Ack{Seq: 9, Cum: 9},
	} {
		enc, err := wire.EncodeValue(v)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if size, err := wire.EncodedSize(v); err != nil || size != len(enc) {
			t.Errorf("%s: EncodedSize=%d err=%v, len(Encode())=%d", name, size, err, len(enc))
		}
		got, err := wire.DecodeValue(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("%s: round trip mismatch:\n got %#v\nwant %#v", name, got, v)
		}
	}

	if _, err := wire.DecodeValue([]byte{32 + widEnvelope, 1, 1, 'k'}); !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("truncated envelope payload: err=%v, want ErrCorrupt", err)
	}
	// An unencodable payload nested inside the envelope is an error in both
	// modes, never a panic.
	type unregistered struct{ X int }
	env := Envelope{Seq: 1, Kind: "x", Payload: unregistered{2}}
	if _, err := wire.EncodeValue(env); !errors.Is(err, wire.ErrUnencodable) {
		t.Errorf("encode with unencodable payload: err=%v", err)
	}
	if _, err := wire.EncodedSize(env); !errors.Is(err, wire.ErrUnencodable) {
		t.Errorf("size with unencodable payload: err=%v", err)
	}

	enc, err := wire.EncodeValue(error(ErrUndeliverable))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := wire.DecodeValue(enc); err != nil || got != error(ErrUndeliverable) {
		t.Errorf("ErrUndeliverable did not survive as identity: %#v, %v", got, err)
	}
}

// Send sizes the envelope once, from the frontier it knows then, and every
// transmission — retransmits included — rides that figure in Message.Size;
// the departure-time AckCum is stamped after sizing.
func TestSendSizesEnvelopeOnce(t *testing.T) {
	var (
		mu       sync.Mutex
		captured []transport.Message
	)
	e := New(Config{RetryBase: 2 * time.Millisecond, AckDelay: time.Hour}, 1,
		func(m transport.Message) error {
			mu.Lock()
			captured = append(captured, m)
			mu.Unlock()
			return nil
		},
		func(ids.NodeID, string, any) {}, nil)
	defer e.Close()

	payload := map[string]any{"n": 1}
	if err := e.Send(2, "ping", payload); err != nil {
		t.Fatal(err)
	}
	// The frontier moves after Send and before the copies below depart.
	e.Handle(transport.Message{From: 2, To: 1, Kind: KindData, Payload: Envelope{Seq: 1, Kind: "pong", Payload: "x"}})
	testutil.WaitFor(t, "a retransmission", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(captured) >= 2
	})

	want, err := wire.EncodedSize(Envelope{Seq: 1, Kind: "ping", Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, m := range captured {
		if m.Size != want {
			t.Errorf("transmission %d: Message.Size = %d, want %d (the envelope as sized in Send)", i, m.Size, want)
		}
	}
	env := captured[len(captured)-1].Payload.(batch.Finalizer).FinalizeFlush().(Envelope)
	if env.AckCum != 1 {
		t.Errorf("departing AckCum = %d, want 1 (the frontier at departure)", env.AckCum)
	}
}
