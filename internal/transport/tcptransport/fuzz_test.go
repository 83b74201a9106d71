package tcptransport

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/batch"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// fuzzTransport boots a transport hosting node 2 whose handler flags any
// delivery the arrival path should have filtered.
func fuzzTransport(f testing.TB) (*Transport, *atomic.Int64) {
	tr, err := New(Config{Listen: "127.0.0.1:0", DispatchWorkers: 1})
	if err != nil {
		f.Fatal(err)
	}
	bad := new(atomic.Int64)
	err = tr.Attach(2, func(m transport.Message) {
		if m.To != 2 || m.Kind == kindHello || m.Kind == kindGroup {
			bad.Add(1)
		}
	})
	if err != nil {
		f.Fatal(err)
	}
	tr.Start()
	f.Cleanup(func() { tr.Close(context.Background()) })
	return tr, bad
}

// validFrame is one length-prefixed frame as a peer would write it.
func validFrame(tr *Transport) []byte {
	buf, _ := tr.encodeFrame(nil, []transport.Message{
		{From: 1, To: 2, Kind: "test.a", Payload: "hello", Class: transport.ClassDefault},
		{From: 1, To: 2, Kind: "test.b", Payload: []ids.NodeID{1, 2, 3}, Class: transport.ClassSystem},
	})
	return buf
}

// FuzzReadFrame feeds arbitrary bytes down the path a socket feeds:
// readFrame → batch.DecodeFrame → handleRecord. Hostile input must never
// panic, never make readFrame hold more than maxFrame, never reach a
// handler it should not, and never be accounted as anything but dropped.
func FuzzReadFrame(f *testing.F) {
	tr, bad := fuzzTransport(f)
	frame := validFrame(tr)
	// testdata/fuzz/FuzzReadFrame adds a frozen valid frame, a truncated
	// one and a header announcing maxFrame+1.
	f.Add(frame)
	f.Add(append(append([]byte(nil), frame...), frame...))
	reg := tr.Metrics()
	sent, bytesSent := reg.Get(metrics.CtrMsgSent), reg.Get(metrics.CtrMsgBytes)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var buf []byte
		var recs []batch.WireRec
		for {
			var err error
			if buf, err = readFrame(r, buf); err != nil {
				break
			}
			if len(buf) > maxFrame {
				t.Fatalf("readFrame returned %d bytes, limit %d", len(buf), maxFrame)
			}
			if recs, err = batch.DecodeFrame(recs[:0], buf); err != nil {
				break
			}
			for _, rec := range recs {
				tr.handleRecord(rec)
			}
		}
		if n := bad.Load(); n != 0 {
			t.Fatalf("%d records reached a handler they should not have", n)
		}
		if s, b := reg.Get(metrics.CtrMsgSent), reg.Get(metrics.CtrMsgBytes); s != sent || b != bytesSent {
			t.Fatalf("arrivals charged as departures: sent %d→%d, bytes %d→%d", sent, s, bytesSent, b)
		}
	})
}

// FuzzHello feeds arbitrary bytes to the handshake reader: it must refuse
// them or return a hello of this build's wire version.
func FuzzHello(f *testing.F) {
	tr, _ := fuzzTransport(f)
	var good bytes.Buffer
	if err := tr.writeHello(&good); err != nil {
		f.Fatal(err)
	}
	// testdata/fuzz/FuzzHello adds a frozen valid hello, a truncated one
	// and a header announcing maxFrame+1.
	f.Add(good.Bytes())
	f.Add(validFrame(tr)) // a well-formed frame that is not a hello
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := tr.readHello(bytes.NewReader(data))
		if err == nil && h.Version != wire.Version {
			t.Fatalf("accepted a hello of wire version %d, this build speaks %d", h.Version, wire.Version)
		}
	})
}

// TestHelloVersion pins the handshake's version check at the current
// wire.Version: this build's hello is accepted, the same hello announcing
// the previous version is refused (a v2 reliable envelope carries a size
// field a v3 decoder does not expect).
func TestHelloVersion(t *testing.T) {
	tr, _ := fuzzTransport(t)
	var good bytes.Buffer
	if err := tr.writeHello(&good); err != nil {
		t.Fatal(err)
	}
	if h, err := tr.readHello(bytes.NewReader(good.Bytes())); err != nil || h.Version != wire.Version {
		t.Fatalf("own hello: version %d, err %v", h.Version, err)
	}
	old := bytes.Replace(good.Bytes(), []byte{32 + idHello, wire.Version}, []byte{32 + idHello, wire.Version - 1}, 1)
	if _, err := tr.readHello(bytes.NewReader(old)); err == nil {
		t.Fatalf("a hello of wire version %d was accepted by a v%d build", wire.Version-1, wire.Version)
	}
}
