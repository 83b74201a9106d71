package reliable

import (
	"sync"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/testutil"
)

// A data envelope that leaves inside a batch frame must settle the ack debt
// at flush time, not at Send time: FinalizeFlush stamps the departure-time
// cumulative ack, and that stamping both pays the debt and disarms the
// standalone flushAck timer — otherwise every piggybacked ack would be
// followed by a redundant standalone one.
func TestBatchFlushSettlesAckDebt(t *testing.T) {
	var (
		mu       sync.Mutex
		captured []netsim.Message
	)
	e := New(Config{AckDelay: 5 * time.Millisecond, RetryBase: time.Hour}, 1,
		func(m netsim.Message) error {
			mu.Lock()
			captured = append(captured, m)
			mu.Unlock()
			return nil
		},
		func(ids.NodeID, string, any) {},
		nil)
	defer e.Close()

	// Receive a data envelope from peer 2: we now owe an ack, and the
	// AckDelay flush timer is armed.
	e.Handle(netsim.Message{From: 2, To: 1, Kind: KindData,
		Payload: Envelope{Seq: 1, Kind: "ping", Payload: "x"}})

	// Reverse-direction send. What hits the wire is the un-finalized
	// pending form: the cumulative ack is stamped when the batch frame
	// actually departs, not when the envelope is built.
	if err := e.Send(2, "pong", "y"); err != nil {
		t.Fatal(err)
	}
	// The first transmission happens on Send's goroutine.
	testutil.WaitFor(t, "outbound envelope captured", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(captured) == 1
	})
	mu.Lock()
	if captured[0].Kind != KindData {
		kind := captured[0].Kind
		mu.Unlock()
		t.Fatalf("captured kind %s, want %s", kind, KindData)
	}
	fin, ok := captured[0].Payload.(batch.Finalizer)
	mu.Unlock()
	if !ok {
		t.Fatalf("outbound payload %T does not implement batch.Finalizer: the ack cannot be stamped at flush time", captured[0].Payload)
	}

	// The batch layer flushes the frame: finalization stamps the current
	// receive frontier into the envelope.
	env, ok := fin.FinalizeFlush().(Envelope)
	if !ok {
		t.Fatalf("FinalizeFlush returned %T, want Envelope", fin.FinalizeFlush())
	}
	if env.AckCum != 1 {
		t.Fatalf("flushed envelope AckCum = %d, want 1 (the receive frontier at departure)", env.AckCum)
	}

	// The debt is settled and the timer disarmed: well past AckDelay, no
	// standalone ack may appear.
	time.Sleep(30 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	for _, m := range captured {
		if m.Kind == KindAck {
			t.Fatalf("standalone %s sent after the batch flush already carried the ack", KindAck)
		}
	}
}
