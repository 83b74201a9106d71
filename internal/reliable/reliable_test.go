package reliable

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/transport"
)

// pendingCount reads how many sends to peer n are still awaiting an ack.
func pendingCount(e *Endpoint, n ids.NodeID) int {
	p := e.lookup(n)
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pending)
}

// lossyPair wires two endpoints back to back through a deterministic lossy
// channel: drop decides, per transmission, whether the message vanishes.
type lossyPair struct {
	mu   sync.Mutex
	a, b *Endpoint
	drop func(m netsim.Message) bool

	delivered []string
	dups      atomic.Int64
}

func newLossyPair(t *testing.T, cfg Config, drop func(netsim.Message) bool) *lossyPair {
	t.Helper()
	p := &lossyPair{drop: drop}
	route := func(m netsim.Message) error {
		if p.drop(m) {
			return nil // lost in the fabric
		}
		// Deliver asynchronously like a real fabric would.
		go func() {
			if m.To == 1 {
				p.a.Handle(m)
			} else {
				p.b.Handle(m)
			}
		}()
		return nil
	}
	deliverAt := func(from ids.NodeID, kind string, payload any) {
		p.mu.Lock()
		p.delivered = append(p.delivered, payload.(string))
		p.mu.Unlock()
	}
	p.a = New(cfg, 1, route, deliverAt, nil)
	p.b = New(cfg, 2, route, deliverAt, nil)
	t.Cleanup(func() { p.a.Close(); p.b.Close() })
	return p
}

func (p *lossyPair) deliveredCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.delivered)
}

// TestExactlyOnceUnderLoss: every other data transmission is dropped; all
// payloads still arrive, each exactly once.
func TestExactlyOnceUnderLoss(t *testing.T) {
	var n atomic.Int64
	p := newLossyPair(t, Config{RetryBase: time.Millisecond}, func(m netsim.Message) bool {
		return m.Kind == KindData && n.Add(1)%2 == 1
	})
	const total = 50
	for i := 0; i < total; i++ {
		if err := p.a.Send(2, "test", "payload"); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.deliveredCount() < total {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d", p.deliveredCount(), total)
		}
		time.Sleep(time.Millisecond)
	}
	// Give straggler retransmits a chance to produce (forbidden) extras.
	time.Sleep(20 * time.Millisecond)
	if got := p.deliveredCount(); got != total {
		t.Errorf("delivered %d payloads, want exactly %d", got, total)
	}
}

// TestLostAckTriggersRetransmitNotRedelivery: dropping acks forces
// retransmission, and the receiver's window eats the duplicates.
func TestLostAckTriggersRetransmitNotRedelivery(t *testing.T) {
	var acksDropped atomic.Int64
	p := newLossyPair(t, Config{RetryBase: time.Millisecond}, func(m netsim.Message) bool {
		if m.Kind == KindAck && acksDropped.Load() < 3 {
			acksDropped.Add(1)
			return true
		}
		return false
	})
	if err := p.a.Send(2, "test", "only"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for acksDropped.Load() < 3 || p.deliveredCount() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("acksDropped=%d delivered=%d", acksDropped.Load(), p.deliveredCount())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if got := p.deliveredCount(); got != 1 {
		t.Errorf("delivered %d copies, want exactly 1", got)
	}
}

// TestDeadLetterAfterBudget: a black-holed destination dead-letters the
// payload with ErrUndeliverable instead of retrying forever.
func TestDeadLetterAfterBudget(t *testing.T) {
	dead := make(chan error, 1)
	e := New(Config{MaxAttempts: 3, RetryBase: time.Millisecond},
		1,
		func(netsim.Message) error { return nil }, // black hole
		func(ids.NodeID, string, any) {},
		func(to ids.NodeID, kind string, payload any, err error) { dead <- err })
	defer e.Close()
	if err := e.Send(2, "test", "doomed"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-dead:
		if !errors.Is(err, ErrUndeliverable) {
			t.Errorf("dead-letter err = %v, want ErrUndeliverable", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("dead-letter callback never ran")
	}
}

// TestStructuralSendErrorDeadLettersImmediately: a send the fabric rejects
// outright (unknown node) skips the retry loop.
func TestStructuralSendErrorDeadLettersImmediately(t *testing.T) {
	structural := errors.New("no such node")
	dead := make(chan error, 1)
	e := New(Config{MaxAttempts: 10, RetryBase: time.Hour}, // retries would take forever
		1,
		func(netsim.Message) error { return structural },
		func(ids.NodeID, string, any) {},
		func(to ids.NodeID, kind string, payload any, err error) { dead <- err })
	defer e.Close()
	if err := e.Send(2, "test", "x"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-dead:
		if !errors.Is(err, structural) {
			t.Errorf("dead-letter err = %v, want the structural send error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("structural failure did not dead-letter promptly")
	}
}

// TestFirstTransmissionOnCallerGoroutine: SendClass makes the first attempt
// itself, so the link has seen send n before SendClass n returns and one
// goroutine's sends depart in program order; the background loop starts
// from that attempt's result — a backpressured first attempt is retried and
// has used one attempt of the budget, a structural error dead-letters
// without a second transmission.
func TestFirstTransmissionOnCallerGoroutine(t *testing.T) {
	type deadLetter struct {
		err  error
		sent int // transmissions the link had seen when the callback ran
	}
	// record builds an endpoint whose link notes every data envelope's Seq
	// and answers the i-th transmission with answer(i).
	record := func(cfg Config, answer func(i int) error) (*Endpoint, func() []uint64, chan deadLetter) {
		var mu sync.Mutex
		var seqs []uint64
		sent := func() []uint64 {
			mu.Lock()
			defer mu.Unlock()
			return append([]uint64(nil), seqs...)
		}
		dead := make(chan deadLetter, 1)
		e := New(cfg, 1,
			func(m netsim.Message) error {
				mu.Lock()
				defer mu.Unlock()
				seqs = append(seqs, m.Payload.(pendingEnv).env.(Envelope).Seq)
				return answer(len(seqs) - 1)
			},
			func(ids.NodeID, string, any) {},
			func(_ ids.NodeID, _ string, _ any, err error) { dead <- deadLetter{err, len(sent())} })
		t.Cleanup(e.Close)
		return e, sent, dead
	}
	await := func(dead chan deadLetter) deadLetter {
		select {
		case d := <-dead:
			return d
		case <-time.After(10 * time.Second):
			t.Fatal("dead-letter callback never ran")
			panic("unreachable")
		}
	}

	// No retransmit can fire inside the test: what the link sees is first
	// attempts only. Each is acked once checked, so the in-flight bound
	// never holds the next one back.
	e, sent, _ := record(Config{RetryBase: time.Hour}, func(int) error { return nil })
	for n := uint64(1); n <= 1000; n++ {
		if err := e.Send(2, "test", n); err != nil {
			t.Fatal(err)
		}
		if got := sent(); uint64(len(got)) != n || got[n-1] != n {
			t.Fatalf("after Send %d returned the link had seen %d transmissions, want seq 1..%d in order", n, len(got), n)
		}
		e.Handle(netsim.Message{From: 2, To: 1, Kind: KindAck, Payload: Ack{Seq: n, Cum: n}})
	}

	e, _, dead := record(Config{MaxAttempts: 2, RetryBase: time.Millisecond}, func(i int) error {
		if i == 0 {
			return transport.ErrBackpressure
		}
		return nil // accepted, never acked
	})
	if err := e.Send(2, "test", "congested"); err != nil {
		t.Fatalf("a backpressured first attempt surfaced to the sender: %v", err)
	}
	if d := await(dead); !errors.Is(d.err, ErrUndeliverable) || d.sent != 2 {
		t.Errorf("budget of 2 after a backpressured first attempt: dead-lettered %v after %d transmissions, want ErrUndeliverable after 2", d.err, d.sent)
	}

	structural := errors.New("no such node")
	e, _, dead = record(Config{RetryBase: time.Millisecond}, func(int) error { return structural })
	if err := e.Send(2, "test", "x"); err != nil {
		t.Fatal(err)
	}
	if d := await(dead); !errors.Is(d.err, structural) || d.sent != 1 {
		t.Errorf("structural first attempt: dead-lettered %v after %d transmissions, want the send error after 1", d.err, d.sent)
	}
}

// TestInFlightBound: no more than maxInFlight sends toward one peer are ever
// unacknowledged — the next Send waits until an ack retires one (here the
// ack comes late, from a timer: it only delays the verdict) — and Close
// releases a sender still waiting.
func TestInFlightBound(t *testing.T) {
	var e *Endpoint
	var most atomic.Int64
	e = New(Config{RetryBase: time.Hour}, 1,
		func(netsim.Message) error {
			if n := int64(pendingCount(e, 2)); n > most.Load() {
				most.Store(n)
			}
			return nil // a black hole: nothing is acked unless the test does it
		},
		func(ids.NodeID, string, any) {}, nil)
	defer e.Close()
	for n := 0; n < maxInFlight; n++ {
		if err := e.Send(2, "test", n); err != nil {
			t.Fatal(err)
		}
	}
	time.AfterFunc(20*time.Millisecond, func() {
		e.Handle(netsim.Message{From: 2, To: 1, Kind: KindAck, Payload: Ack{Seq: 1, Cum: 1}})
	})
	if err := e.Send(2, "test", "one more"); err != nil {
		t.Fatal(err)
	}
	if got := most.Load(); got != maxInFlight {
		t.Fatalf("%d sends were in flight at once, want the bound %d reached and kept", got, maxInFlight)
	}
	released := make(chan error, 1)
	go func() { released <- e.Send(2, "test", "held until Close") }()
	time.AfterFunc(20*time.Millisecond, e.Close)
	select {
	case <-released:
	case <-time.After(10 * time.Second):
		t.Fatal("Close left a sender waiting for room")
	}
}

// TestWindowRejectsAncientDuplicates: a sequence older than the window is
// dropped even with no explicit seen entry.
func TestWindowRejectsAncientDuplicates(t *testing.T) {
	e := New(Config{Window: 8}, 2,
		func(netsim.Message) error { return nil },
		func(ids.NodeID, string, any) {},
		nil)
	defer e.Close()
	if ok, _ := e.fresh(1, 0, 100); !ok {
		t.Fatal("first seq 100 not fresh")
	}
	if ok, _ := e.fresh(1, 0, 100); ok {
		t.Error("repeat seq 100 fresh")
	}
	if ok, _ := e.fresh(1, 0, 92); ok {
		t.Error("seq 92 (older than window below max 100) fresh")
	}
	if ok, _ := e.fresh(1, 0, 93); !ok {
		t.Error("seq 93 (inside window) not fresh")
	}
}

// TestPiggybackSuppressesAckMessages: with prompt reverse traffic, acks
// ride on data envelopes and standalone ack messages (mostly) disappear.
func TestPiggybackSuppressesAckMessages(t *testing.T) {
	var acks atomic.Int64
	p := newLossyPair(t, Config{AckDelay: 20 * time.Millisecond, RetryBase: 40 * time.Millisecond},
		func(m netsim.Message) bool {
			if m.Kind == KindAck {
				acks.Add(1)
			}
			return false
		})
	// Ping-pong: every receipt at b is answered by a send from b, well
	// within the 20ms flush window, so the ack debt always finds a ride.
	const rounds = 20
	for i := 0; i < rounds; i++ {
		if err := p.a.Send(2, "ping", "x"); err != nil {
			t.Fatal(err)
		}
		if err := p.b.Send(1, "pong", "y"); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.deliveredCount() < 2*rounds {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d", p.deliveredCount(), 2*rounds)
		}
		time.Sleep(time.Millisecond)
	}
	// The tail receipt on each side legitimately flushes standalone; what
	// must not happen is one ack message per data message.
	if got := acks.Load(); got > rounds {
		t.Errorf("standalone acks = %d for %d deliveries, want piggybacking to suppress most", got, 2*rounds)
	}
}

// TestDelayedAckFlushes: with no reverse traffic at all, the flush timer
// emits a standalone cumulative ack and the sender's retry loop retires.
func TestDelayedAckFlushes(t *testing.T) {
	var acks atomic.Int64
	p := newLossyPair(t, Config{AckDelay: 2 * time.Millisecond, RetryBase: 100 * time.Millisecond},
		func(m netsim.Message) bool {
			if m.Kind == KindAck {
				acks.Add(1)
			}
			return false
		})
	for i := 0; i < 3; i++ {
		if err := p.a.Send(2, "test", "oneway"); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.deliveredCount() < 3 || acks.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("delivered=%d acks=%d", p.deliveredCount(), acks.Load())
		}
		time.Sleep(time.Millisecond)
	}
	// The three receipts land within one 2ms flush window: one cumulative
	// ack should cover them all (the retry base is far away at 100ms, so a
	// single flush beats every retransmit).
	time.Sleep(20 * time.Millisecond)
	if got := acks.Load(); got > 2 {
		t.Errorf("standalone acks = %d for 3 receipts, want cumulative flush to batch them", got)
	}
}

// TestCumulativeAckRetiresBacklog: an ack's Cum field retires every pending
// send at or below it, not just the triggering sequence.
func TestCumulativeAckRetiresBacklog(t *testing.T) {
	e := New(Config{RetryBase: time.Hour}, // no retransmits: retirement must come from the ack
		1,
		func(netsim.Message) error { return nil },
		func(ids.NodeID, string, any) {},
		func(to ids.NodeID, kind string, payload any, err error) {
			t.Errorf("dead-lettered %v", err)
		})
	defer e.Close()
	for i := 0; i < 5; i++ {
		if err := e.Send(2, "test", i); err != nil {
			t.Fatal(err)
		}
	}
	pendingBefore := pendingCount(e, 2)
	if pendingBefore != 5 {
		t.Fatalf("pending = %d, want 5", pendingBefore)
	}
	e.Handle(netsim.Message{From: 2, To: 1, Kind: KindAck, Payload: Ack{Seq: 5, Cum: 5}})
	deadline := time.Now().Add(2 * time.Second)
	for {
		left := pendingCount(e, 2)
		if left == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pending = %d after cumulative ack, want 0", left)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEnvelopePiggybackRetires: the AckCum field on a reverse-direction
// data envelope retires pending sends without any ack message.
func TestEnvelopePiggybackRetires(t *testing.T) {
	e := New(Config{RetryBase: time.Hour}, 1,
		func(netsim.Message) error { return nil },
		func(ids.NodeID, string, any) {}, nil)
	defer e.Close()
	for i := 0; i < 3; i++ {
		if err := e.Send(2, "test", i); err != nil {
			t.Fatal(err)
		}
	}
	e.Handle(netsim.Message{From: 2, To: 1, Kind: KindData,
		Payload: Envelope{Seq: 1, Kind: "reverse", Payload: "x", AckCum: 3}})
	deadline := time.Now().Add(2 * time.Second)
	for {
		left := pendingCount(e, 2)
		if left == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pending = %d after piggybacked cum, want 0", left)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNonProtocolKindsPassThrough: Handle leaves foreign messages alone.
func TestNonProtocolKindsPassThrough(t *testing.T) {
	e := New(Config{}, 1,
		func(netsim.Message) error { return nil },
		func(ids.NodeID, string, any) {}, nil)
	defer e.Close()
	if e.Handle(netsim.Message{Kind: "rpc.req"}) {
		t.Error("Handle claimed a non-protocol message")
	}
}
