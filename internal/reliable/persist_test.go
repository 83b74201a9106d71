package reliable

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/testutil"
)

// acceptRec is one OnAccept callback, as the durability layer would log it.
type acceptRec struct {
	from          ids.NodeID
	gen, seq, cum uint64
}

// TestOnAcceptFiresOncePerFreshEnvelope: duplicates re-deliver acks but
// never re-fire the durability hook, and each accept reports the
// post-advance cumulative frontier.
func TestOnAcceptFiresOncePerFreshEnvelope(t *testing.T) {
	var mu sync.Mutex
	var accepts []acceptRec
	e := New(Config{
		OnAccept: func(from ids.NodeID, gen, seq, cum uint64) {
			mu.Lock()
			accepts = append(accepts, acceptRec{from, gen, seq, cum})
			mu.Unlock()
		},
	}, 2,
		func(netsim.Message) error { return nil },
		func(ids.NodeID, string, any) {},
		nil)
	defer e.Close()

	deliver := func(seq uint64) {
		e.Handle(netsim.Message{From: 1, To: 2, Kind: KindData,
			Payload: Envelope{Seq: seq, Gen: 7, Kind: "k", Payload: "p"}})
	}
	deliver(1)
	deliver(3) // gap: cum stays 1
	deliver(3) // duplicate: no hook
	deliver(2) // fills the gap: cum jumps to 3
	deliver(1) // ancient duplicate: no hook

	mu.Lock()
	defer mu.Unlock()
	want := []acceptRec{
		{1, 7, 1, 1},
		{1, 7, 3, 1},
		{1, 7, 2, 3},
	}
	if !reflect.DeepEqual(accepts, want) {
		t.Fatalf("accepts = %+v, want %+v", accepts, want)
	}
}

// TestSnapshotRestoreWindowsRoundTrip: a window with a gap snapshots and
// restores into a fresh endpoint that then judges freshness identically —
// retransmits of everything already seen are duplicates, the gap is not.
func TestSnapshotRestoreWindowsRoundTrip(t *testing.T) {
	mk := func() *Endpoint {
		return New(Config{}, 2,
			func(netsim.Message) error { return nil },
			func(ids.NodeID, string, any) {},
			nil)
	}
	a := mk()
	defer a.Close()
	for _, seq := range []uint64{1, 2, 3, 5, 7} {
		a.fresh(1, 4, seq)
	}
	a.fresh(9, 0, 1) // second peer, legacy generation

	ws := a.SnapshotWindows()
	if len(ws) != 2 || ws[0].Peer != 1 || ws[1].Peer != 9 {
		t.Fatalf("SnapshotWindows = %+v", ws)
	}
	if w := ws[0]; w.Gen != 4 || w.Cum != 3 || w.Max != 7 || !reflect.DeepEqual(w.Seen, []uint64{5, 7}) {
		t.Fatalf("peer 1 window = %+v", w)
	}

	b := mk()
	defer b.Close()
	b.RestoreWindows(ws)
	for _, seq := range []uint64{1, 2, 3, 5, 7} {
		if ok, _ := b.fresh(1, 4, seq); ok {
			t.Errorf("restored window accepted replayed seq %d", seq)
		}
	}
	if ok, cum := b.fresh(1, 4, 4); !ok || cum != 5 {
		t.Errorf("gap seq 4: fresh=%v cum=%d, want true, 5 (4 folds 5 into the frontier)", ok, cum)
	}
	if ok, _ := b.fresh(9, 0, 1); ok {
		t.Error("restored second-peer window accepted replayed seq 1")
	}
	// Outbound cursor: a restored cold endpoint resumes the sequence space.
	a2 := mk()
	defer a2.Close()
	if err := a2.Send(9, "k", "p"); err != nil { // live cursor now 1
		t.Fatal(err)
	}
	a2.RestoreWindows([]PeerWindow{{Peer: 9, NextSeq: 40}, {Peer: 8, NextSeq: 17}})
	if got := a2.peer(9).seq; got != 1 {
		t.Errorf("live outbound cursor overwritten: %d", got)
	}
	if got := a2.peer(8).seq; got != 17 {
		t.Errorf("cold outbound cursor not restored: %d", got)
	}
}

// TestRestoreAcceptReplaysTail: replaying logged accepts one at a time
// rebuilds the same window as the original live acceptance sequence.
func TestRestoreAcceptReplaysTail(t *testing.T) {
	live := New(Config{}, 2,
		func(netsim.Message) error { return nil },
		func(ids.NodeID, string, any) {},
		nil)
	defer live.Close()
	var tail []acceptRec
	seqs := []uint64{1, 2, 5, 3, 9}
	for _, s := range seqs {
		if ok, cum := live.fresh(1, 3, s); ok {
			tail = append(tail, acceptRec{1, 3, s, cum})
		}
	}

	rec := New(Config{}, 2,
		func(netsim.Message) error { return nil },
		func(ids.NodeID, string, any) {},
		nil)
	defer rec.Close()
	for _, r := range tail {
		rec.RestoreAccept(r.from, r.gen, r.seq, r.cum)
	}
	lw, rw := live.SnapshotWindows(), rec.SnapshotWindows()
	// The live side also tracks the outbound cursor; zero it for comparison.
	for i := range lw {
		lw[i].NextSeq = 0
	}
	if !reflect.DeepEqual(lw, rw) {
		t.Fatalf("replayed window %+v != live window %+v", rw, lw)
	}
	// A generation bump in the tail resets the window.
	rec.RestoreAccept(1, 5, 1, 1)
	if ok, _ := rec.fresh(1, 5, 2); !ok {
		t.Error("post-bump window rejected a fresh seq")
	}
	if ok, _ := rec.fresh(1, 3, 9); ok {
		t.Error("stale-generation straggler accepted after bump")
	}
}

// TestOnAcceptOrdersBeforeAck: the hook must complete before the ack for
// the accepted envelope can depart, so an acked window entry is always
// durable. The hook blocks; no ack may leave until it returns.
func TestOnAcceptOrdersBeforeAck(t *testing.T) {
	gate := make(chan struct{})
	hookEntered := make(chan struct{}, 1)
	var mu sync.Mutex
	var acked int
	e := New(Config{
		OnAccept: func(ids.NodeID, uint64, uint64, uint64) {
			hookEntered <- struct{}{}
			<-gate
		},
	}, 2,
		func(m netsim.Message) error {
			if m.Kind == KindAck {
				mu.Lock()
				acked++
				mu.Unlock()
			}
			return nil
		},
		func(ids.NodeID, string, any) {},
		nil)
	defer e.Close()

	done := make(chan struct{})
	go func() {
		e.Handle(netsim.Message{From: 1, To: 2, Kind: KindData,
			Payload: Envelope{Seq: 1, Gen: 1, Kind: "k", Payload: "p"}})
		close(done)
	}()
	<-hookEntered
	mu.Lock()
	n := acked
	mu.Unlock()
	if n != 0 {
		t.Fatal("ack departed before the durability hook returned")
	}
	close(gate)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Handle did not finish")
	}
	// The delayed-ack flush carries it once the window expires.
	testutil.WaitFor(t, "the ack after hook release", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return acked == 1
	})
}

// TestAckGateErrorWithholdsAck: an AckGate that cannot make the accepted
// envelopes durable keeps the ack in. The sender's retransmits — dedup-
// dropped duplicates here — each ask the gate again, and the ack leaves
// only once the gate succeeds.
func TestAckGateErrorWithholdsAck(t *testing.T) {
	const failures = 3
	reg := metrics.NewRegistry()
	gateCalls, acks, delivered := 0, 0, 0
	e := New(Config{
		AckDelay: time.Hour, // only the calls below reach the gate
		Metrics:  reg,
		AckGate: func() error {
			if gateCalls++; gateCalls <= failures {
				return errors.New("disk gone")
			}
			return nil
		},
	}, 2,
		func(m netsim.Message) error {
			if m.Kind == KindAck {
				acks++
			}
			return nil
		},
		func(ids.NodeID, string, any) { delivered++ },
		nil)
	defer e.Close()

	data := netsim.Message{From: 1, To: 2, Kind: KindData,
		Payload: Envelope{Seq: 1, Kind: "k", Payload: "p"}}
	e.Handle(data) // fresh: delivered, the ack is owed to the flush timer
	e.flushAck(1)  // the flush window expires: gate failure 1
	for i := 1; i < failures; i++ {
		e.Handle(data) // retransmits: gate failures 2..N
	}
	if acks != 0 {
		t.Fatalf("%d acks left while the gate was failing", acks)
	}
	if got := reg.Get(metrics.CtrRelAckWithheld); got != failures {
		t.Errorf("%s = %d, want %d", metrics.CtrRelAckWithheld, got, failures)
	}
	e.Handle(data) // the gate recovers: this retransmit is acked
	if acks != 1 {
		t.Fatalf("acks = %d once the gate succeeded, want 1", acks)
	}
	if delivered != 1 {
		t.Errorf("delivered %d copies, want exactly 1", delivered)
	}
}
