package reliable

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/netsim"
)

// FuzzReliableReorder throws an arbitrary schedule of envelope duplication,
// reordering and dropping at a receiving endpoint and checks the dedup
// window's guarantees. The fuzz input is a script: each byte either has the
// sender allocate a fresh sequence number, delivers some queued copy (the
// reorder), re-queues a copy of an already-sent envelope (the duplicate),
// or drops a queued copy. Two endpoints audit every schedule:
//
//   - a wide-window receiver, where no legitimate envelope can age out, must
//     deliver every sequence that reached it at least once, exactly once;
//   - a 4-sequence-window receiver, where the schedule can legally evict,
//     must still never deliver twice, keep its cumulative frontier monotone
//     and at or below the maximum seen, keep the out-of-order set above the
//     frontier and within its pruning bound, and ack every data envelope
//     (duplicates included — the peer is retransmitting because an ack was
//     lost).
func FuzzReliableReorder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x40, 0x00, 0x40})
	// Send several, deliver in reverse, then replay them all.
	f.Add([]byte{0x00, 0x00, 0x00, 0x43, 0x42, 0x41, 0x40, 0x80, 0x81, 0x40, 0x40})
	// Interleave drops with duplicates.
	f.Add([]byte{0x00, 0x00, 0xc0, 0x00, 0x80, 0x40, 0x40, 0x40})

	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		for _, window := range []int{0 /* default: effectively unbounded here */, 4} {
			runReorderSchedule(t, script, window)
		}
	})
}

// runReorderSchedule replays one perturbation script against a receiver
// with the given dedup window (0 = package default).
func runReorderSchedule(t *testing.T, script []byte, window int) {
	t.Helper()
	const sender, self = ids.NodeID(1), ids.NodeID(2)

	var delivered []uint64
	var acks int
	recv := New(
		// An hour-long flush window keeps the delayed-ack timer out of the
		// run: every ack counted below left synchronously from Handle.
		Config{Window: window, AckDelay: time.Hour},
		self,
		func(m netsim.Message) error { acks++; return nil },
		func(_ ids.NodeID, _ string, payload any) {
			delivered = append(delivered, payload.(uint64))
		},
		nil,
	)
	defer recv.Close()

	handle := func(seq uint64) {
		recv.Handle(netsim.Message{
			From: sender, To: self, Kind: KindData,
			Payload: Envelope{Seq: seq, Kind: "fuzz", Payload: seq},
		})
	}

	// queue holds undelivered copies; sent remembers every allocated
	// sequence so duplicates can resurrect long-retired envelopes.
	var queue, sent []uint64
	var next uint64
	handled := 0
	arrived := map[uint64]bool{} // sequences that reached Handle at least once
	var lastCum uint64
	for _, op := range script {
		pick := int(op & 0x3f)
		switch op >> 6 {
		case 0: // sender allocates and queues a fresh envelope
			next++
			queue = append(queue, next)
			sent = append(sent, next)
		case 1: // deliver one queued copy, position picked by the script
			if len(queue) == 0 {
				continue
			}
			i := pick % len(queue)
			seq := queue[i]
			queue = append(queue[:i], queue[i+1:]...)
			handle(seq)
			handled++
			arrived[seq] = true
		case 2: // retransmit: queue a duplicate copy of any sent envelope
			if len(sent) == 0 {
				continue
			}
			queue = append(queue, sent[pick%len(sent)])
		case 3: // the fabric drops one queued copy
			if len(queue) == 0 {
				continue
			}
			i := pick % len(queue)
			queue = append(queue[:i], queue[i+1:]...)
		}
		checkPeerInvariants(t, recv, sender, next, &lastCum)
	}
	// Flush the queue so "sent and never dropped" implies "arrived".
	for _, seq := range queue {
		handle(seq)
		handled++
		arrived[seq] = true
	}
	checkPeerInvariants(t, recv, sender, next, &lastCum)

	// Exactly-once: no sequence is ever delivered twice, whatever the
	// window.
	seen := map[uint64]bool{}
	for _, seq := range delivered {
		if seen[seq] {
			t.Fatalf("window=%d: seq %d delivered twice (script=%x)", window, seq, script)
		}
		seen[seq] = true
	}
	// Completeness needs a window wide enough that nothing legitimate can
	// age out; the script allocates at most 256 sequences, well under the
	// 4096 default.
	if window == 0 {
		for seq := range arrived {
			if !seen[seq] {
				t.Fatalf("default window: seq %d arrived but was never delivered (script=%x)", seq, script)
			}
		}
	}
	// Every data envelope is acked: a duplicate at once (the peer only
	// retransmits because it believes the ack was lost), a fresh one
	// through the ack debt the flush timer or the next reverse envelope
	// settles.
	if dups := handled - len(delivered); acks != dups {
		t.Fatalf("window=%d: %d duplicates but %d immediate acks (script=%x)", window, dups, acks, script)
	}
	if p := recv.lookup(sender); len(delivered) > 0 && !p.ackOwed {
		t.Fatalf("window=%d: %d fresh envelopes left no ack debt (script=%x)", window, len(delivered), script)
	}
}

// checkPeerInvariants audits the receiver's per-sender dedup state: the
// cumulative frontier is monotone and never exceeds the maximum sequence
// seen or the highest allocated, the out-of-order set sits strictly above
// the frontier, and lazy pruning keeps it within its documented bound.
func checkPeerInvariants(t *testing.T, e *Endpoint, from ids.NodeID, maxAllocated uint64, lastCum *uint64) {
	t.Helper()
	p := e.lookup(from)
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cum < *lastCum {
		t.Fatalf("frontier moved backward: %d after %d", p.cum, *lastCum)
	}
	*lastCum = p.cum
	if p.cum > p.max {
		t.Fatalf("frontier %d above max seen %d", p.cum, p.max)
	}
	if p.max > maxAllocated {
		t.Fatalf("max seen %d above highest allocated %d", p.max, maxAllocated)
	}
	for s := range p.seen {
		if s <= p.cum {
			t.Fatalf("out-of-order set holds %d at or below frontier %d", s, p.cum)
		}
	}
	if len(p.seen) > 2*e.cfg.Window {
		t.Fatalf("out-of-order set %d exceeds prune bound %d", len(p.seen), 2*e.cfg.Window)
	}
}
