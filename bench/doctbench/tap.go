package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// The tap measures the transport from outside: a transport.Transport
// decorator handed to core.Config.Transport that timestamps every inner
// Send and every call of the receiving kernel's Handler. The n-th send on a
// directed link is the n-th handler entry on it (per-pair FIFO, loss off),
// which yields per message: the send call, the transit (send entry →
// handler entry: coalescing wait + queue wait + dispatch) and the handler
// call. The traced pass runs one client, so every message sent between an
// operation's start and end — failure-detector traffic and standalone acks
// aside — is that operation's child span.

// Message kinds that are never on an operation's critical path.
var backgroundKinds = map[string]bool{"k.fd.hb": true, "k.fd.gossip": true, "rel.ack": true}

const (
	maxSpanOps  = 2000 // operations whose spans are kept for the span file
	maxCaptures = 256  // payloads captured for the isolated wire-codec timing
)

// span is one line of the span file. Times are ns since the tap was made.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Msg    string `json:"msg,omitempty"` // message kind, on message spans
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// msgRec is one message in flight on a link.
type msgRec struct {
	kind string
	op   uint64 // operation it belongs to, 0 = none
	sent int64  // send entry
}

type tapLink struct {
	sendMu sync.Mutex // orders senders, so queue order is inner-Send order
	qMu    sync.Mutex
	q      []msgRec
}

// kindStat accumulates one message kind's handler time.
type kindStat struct {
	n  int64
	ns int64
}

// tapCore is the state the taps of one cluster share.
type tapCore struct {
	epoch time.Time
	on    atomic.Bool // record only inside the measured window

	linkMu sync.Mutex
	links  map[[2]ids.NodeID]*tapLink

	mu        sync.Mutex
	opID      uint64 // current operation, 0 between operations
	opName    string
	opStart   int64
	opSpan    uint64
	children  [][2]int64 // [send entry, handler return] of the operation's messages
	ops       int64
	selfNs    []int64 // per operation: span − union of children
	sendNs    []int64
	transitNs []int64
	handleNs  []int64
	byKind    map[string]*kindStat
	desync    atomic.Int64
	spans     []span
	spanSeq   uint64
	captures  []capture
}

// capture is one payload as it crossed the tap, wire-encoded on the spot
// (the kernel may mutate a delivered payload afterwards).
type capture struct {
	kind string
	enc  []byte
}

func newTapCore() *tapCore {
	return &tapCore{epoch: time.Now(), links: map[[2]ids.NodeID]*tapLink{}, byKind: map[string]*kindStat{}}
}

func (tc *tapCore) now() int64 { return time.Since(tc.epoch).Nanoseconds() }

func (tc *tapCore) link(from, to ids.NodeID) *tapLink {
	tc.linkMu.Lock()
	defer tc.linkMu.Unlock()
	key := [2]ids.NodeID{from, to}
	l := tc.links[key]
	if l == nil {
		l = &tapLink{}
		tc.links[key] = l
	}
	return l
}

// beginOp opens an operation span; messages sent until endOp are its
// children.
func (tc *tapCore) beginOp(name string) {
	tc.mu.Lock()
	tc.ops++
	tc.opID = uint64(tc.ops)
	tc.opName = name
	tc.opStart = tc.now()
	tc.children = tc.children[:0]
	tc.spanSeq++
	tc.opSpan = tc.spanSeq
	tc.mu.Unlock()
}

// endOp closes the operation: its self time is its span minus the union of
// its children's intervals.
func (tc *tapCore) endOp() {
	end := tc.now()
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.on.Load() {
		tc.selfNs = append(tc.selfNs, end-tc.opStart-unionLen(tc.children, tc.opStart, end))
	}
	if tc.opID <= maxSpanOps {
		tc.spans = append(tc.spans, span{ID: tc.opSpan, Op: tc.opID, Name: "op." + tc.opName, Start: tc.opStart, End: end})
	}
	tc.opID = 0
}

// unionLen is the length of the union of the intervals, clipped to [lo, hi].
// It sorts iv in place.
func unionLen(iv [][2]int64, lo, hi int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		switch {
		case !open:
			curLo, curHi, open = a, b, true
		case a <= curHi:
			curHi = max(curHi, b)
		default:
			total += curHi - curLo
			curLo, curHi = a, b
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// tap decorates one transport. Embedding the interface forwards everything
// but Attach and Send; Batching is forwarded by hand because core asks the
// transport for it by type assertion.
type tap struct {
	transport.Transport
	tc *tapCore
}

func (tc *tapCore) wrap(inner transport.Transport) *tap { return &tap{Transport: inner, tc: tc} }

// Batching implements transport.Batcher.
func (t *tap) Batching() bool {
	b, ok := t.Transport.(transport.Batcher)
	return ok && b.Batching()
}

// Send implements transport.Transport.
func (t *tap) Send(m transport.Message) error {
	tc := t.tc
	l := tc.link(m.From, m.To)
	l.sendMu.Lock()
	defer l.sendMu.Unlock()
	rec := msgRec{kind: m.Kind, sent: tc.now()}
	if !backgroundKinds[m.Kind] {
		tc.mu.Lock()
		rec.op = tc.opID
		tc.mu.Unlock()
	}
	l.qMu.Lock()
	l.q = append(l.q, rec)
	l.qMu.Unlock()
	err := t.Transport.Send(m)
	end := tc.now()
	if err != nil {
		// Nothing departed: take the record back unless it already matched.
		l.qMu.Lock()
		if n := len(l.q); n > 0 && l.q[n-1] == rec {
			l.q = l.q[:n-1]
		}
		l.qMu.Unlock()
		return err
	}
	if tc.on.Load() {
		tc.mu.Lock()
		if !backgroundKinds[m.Kind] {
			tc.sendNs = append(tc.sendNs, end-rec.sent)
		}
		if rec.op != 0 && rec.op <= maxSpanOps {
			tc.spanSeq++
			tc.spans = append(tc.spans, span{ID: tc.spanSeq, Parent: tc.opSpanFor(rec.op), Op: rec.op, Name: "send", Msg: m.Kind, Start: rec.sent, End: end})
		}
		tc.mu.Unlock()
	}
	return nil
}

// opSpanFor returns the span id of operation op if it is still open (the
// only case a child is emitted for). Caller holds tc.mu.
func (tc *tapCore) opSpanFor(op uint64) uint64 {
	if op == tc.opID {
		return tc.opSpan
	}
	return 0
}

// Attach implements transport.Transport, wrapping the kernel's handler.
func (t *tap) Attach(node ids.NodeID, h transport.Handler) error {
	tc := t.tc
	return t.Transport.Attach(node, func(m transport.Message) {
		l := tc.link(m.From, m.To)
		l.qMu.Lock()
		var rec msgRec
		matched := false
		for len(l.q) > 0 {
			rec, l.q = l.q[0], l.q[1:]
			if rec.kind == m.Kind {
				matched = true
				break
			}
			// A send that never arrived: the match has slipped.
			tc.desync.Add(1)
		}
		l.qMu.Unlock()
		if !matched {
			tc.desync.Add(1)
			h(m)
			return
		}
		var enc []byte
		if tc.on.Load() && !backgroundKinds[m.Kind] {
			tc.mu.Lock()
			want := len(tc.captures) < maxCaptures
			tc.mu.Unlock()
			if want {
				enc, _ = wire.EncodeValue(m.Payload) // unencodable payloads are simply not sampled
			}
		}
		start := tc.now()
		h(m)
		end := tc.now()
		if !tc.on.Load() {
			return
		}
		tc.mu.Lock()
		defer tc.mu.Unlock()
		if !backgroundKinds[m.Kind] {
			tc.transitNs = append(tc.transitNs, start-rec.sent)
		}
		tc.handleNs = append(tc.handleNs, end-start)
		ks := tc.byKind[m.Kind]
		if ks == nil {
			ks = &kindStat{}
			tc.byKind[m.Kind] = ks
		}
		ks.n++
		ks.ns += end - start
		if enc != nil && len(tc.captures) < maxCaptures {
			tc.captures = append(tc.captures, capture{kind: m.Kind, enc: enc})
		}
		if rec.op != 0 && rec.op == tc.opID {
			tc.children = append(tc.children, [2]int64{rec.sent, end})
			if rec.op <= maxSpanOps {
				tc.spans = append(tc.spans,
					span{ID: tc.spanSeq + 1, Parent: tc.opSpan, Op: rec.op, Name: "transit", Msg: m.Kind, Start: rec.sent, End: start},
					span{ID: tc.spanSeq + 2, Parent: tc.opSpan, Op: rec.op, Name: "handle", Msg: m.Kind, Start: start, End: end})
				tc.spanSeq += 2
			}
		}
	})
}

// writeSpans writes the kept spans as JSON lines.
func (tc *tapCore) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tc.mu.Lock()
	for _, s := range tc.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	tc.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
