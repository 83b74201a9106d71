package netsim

// Per-link send coalescing (DESIGN.md §11). With batching on, Send no
// longer posts one fabric message per logical message: messages bound for
// the same directed link accumulate in a pending batch frame that ships
// when it fills (record or byte threshold) or when the link's flush window
// expires. An idle link stays fast — the first message after a quiet
// window ships bare, paying neither framing bytes nor flush latency — so
// coalescing only engages at the sustained rates where per-message
// overhead dominates (E12/E13). A batch.Rider (a standalone ack) joins a
// pending frame but never makes a link hot: alone it ships bare and the
// window stays as it was.
//
// FIFO: every post for a link — bare sends, size flushes, timer flushes —
// happens under that link's lock, and a frame lands on the same
// sender-keyed inbox shard as a bare message from the same sender, so
// per-(sender,receiver) order is exactly the unbatched fabric's.
//
// Under a *vclock.Virtual clock batching is forced off entirely (like
// DispatchWorkers): the deterministic-simulation digest depends on
// per-message delivery, and a flush timer would interleave with protocol
// timers in the virtual heap.

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// KindBatch is the wire kind of a coalesced batch frame. Its payload is a
// *batch.Frame; dispatch unbundles the records at the destination, so
// handlers only ever see the inner kinds.
const KindBatch = "net.batch"

// Batch coalescing defaults.
const (
	// DefaultBatchMaxMsgs flushes a frame at this many records.
	DefaultBatchMaxMsgs = 32
	// DefaultBatchMaxBytes flushes a frame at this encoded footprint.
	DefaultBatchMaxBytes = 16 << 10
	// DefaultFlushInterval is the flush window: the longest a message
	// waits in a pending frame, and the quiet time after which a link's
	// next message ships bare. It sits under the reliable layer's ack
	// delay so batching compounds with, rather than defeats, piggybacking.
	DefaultFlushInterval = 500 * time.Microsecond
)

// BatchConfig parameterizes per-link send coalescing.
type BatchConfig struct {
	// Enabled turns coalescing on. Off (the default), every Send posts its
	// own fabric message, exactly as before. Forced off under a
	// *vclock.Virtual clock regardless.
	Enabled bool
	// MaxMsgs flushes a pending frame at this record count
	// (0 = DefaultBatchMaxMsgs).
	MaxMsgs int
	// MaxBytes flushes a pending frame at this encoded footprint
	// (0 = DefaultBatchMaxBytes).
	MaxBytes int
	// FlushInterval bounds how long a message may sit in a pending frame
	// (0 = DefaultFlushInterval).
	FlushInterval time.Duration
}

// batcher is a fabric's resolved batching state: thresholds, counter
// handles, and the per-directed-link pending frames.
type batcher struct {
	maxMsgs  int
	maxBytes int
	interval time.Duration

	ctrFrames     *atomic.Int64 // batch.frames: frames shipped
	ctrRecs       *atomic.Int64 // batch.recs: records shipped inside frames
	ctrSolo       *atomic.Int64 // batch.solo: bare sends on idle links
	ctrFlushSize  *atomic.Int64 // batch.flush.size: record-threshold flushes
	ctrFlushBytes *atomic.Int64 // batch.flush.bytes: byte-threshold flushes
	ctrFlushTimer *atomic.Int64 // batch.flush.timer: window-expiry flushes

	mu    sync.RWMutex
	links map[linkKey]*linkBatch
}

// linkKey identifies one pending-frame stream. With QoS off, class is
// always ClassDefault and frames coalesce across classes exactly as
// before; with QoS on, each class gets its own frame per directed link so
// a frame stays homogeneous and the destination qdisc can schedule (or
// shed) it as a unit without mixing tenants with system traffic.
type linkKey struct {
	from, to ids.NodeID
	class    transport.Class
}

// linkBatch is the coalescing state of one directed link (and, with QoS
// on, one class). Its mutex orders every post on the link; the flush timer
// and senders serialize on it.
type linkBatch struct {
	from, to ids.NodeID
	class    transport.Class

	mu         sync.Mutex
	pending    *batch.Frame // nil when nothing is waiting
	timer      *vclock.Timer
	timerArmed bool
	lastFlush  time.Time // last departure (bare or frame) on this link
}

func newBatcher(cfg BatchConfig, reg *metrics.Registry) *batcher {
	if cfg.MaxMsgs <= 0 {
		cfg.MaxMsgs = DefaultBatchMaxMsgs
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultBatchMaxBytes
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = DefaultFlushInterval
	}
	return &batcher{
		maxMsgs:       cfg.MaxMsgs,
		maxBytes:      cfg.MaxBytes,
		interval:      cfg.FlushInterval,
		ctrFrames:     reg.Counter(metrics.CtrBatchFrames),
		ctrRecs:       reg.Counter(metrics.CtrBatchRecs),
		ctrSolo:       reg.Counter(metrics.CtrBatchSolo),
		ctrFlushSize:  reg.Counter(metrics.CtrBatchFlushSize),
		ctrFlushBytes: reg.Counter(metrics.CtrBatchFlushBytes),
		ctrFlushTimer: reg.Counter(metrics.CtrBatchFlushTimer),
		links:         make(map[linkKey]*linkBatch),
	}
}

// link returns the coalescing state for from→to (per class with QoS on),
// creating it on first use.
func (b *batcher) link(from, to ids.NodeID, class transport.Class) *linkBatch {
	key := linkKey{from: from, to: to, class: class}
	b.mu.RLock()
	lb := b.links[key]
	b.mu.RUnlock()
	if lb != nil {
		return lb
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if lb = b.links[key]; lb != nil {
		return lb
	}
	lb = &linkBatch{from: from, to: to, class: class}
	b.links[key] = lb
	return lb
}

// Batching reports whether this fabric coalesces sends (false when
// disabled by config or forced off under a virtual clock).
func (f *Fabric) Batching() bool { return f.bat != nil }

// batchSend is Send's coalescing path. severed is the link state observed
// at send time; it applies to a bare post, while a flushed frame re-checks
// at departure (the cut may change while records wait).
func (f *Fabric) batchSend(m Message, severed bool) {
	cls := transport.ClassDefault
	if f.QoSEnabled() {
		cls = m.Class
	}
	lb := f.bat.link(m.From, m.To, cls)
	lb.mu.Lock()
	defer lb.mu.Unlock()
	now := f.clk.Now()
	_, rider := m.Payload.(batch.Rider)
	if lb.pending == nil && (rider || now.Sub(lb.lastFlush) >= f.bat.interval) {
		// Idle link: nothing pending and the flush window has passed since
		// the last departure. Ship bare — no framing bytes, no added
		// latency — and let the window start over. A rider with no frame
		// to join ships bare too, but leaves the window as it was.
		if !rider {
			lb.lastFlush = now
		}
		f.bat.ctrSolo.Add(1)
		f.post(m, severed)
		return
	}
	if m.Size == 0 {
		m.Size = transport.SizeOf(m.Payload)
	}
	// Inner records keep their per-kind accounting (charged here, at
	// append) so traffic decomposition still works; the frame itself is
	// charged to net.msg.sent and the net.batch kind at flush. Per-kind
	// message sums therefore exceed net.msg.sent with batching on.
	f.ChargeKind(m.Kind, m.Size)
	if lb.pending == nil {
		lb.pending = batch.Get()
	}
	lb.pending.Append(batch.Rec{Kind: m.Kind, Payload: m.Payload, Size: m.Size})
	switch {
	case lb.pending.Len() >= f.bat.maxMsgs:
		f.flushLink(lb, f.bat.ctrFlushSize)
	case lb.pending.Bytes() >= f.bat.maxBytes:
		f.flushLink(lb, f.bat.ctrFlushBytes)
	case !lb.timerArmed:
		// Flush when the window that opened at the last departure closes.
		wait := lb.lastFlush.Add(f.bat.interval).Sub(now)
		if wait <= 0 {
			wait = f.bat.interval
		}
		if lb.timer == nil {
			lb.timer = f.clk.AfterFunc(wait, func() { f.flushTimer(lb) })
		} else {
			lb.timer.Reset(wait)
		}
		lb.timerArmed = true
	}
}

// flushTimer is the flush-window timer body. A stale firing — the timer
// lost the Stop race against a threshold flush and a new batch has started
// since — flushes that batch early: harmless (the window only bounds how
// long a record may wait, it is not a minimum).
func (f *Fabric) flushTimer(lb *linkBatch) {
	select {
	case <-f.Done():
		return
	default:
	}
	lb.mu.Lock()
	defer lb.mu.Unlock()
	lb.timerArmed = false
	if lb.pending != nil {
		f.flushLink(lb, f.bat.ctrFlushTimer)
	}
}

// flushLink ships the pending frame. Caller holds lb.mu. Link state
// (severed, crashed) is re-checked at departure, and the whole frame is
// subject to one drop roll — a lost datagram loses all its records, which
// the reliable layer's retransmits (re-batched like any send) recover.
func (f *Fabric) flushLink(lb *linkBatch, cause *atomic.Int64) {
	fr := lb.pending
	lb.pending = nil
	lb.lastFlush = f.clk.Now()
	if lb.timerArmed {
		lb.timer.Stop()
		lb.timerArmed = false
	}
	cause.Add(1)
	f.bat.ctrFrames.Add(1)
	f.bat.ctrRecs.Add(int64(fr.Len()))
	fr.Finalize()
	_, severed, _ := f.Route(lb.from, lb.to)
	f.post(Message{From: lb.from, To: lb.to, Kind: KindBatch, Payload: fr, Size: fr.Footprint(), Class: lb.class}, severed)
}

// stopBatchTimers disarms every link's flush timer at Close. Pending
// frames are abandoned like any queued message. Called after Shutdown has
// released the pipeline lock: a flush in progress holds lb.mu while it
// calls Route.
func (f *Fabric) stopBatchTimers() {
	if f.bat == nil {
		return
	}
	f.bat.mu.RLock()
	links := make([]*linkBatch, 0, len(f.bat.links))
	for _, lb := range f.bat.links {
		links = append(links, lb)
	}
	f.bat.mu.RUnlock()
	for _, lb := range links {
		lb.mu.Lock()
		if lb.timerArmed {
			lb.timer.Stop()
			lb.timerArmed = false
		}
		lb.mu.Unlock()
	}
}
