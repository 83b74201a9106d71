// Package metrics provides the counters the experiment harness uses to
// measure protocol costs: messages by kind, event lifecycle counts, handler
// executions and thread hops. Counters are cheap (atomic adds) and can be
// snapshotted and diffed, which is how the benchmarks report per-operation
// message costs rather than wall-clock noise.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter names used by the kernel. The set is open: any string is a valid
// counter, but the kernel sticks to these so experiments are comparable.
const (
	// Network fabric, charged by transport.Pipeline for every transport.
	// Delivered counts handler invocations: one per message, so a
	// coalesced frame counts once per record on both links. Sent counts
	// departures as the link charges them — per message, except that
	// netsim's timed coalescer charges a frame once and leaves its records
	// to the per-kind counters.
	CtrMsgSent      = "net.msg.sent"
	CtrMsgDelivered = "net.msg.delivered"
	CtrMsgDropped   = "net.msg.dropped"
	CtrMsgBytes     = "net.msg.bytes"
	CtrBroadcast    = "net.broadcast"
	CtrMulticast    = "net.multicast"

	// Invocation engine.
	CtrInvokeLocal  = "invoke.local"
	CtrInvokeRemote = "invoke.remote"
	CtrInvokeDSM    = "invoke.dsm"

	// Event machinery.
	CtrEventRaised      = "event.raised"
	CtrEventDelivered   = "event.delivered"
	CtrEventDefault     = "event.default_action"
	CtrHandlerRunThread = "handler.run.thread"
	CtrHandlerRunObject = "handler.run.object"
	CtrHandlerRunBuddy  = "handler.run.buddy"
	CtrHandlerRunOwnCtx = "handler.run.ownctx"
	CtrSurrogateRuns    = "handler.surrogate"
	CtrChainLinksWalked = "handler.chain.links"

	// Thread management.
	CtrThreadSpawn      = "thread.spawn"
	CtrThreadHop        = "thread.hop"
	CtrThreadLocate     = "thread.locate"
	CtrLocateProbe      = "thread.locate.probe"
	CtrLocateCacheHit   = "thread.locate.cache.hit"
	CtrLocateCacheMiss  = "thread.locate.cache.miss"
	CtrLocateCacheStale = "thread.locate.cache.stale"
	CtrThreadCreated    = "thread.goroutine.created"
	CtrMasterServed     = "object.master.served"

	// DSM.
	CtrPageFault      = "dsm.fault"
	CtrPageFetch      = "dsm.fetch"
	CtrPageInvalidate = "dsm.invalidate"
	CtrUserFault      = "dsm.userfault"

	// Locks.
	CtrLockAcquire = "lock.acquire"
	CtrLockRelease = "lock.release"
	CtrLockCleanup = "lock.cleanup"
	CtrLockReclaim = "lock.reclaim"

	// Reliable transport.
	CtrRelSend       = "rel.send"
	CtrRelRetry      = "rel.retry"
	CtrRelDupDropped = "rel.dup.dropped"
	CtrRelDeadLetter = "rel.deadletter"

	// Errors the kernel had no caller to return to (best-effort sends,
	// background WAL maintenance): the total; ErrDropped names the
	// per-site counter next to it.
	CtrErrDropped = "core.err.dropped"

	// Failure detection and recovery.
	CtrFDSuppressed  = "failure.heartbeat.suppressed"
	CtrFDNodeDown    = "failure.node.down"
	CtrFDNodeUp      = "failure.node.up"
	CtrObjRecovered  = "failure.obj.recovered"
	CtrWaitersFailed = "failure.waiters.failed"

	// Gossip membership (SWIM-style probing with piggybacked dissemination,
	// DESIGN.md §7). ping/ack/pingreq count gossip messages sent by role;
	// updates counts piggybacked membership updates applied (fresh
	// information only); refute counts self-alive refutations enqueued after
	// hearing a rumor of our own death.
	CtrGossipPing    = "failure.gossip.ping"
	CtrGossipAck     = "failure.gossip.ack"
	CtrGossipPingReq = "failure.gossip.pingreq"
	CtrGossipUpdates = "failure.gossip.updates"
	CtrGossipRefute  = "failure.gossip.refute"

	// Consistent-hash placement directory (DESIGN.md §13): put/remove are
	// residency publications from the hosting kernel to the directory node;
	// get is a directory lookup RPC served; hit/miss split lookup outcomes
	// at the locating side.
	CtrDirPut  = "thread.locate.dir.put"
	CtrDirGet  = "thread.locate.dir.get"
	CtrDirHit  = "thread.locate.dir.hit"
	CtrDirMiss = "thread.locate.dir.miss"

	// Spanning-tree fan-out for group raise (DESIGN.md §13). relay counts
	// fanout frames re-forwarded by interior nodes; adopt counts subtree
	// adoptions around a suspected child; dup counts duplicate fanout
	// frames dropped by the (root, id) dedup window.
	CtrFanoutRelay = "fanout.relay"
	CtrFanoutAdopt = "fanout.adopt"
	CtrFanoutDup   = "fanout.dup"

	// Attribute delta codec (wire-efficiency layer, DESIGN.md §8).
	CtrAttrDeltaSent  = "attr.delta.sent"
	CtrAttrFullSent   = "attr.full.sent"
	CtrAttrResync     = "attr.resync"
	CtrAttrCacheHit   = "attr.cache.hit"
	CtrAttrCacheMiss  = "attr.cache.miss"
	CtrAttrCacheEvict = "attr.cache.evict"

	// Ack piggybacking (DESIGN.md §7). withheld counts standalone acks the
	// durability gate refused to release (reliable.Config.AckGate returned
	// an error).
	CtrRelAckPiggyback  = "rel.ack.piggyback"
	CtrRelAckStandalone = "rel.ack.standalone"
	CtrRelAckWithheld   = "rel.ack.withheld"

	// Per-link batch coalescing (hot send path, DESIGN.md §11). frames and
	// recs decompose coalesced traffic (recs/frames = mean batch size);
	// solo counts idle-link sends that shipped bare; the flush.* trio
	// attributes each frame to the threshold or window that shipped it.
	CtrBatchFrames     = "batch.frames"
	CtrBatchRecs       = "batch.recs"
	CtrBatchSolo       = "batch.solo"
	CtrBatchFlushSize  = "batch.flush.size"
	CtrBatchFlushBytes = "batch.flush.bytes"
	CtrBatchFlushTimer = "batch.flush.timer"
)

// Per-message-kind wire accounting. The fabric charges every message's
// bytes and count to a kind-suffixed counter as well as the totals, so
// experiments can decompose traffic (how much is heartbeats vs. acks vs.
// invocations) without guessing.
const (
	// KindBytesPrefix prefixes per-kind byte counters: net.bytes.<kind>.
	KindBytesPrefix = "net.bytes."
	// KindMsgsPrefix prefixes per-kind message counters: net.msgs.<kind>.
	KindMsgsPrefix = "net.msgs."
)

// KindBytes returns the per-kind wire-byte counter name for a message kind.
func KindBytes(kind string) string { return KindBytesPrefix + kind }

// KindMsgs returns the per-kind message counter name for a message kind.
func KindMsgs(kind string) string { return KindMsgsPrefix + kind }

// ErrDropped returns the per-site dropped-error counter name:
// core.err.dropped.<site>.
func ErrDropped(site string) string { return CtrErrDropped + "." + site }

// Per-class QoS dispatch accounting (DESIGN.md §15). Each dispatch-shard
// class queue charges depth (a gauge: +1 on admit, -1 on pop), enq
// (admissions), and shed (messages rejected at admission or evicted by a
// heavier class). Class names come from transport.Class.Name —
// "system", "control", "default", "t<N>". Hot paths resolve these names
// once per class via Registry.Counter and hold the atomic handles.
const DispatchQPrefix = "dispatch.q."

// DispatchQDepth returns the queue-depth gauge name for a class name.
func DispatchQDepth(class string) string { return DispatchQPrefix + class + ".depth" }

// DispatchQEnq returns the admissions counter name for a class name.
func DispatchQEnq(class string) string { return DispatchQPrefix + class + ".enq" }

// DispatchQShed returns the shed counter name for a class name.
func DispatchQShed(class string) string { return DispatchQPrefix + class + ".shed" }

// Registry is a concurrent counter set. The zero value is not usable; use
// NewRegistry.
type Registry struct {
	mu   sync.RWMutex
	ctrs map[string]*atomic.Int64
}

// NewRegistry returns an empty counter registry.
func NewRegistry() *Registry {
	return &Registry{ctrs: make(map[string]*atomic.Int64)}
}

// counter returns the counter for name, creating it if needed.
func (r *Registry) counter(name string) *atomic.Int64 {
	r.mu.RLock()
	c, ok := r.ctrs[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.ctrs[name]; ok {
		return c
	}
	c = new(atomic.Int64)
	r.ctrs[name] = c
	return c
}

// Counter returns the live *atomic.Int64 behind counter name, creating it
// if needed. Hot paths resolve a counter once and then Add on the handle
// directly, skipping the per-call map lookup (and, for fmt-built names like
// the per-kind wire counters, the string construction). Handles stay valid
// across Reset: Reset stores zero into the same atomics it hands out.
func (r *Registry) Counter(name string) *atomic.Int64 {
	return r.counter(name)
}

// Add increments counter name by delta.
func (r *Registry) Add(name string, delta int64) {
	r.counter(name).Add(delta)
}

// Inc increments counter name by one.
func (r *Registry) Inc(name string) { r.Add(name, 1) }

// Get returns the current value of counter name (zero if never touched).
func (r *Registry) Get(name string) int64 {
	r.mu.RLock()
	c, ok := r.ctrs[name]
	r.mu.RUnlock()
	if !ok {
		return 0
	}
	return c.Load()
}

// Snapshot returns a copy of every counter's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := make(Snapshot, len(r.ctrs))
	for name, c := range r.ctrs {
		s[name] = c.Load()
	}
	return s
}

// Reset zeroes every counter.
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.ctrs {
		c.Store(0)
	}
}

// Snapshot is a point-in-time copy of a Registry's counters.
type Snapshot map[string]int64

// Diff returns the counter deltas from earlier to s. Counters absent from
// earlier are treated as zero there.
func (s Snapshot) Diff(earlier Snapshot) Snapshot {
	out := make(Snapshot, len(s))
	for name, v := range s {
		if d := v - earlier[name]; d != 0 {
			out[name] = d
		}
	}
	return out
}

// Get returns the value of name, zero if absent.
func (s Snapshot) Get(name string) int64 { return s[name] }

// String renders the snapshot sorted by counter name, one per line.
func (s Snapshot) String() string {
	names := make([]string, 0, len(s))
	for name := range s {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%-28s %d\n", name, s[name])
	}
	return b.String()
}
