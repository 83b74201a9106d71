// Package transport defines the cluster interconnect seam: the Transport
// interface the DO/CT kernel (internal/core) sends all cross-node traffic
// through, and the message vocabulary shared by every implementation.
//
// Two implementations exist: internal/netsim (the deterministic in-process
// simulator — latency/drop injection, virtual-clock support, the transport
// every test and experiment boots by default) and
// internal/transport/tcptransport (real TCP sockets with the
// internal/transport/wire binary codec, used by cmd/doctnode for
// multi-process clusters). The kernel cannot tell them apart, because the
// node side of both is the same code — Pipeline (node.go): FIFO delivery
// per (sender, receiver) pair, net.msg.* accounting, fault injection and
// the Close drain contract. Each implementation adds only its link.
package transport

import (
	"context"
	"errors"
	"strconv"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/transport/wire"
)

// Class is the QoS event class an envelope belongs to. Classes 0..253 are
// tenant classes scheduled by weighted fair queueing; the two reserved
// classes above them are strict-priority and never shed.
type Class uint8

const (
	// ClassDefault is the tenant class for unclassified traffic.
	ClassDefault Class = 0
	// ClassControl carries kernel correctness traffic that rides the event
	// path — TERMINATE chains, aborts, release verdicts, thread-death
	// notices. Strict priority below ClassSystem, never shed.
	ClassControl Class = 254
	// ClassSystem carries kernel plumbing — RPC responses, heartbeats,
	// gossip, directory traffic, acks. Highest strict priority, never shed.
	ClassSystem Class = 255
)

// Name returns the metrics/label name for a class: "system", "control",
// "default", or "t<N>" for tenant classes 1..253.
func (c Class) Name() string {
	switch c {
	case ClassSystem:
		return "system"
	case ClassControl:
		return "control"
	case ClassDefault:
		return "default"
	}
	return "t" + strconv.Itoa(int(c))
}

// ErrBackpressure is returned by Send (and surfaces through Raise /
// RaiseAndWait) when per-class admission control rejects the envelope: the
// receiver's tenant budget is full and the sender's class does not outrank
// any queued work. Callers should back off and retry; the reliable
// envelope does exactly that, so exactly-once delivery is preserved.
var ErrBackpressure = errors.New("transport: backpressure (class queue full)")

// QoSConfig configures multi-tenant dispatch: per-class admission control,
// deficit-weighted-round-robin scheduling across tenant classes, and
// overload shedding that protects system/control traffic.
type QoSConfig struct {
	// Enabled turns the QoS layer on. Off (the default), dispatch is the
	// classic FIFO sender-sharded inbox.
	Enabled bool
	// Weights maps tenant classes to DWRR weights. Unlisted classes get
	// weight 1. System/control classes are strict-priority and ignore
	// weights.
	Weights map[Class]int
	// Apps maps application names (thread attrs.App) to tenant classes so
	// the kernel can classify raises at the source. Transports ignore it.
	Apps map[string]Class
	// Depth bounds the total queued tenant-class messages per dispatch
	// shard. Zero means the transport's queue depth. System/control
	// queues are unbounded (they are self-limiting kernel traffic).
	Depth int
	// Quantum is the DWRR byte quantum credited per round to a class of
	// weight 1. Zero means DefaultQuantum.
	Quantum int
	// AllowVirtual lets QoS run under the virtual clock. Off (the
	// default), transports force QoS off when driven by a virtual clock
	// so deterministic-simulation digests stay byte-identical.
	AllowVirtual bool
}

// DefaultQuantum is the DWRR byte quantum for weight-1 classes.
const DefaultQuantum = 1024

// WeightOf resolves the DWRR weight for a tenant class (minimum 1).
func (q *QoSConfig) WeightOf(c Class) int {
	if q != nil {
		if w, ok := q.Weights[c]; ok && w > 0 {
			return w
		}
	}
	return 1
}

// Message is one envelope on the wire.
type Message struct {
	From    ids.NodeID
	To      ids.NodeID
	Kind    string // protocol message kind, e.g. "rpc.req"
	Payload any
	// Size is the message's size in bytes under the wire codec, on both
	// links: SizeOf(Payload) at departure if the sender left it zero, the
	// record's footprint in its frame for a socket arrival. A sender sets
	// it itself for a payload with no codec, or — the reliable layer — for
	// one that must not be walked again once a first copy has been delivered.
	Size  int
	Class Class // QoS event class (ClassDefault unless stamped)
}

// DefaultMessageSize is the byte charge for payloads without a wire codec
// (test and synthetic-workload payloads that only ever cross netsim).
const DefaultMessageSize = 64

// SizeOf is what either link charges a payload: the bytes the wire codec
// would write for it. Senders call it while they still solely own the
// payload.
func SizeOf(payload any) int {
	n, err := wire.EncodedSize(payload)
	if err != nil {
		return DefaultMessageSize
	}
	return n
}

// Handler consumes messages delivered to a node. Handlers run on the
// transport's dispatch goroutines; they must not block indefinitely.
// Messages from the same sender are always handled serially, in send
// order; messages from different senders may be handled concurrently, so
// handlers must be safe for concurrent calls.
type Handler func(Message)

// Transport is the cluster interconnect: asynchronous FIFO unicast between
// nodes, broadcast, and named multicast groups, with message accounting.
//
// Lifecycle: Attach every local node's handler, then Start, then exchange
// traffic, then Close. Close is a drain barrier — when it returns, no
// handler is running and none will run again (the satellite-6 contract;
// see TestNoHandlerAfterClose in transporttest).
type Transport interface {
	// Attach registers a locally-hosted node with its message handler.
	// Attach must be called before Start.
	Attach(node ids.NodeID, h Handler) error
	// Start launches delivery. Messages may be handled from here on.
	Start()
	// Send delivers m.Payload from m.From to m.To asynchronously. It
	// returns an error only for structural problems (unknown node, closed
	// transport); loss on the wire is silent, as on a real network.
	Send(m Message) error
	// Broadcast sends payload from the sender to every other node.
	Broadcast(from ids.NodeID, kind string, payload any) error
	// Multicast sends payload to every member of a named group (including
	// the sender if it is a member).
	Multicast(from ids.NodeID, group, kind string, payload any) error
	// JoinGroup adds node to the named multicast group, creating the
	// group on first join.
	JoinGroup(group string, node ids.NodeID)
	// LeaveGroup removes node from the named multicast group.
	LeaveGroup(group string, node ids.NodeID)
	// GroupMembers returns the current members of group.
	GroupMembers(group string) []ids.NodeID
	// Metrics returns the registry accounting this transport's traffic
	// (net.msg.sent, net.msg.bytes, per-kind decompositions, ...).
	Metrics() *metrics.Registry
	// DispatchWorkers returns the per-node dispatch parallelism: the
	// number of handler goroutines that may run concurrently per node.
	DispatchWorkers() int
	// Close stops delivery and drains: it blocks until every in-flight
	// handler has returned, bounded by ctx. After Close returns nil, no
	// handler runs again. A ctx expiry abandons the wait and returns
	// ctx.Err(); the transport is still closed, but handlers may be
	// mid-flight.
	Close(ctx context.Context) error
}

// FaultInjector is the optional fault-injection surface. Pipeline
// implements it for every transport; on tcptransport the view is
// process-local (it filters what enters and leaves this process).
// Callers type-assert and degrade gracefully.
type FaultInjector interface {
	// CutLink severs the directed link from → to: messages on it are
	// dropped.
	CutLink(from, to ids.NodeID)
	// HealLink restores a severed directed link.
	HealLink(from, to ids.NodeID)
	// Partition severs every link between the two node sets, in both
	// directions.
	Partition(sideA, sideB []ids.NodeID)
	// HealAll restores every severed link.
	HealAll()
	// SetDropRate changes the message drop probability for subsequent
	// sends.
	SetDropRate(rate float64)
	// CrashNode fail-stops node until RestartNode.
	CrashNode(node ids.NodeID) error
	// RestartNode brings a crashed node back.
	RestartNode(node ids.NodeID) error
	// Crashed reports whether node is currently fail-stopped.
	Crashed(node ids.NodeID) bool
}

// DirectedFaultInjector is the optional per-directed-link fault surface:
// asymmetric loss (acks lost while data flows, or vice versa) exercises
// retransmit/dedup paths that symmetric global loss cannot reach. The
// simulated transport implements it; real transports typically cannot.
type DirectedFaultInjector interface {
	// SetDropRateDirected sets the drop probability for messages on the
	// directed link from → to; the effective rate for a send is the
	// maximum of this and the global SetDropRate. Rate <= 0 clears it.
	SetDropRateDirected(from, to ids.NodeID, rate float64)
}

// Batcher is the optional coalescing probe: transports that batch sends
// into frames report it so layers above (the reliable envelope's
// retransmit backoff) can widen their timers past the flush window.
type Batcher interface {
	Batching() bool
}
