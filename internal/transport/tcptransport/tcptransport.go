// Package tcptransport is the real-socket implementation of
// transport.Transport: a cluster of OS processes exchanging kernel
// traffic over loopback or LAN TCP, framed by internal/batch and encoded
// by internal/transport/wire.
//
// Topology is static: Config.Peers maps every node in the cluster to the
// listen address of the process hosting it. Each process hosts one or
// more nodes (Attach), listens on Config.Listen, and dials peers on
// demand — the first Send toward an address opens one outbound TCP
// connection to it, owned by a writer goroutine that coalesces queued
// messages into length-prefixed batch frames. Connections are
// unidirectional: a process sends only on connections it dialed and
// receives only on connections it accepted, so two processes exchanging
// traffic hold one socket per direction and no connection is ever shared
// between a reader and a writer.
//
// Failures follow the datagram contract of transport.Transport: a send
// into a dead, unreachable or congested peer is silently dropped (and
// counted) — the reliable envelope above retransmits, the failure
// detector above notices silence. A broken connection is redialed with
// exponential backoff capped at Config.RetryMax.
//
// Byte accounting is in the unit netsim uses — what the wire codec writes
// for a payload — plus what only a socket pays: per-kind counters charge
// each message its encoded record footprint (kind, From/To/Class varints,
// length prefixes, payload) and net.msg.bytes adds each frame's record
// count. E14 and transporttest compare the two links on the same traffic.
//
// The node side — attached nodes, dispatch shards, the cut/crash/drop
// table, accounting — is transport.Pipeline, shared with netsim. Its
// FaultInjector surface therefore has a process-local view here:
// CrashNode/CutLink/SetDropRate filter traffic entering and leaving *this*
// process, which is what single-process multi-System tests need. A real
// multi-process chaos test kills the process instead.
package tcptransport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/transport/qdisc"
)

// Tunable defaults; see Config.
const (
	DefaultDialTimeout      = 2 * time.Second
	DefaultHandshakeTimeout = 5 * time.Second
	DefaultRetryBase        = 50 * time.Millisecond
	DefaultRetryMax         = 2 * time.Second

	// maxFrame bounds one length-prefixed frame on the wire; a peer
	// announcing more is treated as corrupt and disconnected.
	maxFrame = 16 << 20
	// maxCoalesce bounds how many queued messages one socket write
	// carries. Coalescing is opportunistic — whatever is already queued
	// goes out together — so it never adds latency, only saves syscalls.
	maxCoalesce = 64
)

// Config parameterizes a Transport.
type Config struct {
	// Listen is the TCP address this process accepts peer connections on
	// (e.g. "127.0.0.1:7001"; ":0" picks a free port — read it back with
	// Addr). Required.
	Listen string
	// Peers maps every node in the cluster — including the ones hosted
	// here — to the listen address of its process. Addresses for nodes
	// attached locally are ignored (local traffic never touches a
	// socket). May be supplied or replaced later with SetPeers, as long
	// as it happens before Start.
	Peers map[ids.NodeID]string
	// Generation is this process's incarnation epoch, announced in the
	// connection handshake for diagnostics. The restart-surviving dedup
	// lives in reliable.Config.Generation; transports only carry it.
	Generation uint64
	// DialTimeout bounds one connection attempt (0 = 2s).
	DialTimeout time.Duration
	// HandshakeTimeout bounds the hello exchange on a fresh connection
	// (0 = 5s).
	HandshakeTimeout time.Duration
	// RetryBase/RetryMax shape the reconnect backoff: the delay after a
	// failed dial starts at RetryBase and doubles to at most RetryMax
	// (0 = 50ms / 2s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// QueueDepth is the capacity of each outbound per-peer queue and each
	// inbound per-shard dispatch queue (0 = 1024). A full outbound queue
	// drops (the peer is unreachable and the reliable layer retries); a
	// full inbound shard exerts TCP backpressure on the sender.
	QueueDepth int
	// DispatchWorkers is the per-node dispatch parallelism: inbound
	// messages are sharded by sender, preserving per-pair FIFO while
	// letting different senders' handlers run concurrently. Zero picks
	// GOMAXPROCS; negative forces 1.
	DispatchWorkers int
	// QoS enables per-class weighted fair dispatch (DESIGN.md §15): each
	// inbound shard becomes a classful qdisc — system and control classes
	// bypass tenant queueing, tenant classes share QoS.Depth slots under
	// DWRR, and admission sheds instead of blocking. Local sends that are
	// rejected return transport.ErrBackpressure; socket arrivals that are
	// rejected are counted dropped (the reliable layer retransmits). The
	// zero value keeps plain FIFO shards.
	QoS transport.QoSConfig
	// Metrics receives message accounting. Nil creates a private registry.
	Metrics *metrics.Registry
	// Logf, when non-nil, receives connection lifecycle and corruption
	// diagnostics (think log.Printf). Nil discards them.
	Logf func(format string, args ...any)
}

// Transport is a live TCP transport. Create with New, attach local nodes
// with Attach, then Start. All methods are safe for concurrent use.
type Transport struct {
	*transport.Pipeline
	cfg Config
	ln  net.Listener

	mu    sync.RWMutex
	peers map[ids.NodeID]string
	links map[string]*link // remote address -> outbound link

	// Open sockets (dialed and accepted), tracked so Close can unblock
	// every reader and writer immediately.
	connMu sync.Mutex
	conns  map[net.Conn]bool

	rngMu sync.Mutex
	rng   *rand.Rand
}

// New opens the listener and returns a Transport ready for Attach. The
// listen port is bound immediately so Addr is valid before Start — a
// test can boot N transports on ":0", collect their addresses, and only
// then hand each the full peer map via SetPeers.
func New(cfg Config) (*Transport, error) {
	if cfg.Listen == "" {
		return nil, errors.New("tcptransport: Config.Listen is required")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = DefaultHandshakeTimeout
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = DefaultRetryBase
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = DefaultRetryMax
	}
	workers := cfg.DispatchWorkers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("tcptransport: listen %s: %w", cfg.Listen, err)
	}
	t := &Transport{
		cfg:   cfg,
		ln:    ln,
		peers: make(map[ids.NodeID]string),
		links: make(map[string]*link),
		conns: make(map[net.Conn]bool),
		rng:   rand.New(rand.NewSource(1)),
	}
	t.Pipeline = transport.NewPipeline(transport.PipelineConfig{
		Workers:    workers,
		QueueDepth: cfg.QueueDepth,
		Metrics:    cfg.Metrics,
		QoS:        cfg.QoS,
		NewQueue:   qdisc.NewShard,
		Remote:     func(n ids.NodeID) bool { _, ok := t.peerAddr(n); return ok },
	})
	for n, addr := range cfg.Peers {
		t.peers[n] = addr
	}
	return t, nil
}

// Addr returns the bound listen address (useful with Listen ":0").
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// SetPeers replaces the node → address map. Must be called before Start.
func (t *Transport) SetPeers(peers map[ids.NodeID]string) error {
	if t.Started() {
		return errors.New("tcptransport: SetPeers after Start")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peers = make(map[ids.NodeID]string, len(peers))
	for n, addr := range peers {
		t.peers[n] = addr
	}
	return nil
}

func (t *Transport) peerAddr(n ids.NodeID) (string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	addr, ok := t.peers[n]
	return addr, ok
}

// Start launches the accept loop and the dispatch goroutines.
func (t *Transport) Start() {
	if t.Pipeline.Start() {
		t.Go(t.acceptLoop)
	}
}

// Send delivers m.Payload from m.From to m.To asynchronously: locally
// attached destinations go straight to their dispatch shard, remote ones
// are queued on the outbound link toward their process. It returns an
// error only for structural problems (unknown node, closed transport);
// loss — severed/crashed filters, full queues, broken connections — is
// silent and counted, exactly the datagram contract netsim implements.
// With QoS on, a local destination whose admission rejects the message
// additionally returns transport.ErrBackpressure (socket arrivals shed
// silently instead — the reliable layer retransmits).
func (t *Transport) Send(m transport.Message) error {
	local, severed, err := t.Route(m.From, m.To)
	if err != nil {
		return err
	}
	lost := severed || t.roll()
	if local {
		// Never touches a socket: charged its encoded size, as on netsim.
		return t.Post(m, lost)
	}
	addr, known := t.peerAddr(m.To)
	if !known {
		return fmt.Errorf("%w: %v", transport.ErrUnknownNode, m.To)
	}
	if lost {
		t.dropUnsent(m)
		return nil
	}
	l := t.linkFor(addr)
	if l == nil {
		return transport.ErrClosed
	}
	select {
	case l.out <- m:
	default:
		// Queue full: the peer is down or drowning. Drop — the reliable
		// envelope retransmits after the link recovers.
		t.dropUnsent(m)
	}
	return nil
}

// dropUnsent accounts a remote message lost before it reached the socket:
// it departed (charged the payload's encoded size, the unit delivered
// messages are measured in, less the record framing it never got) and was
// dropped on the floor.
func (t *Transport) dropUnsent(m transport.Message) {
	size := m.Size
	if size == 0 {
		size = transport.SizeOf(m.Payload)
	}
	t.ChargeSend(m.Kind, size)
	t.Drop(1)
}

// Broadcast sends payload from the sender to every other node in the
// cluster (local and remote alike).
func (t *Transport) Broadcast(from ids.NodeID, kind string, payload any) error {
	if err := t.BeginBroadcast(); err != nil {
		return err
	}
	targets := t.Nodes()
	t.mu.RLock()
	for n := range t.peers {
		if !t.Attached(n) {
			targets = append(targets, n)
		}
	}
	t.mu.RUnlock()
	for _, n := range targets {
		if n != from {
			// Broadcasts are kernel plumbing (membership, probes): ClassSystem.
			_ = t.Send(transport.Message{From: from, To: n, Kind: kind, Payload: payload, Class: transport.ClassSystem})
		}
	}
	return nil
}

// Multicast sends payload to every member of group (including the sender
// if it is a member), per this process's view of the membership.
func (t *Transport) Multicast(from ids.NodeID, group, kind string, payload any) error {
	members, err := t.BeginMulticast(group)
	if err != nil {
		return err
	}
	for _, n := range members {
		_ = t.Send(transport.Message{From: from, To: n, Kind: kind, Payload: payload, Class: transport.ClassSystem})
	}
	return nil
}

// JoinGroup adds node to the named multicast group. Membership of
// locally-hosted nodes is authoritative here and replicated to every
// peer process (incrementally now, and in the connection handshake's
// snapshot for peers that connect later).
func (t *Transport) JoinGroup(group string, node ids.NodeID) {
	t.Pipeline.JoinGroup(group, node)
	t.replicateGroup(groupUpdate{Group: group, Node: node})
}

// LeaveGroup removes node from the named multicast group.
func (t *Transport) LeaveGroup(group string, node ids.NodeID) {
	t.Pipeline.LeaveGroup(group, node)
	t.replicateGroup(groupUpdate{Group: group, Node: node, Leave: true})
}

// replicateGroup announces a membership change of a locally-hosted node to
// every peer process. It rides the normal message path as a transport-
// internal control record, so it shares ordering with the data stream
// toward each peer.
func (t *Transport) replicateGroup(u groupUpdate) {
	if t.Attached(u.Node) && t.Started() {
		_ = t.Broadcast(u.Node, kindGroup, u)
	}
}

// localGroups snapshots the groups containing locally-hosted nodes — the
// slice of the membership this process is authoritative for, announced in
// connection handshakes.
func (t *Transport) localGroups(local []ids.NodeID) map[string][]ids.NodeID {
	hosted := make(map[ids.NodeID]bool, len(local))
	for _, n := range local {
		hosted[n] = true
	}
	out := make(map[string][]ids.NodeID)
	for g, members := range t.Groups() {
		for _, n := range members {
			if hosted[n] {
				out[g] = append(out[g], n)
			}
		}
	}
	return out
}

// mergePeerGroups applies a peer's authoritative snapshot for the nodes it
// hosts: memberships the snapshot no longer lists are dropped, the ones it
// lists are (re-)added. A membership that stays valid is never removed in
// between, so a concurrent Multicast cannot miss it. Incremental updates
// keep the view current afterwards.
func (t *Transport) mergePeerGroups(peerNodes []ids.NodeID, snapshot map[string][]ids.NodeID) {
	owned := make(map[ids.NodeID]bool, len(peerNodes))
	for _, n := range peerNodes {
		owned[n] = true
	}
	listed := make(map[string]map[ids.NodeID]bool, len(snapshot))
	for g, members := range snapshot {
		listed[g] = make(map[ids.NodeID]bool, len(members))
		for _, n := range members {
			if owned[n] {
				listed[g][n] = true
				t.Pipeline.JoinGroup(g, n)
			}
		}
	}
	for g, members := range t.Groups() {
		for _, n := range members {
			if owned[n] && !listed[g][n] {
				t.Pipeline.LeaveGroup(g, n)
			}
		}
	}
}

// linkFor returns (creating on first use) the outbound link toward addr.
func (t *Transport) linkFor(addr string) *link {
	t.mu.RLock()
	l := t.links[addr]
	t.mu.RUnlock()
	if l != nil {
		return l
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if l = t.links[addr]; l != nil {
		return l
	}
	l = &link{t: t, addr: addr, out: make(chan transport.Message, t.QueueDepth()), kick: make(chan struct{}, 1)}
	if !t.Go(l.run) {
		return nil
	}
	t.links[addr] = l
	return l
}

// kickLinks wakes the outbound links toward the given peer nodes out of
// any dial backoff. Called from the accept path when a peer's inbound
// connection handshakes: that peer's process is demonstrably reachable,
// so a backed-off redial toward it should run now, not after the tail of
// a capped exponential delay. Matters most across a peer restart — the
// restarted process dials us within milliseconds, while our old backoff
// (grown while it was down) could otherwise delay our heartbeats past
// its fresh detector's suspicion threshold.
func (t *Transport) kickLinks(nodes []ids.NodeID) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	kicked := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		addr, ok := t.peers[n]
		if !ok || kicked[addr] {
			continue
		}
		kicked[addr] = true
		if l := t.links[addr]; l != nil {
			select {
			case l.kick <- struct{}{}:
			default: // a kick is already pending
			}
		}
	}
}

// trackConn registers an open socket so Close can tear it down; it
// reports false (and closes the socket) when the transport is closed.
func (t *Transport) trackConn(c net.Conn) bool {
	t.connMu.Lock()
	defer t.connMu.Unlock()
	select {
	case <-t.Done():
		c.Close()
		return false
	default:
	}
	t.conns[c] = true
	return true
}

func (t *Transport) untrackConn(c net.Conn) {
	t.connMu.Lock()
	delete(t.conns, c)
	t.connMu.Unlock()
}

// Close stops delivery and drains: the listener and every socket are
// torn down, and Close blocks until every dispatch, reader and writer
// goroutine has exited — so no handler is mid-flight and none will run
// again — bounded by ctx. Queued messages are discarded. A ctx expiry
// abandons the wait and returns ctx.Err(); the transport is still
// closed, but a slow handler may finish after Close returns.
func (t *Transport) Close(ctx context.Context) error {
	t.Shutdown()
	t.ln.Close()
	t.connMu.Lock()
	for c := range t.conns {
		c.Close()
	}
	t.connMu.Unlock()
	return t.Wait(ctx)
}

// roll reports whether the injected drop rate claims this message.
func (t *Transport) roll() bool {
	rate := t.DropRate()
	if rate <= 0 {
		return false
	}
	t.rngMu.Lock()
	defer t.rngMu.Unlock()
	return t.rng.Float64() < rate
}

func (t *Transport) logf(format string, args ...any) {
	if t.cfg.Logf != nil {
		t.cfg.Logf(format, args...)
	}
}

// Compile-time interface checks: the full Transport contract plus the
// process-local fault-injection surface.
var (
	_ transport.Transport     = (*Transport)(nil)
	_ transport.FaultInjector = (*Transport)(nil)
)
