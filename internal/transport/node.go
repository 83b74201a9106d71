package transport

// The node side of a transport (DESIGN.md §12). Every implementation of
// Transport is a Pipeline plus a link: the Pipeline owns the attached
// nodes, their sender-sharded dispatch queues and goroutines, the
// cut/crash/drop-rate table, the multicast-group map and the net.msg.*
// accounting; the link — a delay heap in internal/netsim, sockets in
// tcptransport — only decides when a departure becomes an arrival and hands
// it to Deliver.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/batch"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/vclock"
)

// Structural send errors, returned (wrapped with the node or group) by
// every transport.
var (
	ErrUnknownNode  = errors.New("transport: unknown node")
	ErrClosed       = errors.New("transport: closed")
	ErrUnknownGroup = errors.New("transport: unknown multicast group")
)

// DefaultQueueDepth is the per-shard inbox capacity when
// PipelineConfig.QueueDepth is zero.
const DefaultQueueDepth = 1024

// ClassQueue is the classful shard queue a Pipeline drains with QoS on.
// internal/transport/qdisc implements it; the interface lives here because
// qdisc imports this package.
type ClassQueue interface {
	// Offer submits m; false means tenant admission rejected it.
	Offer(m Message) bool
	// Pop blocks for the next message in scheduling order; false once done
	// closes.
	Pop(done <-chan struct{}) (Message, bool)
}

// PipelineConfig parameterizes a Pipeline. The owning transport resolves
// its own defaults (dispatch parallelism, whether QoS may run) and passes
// the results.
type PipelineConfig struct {
	// Workers is the number of dispatch goroutines per node (minimum 1);
	// each node's inbox is sharded by sender over them.
	Workers int
	// QueueDepth is each shard's capacity (0 = DefaultQueueDepth).
	QueueDepth int
	// Metrics receives the accounting. Nil creates a private registry.
	Metrics *metrics.Registry
	// Clock is told about queued and in-handler messages so a virtual
	// clock never advances across them (nil = the machine clock, on which
	// that is a no-op).
	Clock vclock.Clock
	// QoS, when Enabled, makes every shard a ClassQueue built by NewQueue
	// (pass qdisc.NewShard) instead of a FIFO channel.
	QoS      QoSConfig
	NewQueue func(cfg *QoSConfig, depth int, reg *metrics.Registry, onShed func(Message)) ClassQueue
	// Remote reports whether an unattached node is reachable over the
	// link, which makes it a legal CrashNode target. Nil: none is.
	Remote func(ids.NodeID) bool
}

// shard is one sender-keyed dispatch queue: a FIFO channel, or with QoS on
// a ClassQueue. Exactly one of the two is set.
type shard struct {
	fifo chan Message
	q    ClassQueue
}

type endpoint struct {
	handler Handler
	shards  []shard
}

// shard returns the queue for messages from the given sender. One sender
// always maps to one shard, which is what preserves per-(sender, receiver)
// FIFO with several dispatch goroutines.
func (ep *endpoint) shard(from ids.NodeID) *shard {
	if len(ep.shards) == 1 {
		return &ep.shards[0]
	}
	return &ep.shards[uint64(from)%uint64(len(ep.shards))]
}

// kindCounters is the pair of interned per-kind wire counters, cached so
// the send path never rebuilds the counter names per message.
type kindCounters struct {
	msgs  *atomic.Int64
	bytes *atomic.Int64
}

// Pipeline is the node side of one transport. Create with NewPipeline,
// Attach the local nodes, then Start. All methods are safe for concurrent
// use.
type Pipeline struct {
	cfg PipelineConfig
	reg *metrics.Registry
	clk vclock.Clock

	// Pre-resolved handles for the counters charged on every message, so
	// the hot path is pure atomic adds.
	ctrSent      *atomic.Int64
	ctrDelivered *atomic.Int64
	ctrDropped   *atomic.Int64
	ctrBytes     *atomic.Int64
	ctrBroadcast *atomic.Int64
	ctrMulticast *atomic.Int64
	kindCtrs     sync.Map // message kind -> *kindCounters

	mu        sync.RWMutex
	endpoints map[ids.NodeID]*endpoint
	groups    map[string]map[ids.NodeID]bool
	cut       map[[2]ids.NodeID]bool // severed directed links
	crashed   map[ids.NodeID]bool    // fail-stopped nodes (CrashNode)
	started   bool
	closed    bool

	dropRate atomic.Uint64 // float64 bits; SetDropRate

	done chan struct{} // closed by Shutdown
	wg   sync.WaitGroup
}

// NewPipeline returns a Pipeline with no nodes attached.
func NewPipeline(cfg PipelineConfig) *Pipeline {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.QoS.Depth <= 0 {
		cfg.QoS.Depth = cfg.QueueDepth
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Pipeline{
		cfg:          cfg,
		reg:          reg,
		clk:          vclock.Or(cfg.Clock),
		ctrSent:      reg.Counter(metrics.CtrMsgSent),
		ctrDelivered: reg.Counter(metrics.CtrMsgDelivered),
		ctrDropped:   reg.Counter(metrics.CtrMsgDropped),
		ctrBytes:     reg.Counter(metrics.CtrMsgBytes),
		ctrBroadcast: reg.Counter(metrics.CtrBroadcast),
		ctrMulticast: reg.Counter(metrics.CtrMulticast),
		endpoints:    make(map[ids.NodeID]*endpoint),
		groups:       make(map[string]map[ids.NodeID]bool),
		cut:          make(map[[2]ids.NodeID]bool),
		crashed:      make(map[ids.NodeID]bool),
		done:         make(chan struct{}),
	}
}

// Metrics returns the registry accounting this transport's traffic.
func (p *Pipeline) Metrics() *metrics.Registry { return p.reg }

// DispatchWorkers returns the per-node dispatch parallelism.
func (p *Pipeline) DispatchWorkers() int { return p.cfg.Workers }

// QueueDepth returns the resolved per-shard capacity: the FIFO path's
// stall threshold and the default QoS tenant budget.
func (p *Pipeline) QueueDepth() int { return p.cfg.QueueDepth }

// QoSEnabled reports whether shards are classful queues.
func (p *Pipeline) QoSEnabled() bool { return p.cfg.QoS.Enabled }

// Done is closed by Shutdown; link goroutines select on it.
func (p *Pipeline) Done() <-chan struct{} { return p.done }

// Attach registers node with its message handler. Attach must be called
// before Start.
func (p *Pipeline) Attach(node ids.NodeID, h Handler) error {
	if !node.IsValid() {
		return fmt.Errorf("transport: attach: %v is not a valid node", node)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		return errors.New("transport: attach after Start")
	}
	if _, dup := p.endpoints[node]; dup {
		return fmt.Errorf("transport: node %v already attached", node)
	}
	ep := &endpoint{handler: h, shards: make([]shard, p.cfg.Workers)}
	for i := range ep.shards {
		if p.cfg.QoS.Enabled {
			// A queued message holds a work token (taken in Deliver); an
			// eviction retires it here. The callback runs under the queue
			// lock and must not re-enter the queue.
			ep.shards[i].q = p.cfg.NewQueue(&p.cfg.QoS, p.cfg.QoS.Depth, p.reg, func(Message) {
				p.ctrDropped.Add(1)
				vclock.EndWork(p.clk)
			})
		} else {
			ep.shards[i].fifo = make(chan Message, p.cfg.QueueDepth)
		}
	}
	p.endpoints[node] = ep
	return nil
}

// Nodes returns the attached node identifiers in unspecified order.
func (p *Pipeline) Nodes() []ids.NodeID {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]ids.NodeID, 0, len(p.endpoints))
	for n := range p.endpoints {
		out = append(out, n)
	}
	return out
}

// Attached reports whether node is hosted by this pipeline.
func (p *Pipeline) Attached(node ids.NodeID) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.endpoints[node] != nil
}

// Started reports whether Start has run.
func (p *Pipeline) Started() bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.started
}

// Start launches the dispatch goroutines, one per shard of every attached
// node. It reports false, doing nothing, when the pipeline is already
// started or closed; the transport's own Start launches its link after a
// true return.
func (p *Pipeline) Start() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started || p.closed {
		return false
	}
	p.started = true
	for _, ep := range p.endpoints {
		for i := range ep.shards {
			p.wg.Add(1)
			go p.dispatch(ep, &ep.shards[i])
		}
	}
	return true
}

// Go runs fn on a goroutine Wait waits for — the link's scheduler, readers
// and writers. It reports false, without running fn, once the pipeline is
// closed.
func (p *Pipeline) Go(fn func()) bool {
	// Under the lock Shutdown takes, so the Add cannot race Wait.
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return false
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		fn()
	}()
	return true
}

// Shutdown closes the pipeline: sends fail with ErrClosed, Done is closed,
// dispatch goroutines exit after the handler they are in, and queued
// messages are discarded. Idempotent. The transport's Close calls it,
// tears down its link, then calls Wait.
func (p *Pipeline) Shutdown() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		p.closed = true
		close(p.done)
	}
}

// Wait is the drain barrier of Transport.Close: it blocks until every
// dispatch goroutine and every Go goroutine has exited, bounded by ctx.
func (p *Pipeline) Wait(ctx context.Context) error {
	if ctx.Done() == nil {
		p.wg.Wait()
		return nil
	}
	drained := make(chan struct{})
	go func() { p.wg.Wait(); close(drained) }()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// dispatch drains one shard: channel FIFO, or the ClassQueue's order
// (strict-priority system/control, then DWRR over tenant classes).
func (p *Pipeline) dispatch(ep *endpoint, sh *shard) {
	defer p.wg.Done()
	for {
		var m Message
		if sh.q != nil {
			var ok bool
			if m, ok = sh.q.Pop(p.done); !ok {
				return
			}
		} else {
			select {
			case <-p.done:
				return
			case m = <-sh.fifo:
			}
		}
		p.handle(ep, m)
	}
}

// handle runs one queued message through the node's handler and retires
// its work token. net.msg.delivered counts handler invocations: a coalesced
// frame counts once per record, on every link.
func (p *Pipeline) handle(ep *endpoint, m Message) {
	if fr, ok := m.Payload.(*batch.Frame); ok {
		// Unbundle: the handler sees the inner messages, in append order, on
		// this goroutine — the per-(sender, receiver) FIFO a bare stream
		// would have. The frame returns to the pool; handlers own the
		// payloads but must not retain the Message beyond their return.
		recs := fr.Recs()
		p.ctrDelivered.Add(int64(len(recs)))
		if ep.handler != nil {
			for _, r := range recs {
				ep.handler(Message{From: m.From, To: m.To, Kind: r.Kind, Payload: r.Payload, Size: r.Size, Class: m.Class})
			}
		}
		batch.Put(fr)
	} else {
		p.ctrDelivered.Add(1)
		if ep.handler != nil {
			ep.handler(m)
		}
	}
	// Retired only after the handler returns: a virtual clock must not
	// advance across a message that is queued or being handled.
	vclock.EndWork(p.clk)
}

// Route resolves a departure from → to under one lock acquisition: whether
// to is attached here, and whether the cut/crash table severs the link.
// The only error is ErrClosed.
func (p *Pipeline) Route(from, to ids.NodeID) (attached, severed bool, err error) {
	p.mu.RLock()
	closed := p.closed
	_, attached = p.endpoints[to]
	severed = p.cut[[2]ids.NodeID{from, to}] || p.crashed[from] || p.crashed[to]
	p.mu.RUnlock()
	if closed {
		return false, false, ErrClosed
	}
	return attached, severed, nil
}

// Deliver is the one entry point for arrivals: the link calls it when a
// message reaches its destination node. A FIFO shard that is full blocks
// the caller until it drains (backpressure by stalling, never past
// Shutdown); a QoS shard runs admission control instead and accepted is
// false when it rejects m — the only case it is. A destination that is not
// attached, or crashed while m was in flight, loses the message silently;
// every loss is counted in net.msg.dropped.
func (p *Pipeline) Deliver(m Message) (accepted bool) {
	p.mu.RLock()
	ep := p.endpoints[m.To]
	down := p.crashed[m.To]
	p.mu.RUnlock()
	if ep == nil || down {
		p.ctrDropped.Add(1)
		return true
	}
	// The token is retired by handle after the handler runs, by the
	// Attach-time shed callback if a heavier class evicts m, or below.
	vclock.BeginWork(p.clk)
	sh := ep.shard(m.From)
	if sh.q != nil {
		if !sh.q.Offer(m) {
			vclock.EndWork(p.clk)
			p.ctrDropped.Add(1)
			return false
		}
		return true
	}
	select {
	case sh.fifo <- m:
	case <-p.done:
		vclock.EndWork(p.clk)
	}
	return true
}

// Depart gives m its departure form and charges it as sent: the size is
// the payload's encoded size if the sender left it zero, and a
// batch.Finalizer payload (the reliable layer's pending envelope) takes its
// final value.
func (p *Pipeline) Depart(m *Message) {
	if m.Size == 0 {
		m.Size = SizeOf(m.Payload)
	}
	if fin, ok := m.Payload.(batch.Finalizer); ok {
		m.Payload = fin.FinalizeFlush()
	}
	p.ChargeSend(m.Kind, m.Size)
}

// Post is a departure that arrives at once — a zero-latency simulated
// link, or a destination hosted by the sending process: m departs, and is
// either lost (the link's cut/crash/drop verdict) or delivered. The only
// error is ErrBackpressure.
func (p *Pipeline) Post(m Message, lost bool) error {
	p.Depart(&m)
	if lost {
		p.ctrDropped.Add(1)
		return nil
	}
	if !p.Deliver(m) {
		return ErrBackpressure
	}
	return nil
}

// ChargeSend accounts one departing message of the given wire size.
func (p *Pipeline) ChargeSend(kind string, size int) {
	p.ctrSent.Add(1)
	p.ctrBytes.Add(int64(size))
	p.ChargeKind(kind, size)
}

// ChargeKind charges only the per-kind pair: a record joining a coalesced
// frame keeps its kind in the traffic decomposition while the frame itself
// is what ChargeSend counts.
func (p *Pipeline) ChargeKind(kind string, size int) {
	if kind == "" {
		return
	}
	v, ok := p.kindCtrs.Load(kind)
	if !ok {
		v, _ = p.kindCtrs.LoadOrStore(kind, &kindCounters{
			msgs:  p.reg.Counter(metrics.KindMsgs(kind)),
			bytes: p.reg.Counter(metrics.KindBytes(kind)),
		})
	}
	kc := v.(*kindCounters)
	kc.msgs.Add(1)
	kc.bytes.Add(int64(size))
}

// ChargeBytes adds framing overhead that belongs to no single message to
// net.msg.bytes.
func (p *Pipeline) ChargeBytes(n int) { p.ctrBytes.Add(int64(n)) }

// Drop counts n messages lost on the link.
func (p *Pipeline) Drop(n int) { p.ctrDropped.Add(int64(n)) }

// BeginBroadcast opens a broadcast: ErrClosed after Shutdown, otherwise
// the operation is counted and the caller sends to every other node.
func (p *Pipeline) BeginBroadcast() error {
	p.mu.RLock()
	closed := p.closed
	p.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	p.ctrBroadcast.Add(1)
	return nil
}

// BeginMulticast opens a multicast to group: it returns the members to
// send to and counts the operation, or fails with ErrClosed or
// ErrUnknownGroup.
func (p *Pipeline) BeginMulticast(group string) ([]ids.NodeID, error) {
	p.mu.RLock()
	closed := p.closed
	members := p.membersLocked(group)
	p.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if len(members) == 0 { // a group vanishes with its last member
		return nil, fmt.Errorf("%w: %q", ErrUnknownGroup, group)
	}
	p.ctrMulticast.Add(1)
	return members, nil
}

// JoinGroup adds node to the named multicast group, creating the group on
// first join.
func (p *Pipeline) JoinGroup(group string, node ids.NodeID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.groups[group]
	if !ok {
		g = make(map[ids.NodeID]bool)
		p.groups[group] = g
	}
	g[node] = true
}

// LeaveGroup removes node from the named multicast group; a group
// vanishes with its last member.
func (p *Pipeline) LeaveGroup(group string, node ids.NodeID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if g, ok := p.groups[group]; ok {
		delete(g, node)
		if len(g) == 0 {
			delete(p.groups, group)
		}
	}
}

// GroupMembers returns the current members of group.
func (p *Pipeline) GroupMembers(group string) []ids.NodeID {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.membersLocked(group)
}

func (p *Pipeline) membersLocked(group string) []ids.NodeID {
	g := p.groups[group]
	out := make([]ids.NodeID, 0, len(g))
	for n := range g {
		out = append(out, n)
	}
	return out
}

// Groups snapshots every group's membership.
func (p *Pipeline) Groups() map[string][]ids.NodeID {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make(map[string][]ids.NodeID, len(p.groups))
	for name, g := range p.groups {
		for n := range g {
			out[name] = append(out[name], n)
		}
	}
	return out
}

// CutLink severs the directed link from → to: messages on it are counted
// as dropped.
func (p *Pipeline) CutLink(from, to ids.NodeID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cut[[2]ids.NodeID{from, to}] = true
}

// HealLink restores a severed directed link.
func (p *Pipeline) HealLink(from, to ids.NodeID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.cut, [2]ids.NodeID{from, to})
}

// Partition severs every link between the two node sets, in both
// directions. Links within each side stay up.
func (p *Pipeline) Partition(sideA, sideB []ids.NodeID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, a := range sideA {
		for _, b := range sideB {
			p.cut[[2]ids.NodeID{a, b}] = true
			p.cut[[2]ids.NodeID{b, a}] = true
		}
	}
}

// HealAll restores every severed link. The drop rate is left alone: it was
// set globally and is cleared globally.
func (p *Pipeline) HealAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cut = make(map[[2]ids.NodeID]bool)
}

// DropRate returns the current injected drop probability. How a loss is
// drawn against it is the link's business.
func (p *Pipeline) DropRate() float64 {
	return math.Float64frombits(p.dropRate.Load())
}

// SetDropRate changes the drop probability for all subsequent sends.
func (p *Pipeline) SetDropRate(rate float64) {
	if rate < 0 {
		rate = 0
	}
	p.dropRate.Store(math.Float64bits(rate))
}

// CrashNode fail-stops node: every message to or from it, including those
// already in flight, is dropped until RestartNode. Its handler and queues
// stay attached so a restart needs no re-registration — a crashed node is
// one that has fallen silent, which is exactly the failure a heartbeat
// detector observes.
func (p *Pipeline) CrashNode(node ids.NodeID) error {
	// Asked before p.mu is taken: the link may consult its own lock.
	known := p.cfg.Remote != nil && p.cfg.Remote(node)
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.endpoints[node]; !ok && !known {
		return fmt.Errorf("%w: %v", ErrUnknownNode, node)
	}
	if p.crashed[node] {
		return fmt.Errorf("transport: node %v is already crashed", node)
	}
	p.crashed[node] = true
	return nil
}

// RestartNode brings a crashed node back: subsequent traffic flows again.
// Messages dropped while it was down stay lost (the reliable layer's
// retries, not the transport, are what recovers them).
func (p *Pipeline) RestartNode(node ids.NodeID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.crashed[node] {
		return fmt.Errorf("transport: node %v is not crashed", node)
	}
	delete(p.crashed, node)
	return nil
}

// Crashed reports whether node is currently fail-stopped.
func (p *Pipeline) Crashed(node ids.NodeID) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.crashed[node]
}
