// Package netsim simulates the cluster interconnect: reliable FIFO unicast
// between nodes, broadcast, and multicast groups, with configurable latency,
// drop injection and partitions, and full message accounting.
//
// The DO/CT kernel (internal/core) exchanges all cross-node traffic through
// a Fabric, so experiment harnesses can read protocol costs (message and
// byte counts per operation) directly from the fabric's metrics instead of
// timing a real network. This substitutes for the physical Ethernet cluster
// the paper's Clouds prototype ran on while preserving message-level
// protocol structure.
package netsim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/transport/qdisc"
	"repro/internal/vclock"
)

// The message vocabulary and the send errors live in internal/transport,
// as does the node side of this fabric (transport.Pipeline: attached nodes,
// dispatch, faults, groups, accounting). What is here is the simulated
// link: latency, jitter, seeded loss, the delay heap (sched.go) and the
// timed coalescer (batch.go). The aliases keep netsim.Message and
// errors.Is(err, netsim.ErrX) call sites compiling.
type Message = transport.Message

var (
	ErrUnknownNode  = transport.ErrUnknownNode
	ErrClosed       = transport.ErrClosed
	ErrUnknownGroup = transport.ErrUnknownGroup
	ErrBackpressure = transport.ErrBackpressure
)

// Config parameterizes a Fabric.
type Config struct {
	// Latency is the simulated one-way latency applied to every message.
	// Zero means immediate handoff (still asynchronous and FIFO).
	Latency time.Duration
	// Jitter adds up to this much uniformly-random extra latency.
	Jitter time.Duration
	// DropRate is the probability in [0,1) that a unicast message is
	// silently dropped. Used by failure-injection tests only; the DO/CT
	// protocols assume a reliable transport, as Clouds did.
	DropRate float64
	// Seed seeds the jitter/drop random source; zero picks DefaultSeed.
	Seed int64
	// Clock is the fabric's time source for latency simulation (nil =
	// the machine clock). Passing a *vclock.Virtual runs all simulated
	// latency in virtual time: delayed messages become virtual timers and
	// in-flight messages are tracked as work so the virtual clock only
	// advances across a quiescent fabric.
	Clock vclock.Clock
	// QueueDepth is each node's inbox capacity (per dispatch shard). Zero
	// picks 1024; read the resolved value back with Fabric.QueueDepth.
	// Overload semantics of a full shard: on the classic FIFO path,
	// deliver blocks the sender (zero latency) or the scheduler goroutine
	// (delayed traffic) until the shard drains — backpressure by stalling.
	// With QoS on (Config.QoS), admission control replaces the stall:
	// tenant sends are rejected with ErrBackpressure or shed by weight,
	// and system/control traffic is always admitted.
	QueueDepth int
	// Metrics receives message accounting. Nil creates a private registry.
	Metrics *metrics.Registry
	// DispatchWorkers is the number of dispatch goroutines per node. Zero
	// or one keeps the classic single-dispatcher pipeline. With N > 1 each
	// node's inbox is sharded by sender (m.From mod N): messages from the
	// same sender always land on the same worker, preserving per-pair FIFO
	// order, while messages from different senders are handled concurrently
	// — so one slow handler no longer head-of-line-blocks the whole node.
	// Forced to 1 when Clock is a *vclock.Virtual: the deterministic
	// simulation digest (internal/sim) depends on serial per-node delivery,
	// and the virtual clock's quiescence tracking assumes it.
	DispatchWorkers int
	// Batch configures per-link send coalescing (batch.go). Disabled by
	// the zero value, and forced off under a *vclock.Virtual clock for the
	// same reason DispatchWorkers is forced to 1.
	Batch BatchConfig
	// QoS configures multi-tenant dispatch (DESIGN.md §15): per-class
	// admission control, DWRR scheduling across tenant classes, and
	// weight-ordered shedding. Disabled by the zero value, and forced off
	// under a *vclock.Virtual clock unless QoS.AllowVirtual — the
	// deterministic-sim digests depend on the classic FIFO drain.
	QoS transport.QoSConfig
}

// destRNG is the jitter/drop random source of one destination node: seeded
// from the fabric seed and the node ID, so a seeded run replays the same
// schedule and concurrent senders contend on one destination's lock at
// worst, never on a fabric-global one.
type destRNG struct {
	mu sync.Mutex
	r  *rand.Rand
}

// Fabric connects a fixed set of nodes. Create with New, attach node
// handlers with Attach, then Start. All methods are safe for concurrent
// use.
type Fabric struct {
	*transport.Pipeline
	cfg  Config
	clk  vclock.Clock
	seed int64

	// nodeSent tracks physical departures per source node (same charge
	// point as net.msg.sent — after batching, before drop). Scaling sweeps
	// use it to check no single node bears O(n) of a broadcast's cost once
	// tree fan-out spreads the relay work.
	nodeSent sync.Map // ids.NodeID -> *atomic.Int64

	// bat is the per-link send coalescing state; nil means every Send
	// posts its own message (batching off, or forced off under a virtual
	// clock).
	bat *batcher

	rngs sync.Map // ids.NodeID -> *destRNG, created on first draw

	// linkDrop holds per-directed-link drop probabilities (float64 bits,
	// keyed [from,to]) installed by SetDropRateDirected; the effective
	// rate for a send is the max of the global rate and the link's.
	// linkDropN counts installed entries so the hot path skips the map
	// lookup entirely when no directed loss is configured.
	linkDrop  sync.Map
	linkDropN atomic.Int64

	// Delayed sends sit in a timer heap drained by one scheduler
	// goroutine (see sched.go) instead of a goroutine per message.
	schedMu   sync.Mutex
	schedHeap delayHeap
	schedSeq  uint64
	schedWake chan struct{}
}

// DefaultSeed seeds the jitter/drop random source when Config.Seed is
// zero. A fixed, documented default (rather than time- or PID-derived
// entropy) means a bench or test run that never set a seed is still
// reproducible: rerunning it replays the same jitter and drop schedule.
// Pass any non-zero Seed to explore a different schedule.
const DefaultSeed = 1

// New returns a Fabric with the given configuration and no nodes attached.
func New(cfg Config) *Fabric {
	seed := cfg.Seed
	if seed == 0 {
		seed = DefaultSeed
	}
	workers := cfg.DispatchWorkers
	batching := cfg.Batch.Enabled
	qos := cfg.QoS
	if _, virtual := cfg.Clock.(*vclock.Virtual); virtual {
		// Deterministic simulation requires serial per-node delivery, and
		// per-message posts: a flush-window timer in the virtual heap would
		// reorder against protocol timers and change every digest. QoS
		// reorders the drain too, so it is forced off as well — except when
		// the scenario opts in (QoS.AllowVirtual), which the sim's QoS
		// invariant scenario does deliberately.
		workers = 1
		batching = false
		qos.Enabled = qos.Enabled && qos.AllowVirtual
	}
	f := &Fabric{
		Pipeline: transport.NewPipeline(transport.PipelineConfig{
			Workers:    workers,
			QueueDepth: cfg.QueueDepth,
			Metrics:    cfg.Metrics,
			Clock:      cfg.Clock,
			QoS:        qos,
			NewQueue:   qdisc.NewShard,
		}),
		cfg:       cfg,
		clk:       vclock.Or(cfg.Clock),
		seed:      seed,
		schedWake: make(chan struct{}, 1),
	}
	f.SetDropRate(cfg.DropRate)
	if batching {
		f.bat = newBatcher(cfg.Batch, f.Metrics())
	}
	return f
}

// nodeSentCtr returns node's departure counter, creating it on first use.
func (f *Fabric) nodeSentCtr(node ids.NodeID) *atomic.Int64 {
	if c, ok := f.nodeSent.Load(node); ok {
		return c.(*atomic.Int64)
	}
	c, _ := f.nodeSent.LoadOrStore(node, new(atomic.Int64))
	return c.(*atomic.Int64)
}

// NodeSends returns the per-node physical departure counts (counted after
// batching, before loss) for every node that has sent at least one message.
func (f *Fabric) NodeSends() map[ids.NodeID]int64 {
	out := map[ids.NodeID]int64{}
	f.nodeSent.Range(func(k, v any) bool {
		out[k.(ids.NodeID)] = v.(*atomic.Int64).Load()
		return true
	})
	return out
}

// Start launches the dispatch goroutines (DispatchWorkers per attached
// node) and the delayed-delivery scheduler.
func (f *Fabric) Start() {
	if f.Pipeline.Start() {
		f.Go(f.schedule)
	}
}

// Close stops delivery and drains: it blocks until every dispatch
// goroutine has exited (so no handler is mid-flight and none will run
// again), bounded by ctx. Messages still queued are discarded. A ctx
// expiry abandons the wait and returns ctx.Err(); the fabric is still
// closed, but a slow handler may finish after Close returns.
func (f *Fabric) Close(ctx context.Context) error {
	f.Shutdown()
	f.stopBatchTimers()
	return f.Wait(ctx)
}

// Send delivers m.Payload from m.From to m.To asynchronously. It returns an
// error for structural problems (unknown node, closed fabric) and — with
// QoS on and a zero-latency fabric — ErrBackpressure when admission
// control rejects the message at the destination shard; injected drops are
// silent, as on a real network. Delayed traffic that is later rejected is
// shed silently (counted in net.msg.dropped and dispatch.q.*.shed), like a
// RED router dropping in-flight datagrams.
func (f *Fabric) Send(m Message) error {
	attached, severed, err := f.Route(m.From, m.To)
	if err != nil {
		return err
	}
	if !attached {
		return fmt.Errorf("%w: %v", ErrUnknownNode, m.To)
	}
	if f.bat != nil {
		f.batchSend(m, severed)
		return nil
	}
	return f.post(m, severed)
}

// post puts m on the link: it departs now and arrives immediately when the
// fabric has no latency, otherwise via the timer-heap scheduler. FIFO order
// between any pair of nodes is preserved as long as latency is constant
// (jitter deliberately relaxes ordering, as a real datagram network would).
// The only non-nil return is ErrBackpressure from a zero-latency QoS
// admission reject.
func (f *Fabric) post(m Message, severed bool) error {
	f.nodeSentCtr(m.From).Add(1)
	if severed || f.lost(m.From, m.To) {
		return f.Post(m, true)
	}
	delay := f.delay(m.To)
	if delay == 0 {
		return f.Post(m, false)
	}
	f.Depart(&m)
	f.enqueueDelayed(m, delay)
	return nil
}

// rng returns the destination's random source, seeding it on first use.
// The sequence depends only on the fabric seed and the node, not on when
// the first draw happens. The deterministic sim (internal/sim) uses neither
// jitter nor drops and never gets here.
func (f *Fabric) rng(to ids.NodeID) *destRNG {
	if v, ok := f.rngs.Load(to); ok {
		return v.(*destRNG)
	}
	v, _ := f.rngs.LoadOrStore(to, &destRNG{r: rand.New(rand.NewSource(f.seed ^ int64(uint64(to)*0x9E3779B97F4A7C15)))})
	return v.(*destRNG)
}

func (f *Fabric) delay(to ids.NodeID) time.Duration {
	d := f.cfg.Latency
	if f.cfg.Jitter > 0 {
		r := f.rng(to)
		r.mu.Lock()
		d += time.Duration(r.r.Int63n(int64(f.cfg.Jitter)))
		r.mu.Unlock()
	}
	return d
}

// lost draws the injected loss for one departure on from → to: the
// effective rate is the larger of the global drop rate and the link's.
func (f *Fabric) lost(from, to ids.NodeID) bool {
	rate := f.DropRate()
	if lr := f.linkRate(from, to); lr > rate {
		rate = lr
	}
	if rate <= 0 {
		return false
	}
	r := f.rng(to)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.r.Float64() < rate
}

// linkRate returns the directed drop probability for from → to (0 when
// none is configured).
func (f *Fabric) linkRate(from, to ids.NodeID) float64 {
	if f.linkDropN.Load() == 0 {
		return 0
	}
	if v, ok := f.linkDrop.Load([2]ids.NodeID{from, to}); ok {
		return math.Float64frombits(v.(uint64))
	}
	return 0
}

// SetDropRateDirected sets the drop probability for the directed link
// from → to. The effective rate for a send is the maximum of this and the
// global SetDropRate, so directed loss can only add to ambient loss.
// Rate <= 0 clears the link's entry.
func (f *Fabric) SetDropRateDirected(from, to ids.NodeID, rate float64) {
	key := [2]ids.NodeID{from, to}
	if rate <= 0 {
		if _, ok := f.linkDrop.LoadAndDelete(key); ok {
			f.linkDropN.Add(-1)
		}
		return
	}
	if rate > 1 {
		rate = 1
	}
	if _, loaded := f.linkDrop.Swap(key, math.Float64bits(rate)); !loaded {
		f.linkDropN.Add(1)
	}
}

// HealAll restores every severed link and clears every directed drop
// rate (the global SetDropRate is left alone — it was set globally and is
// cleared globally).
func (f *Fabric) HealAll() {
	f.Pipeline.HealAll()
	f.linkDrop.Range(func(k, _ any) bool {
		if _, ok := f.linkDrop.LoadAndDelete(k); ok {
			f.linkDropN.Add(-1)
		}
		return true
	})
}

// Broadcast sends payload from the sender to every other attached node.
// It costs n-1 unicast messages plus one broadcast operation in the
// accounting, mirroring an Ethernet broadcast followed by per-host
// processing.
func (f *Fabric) Broadcast(from ids.NodeID, kind string, payload any) error {
	if err := f.BeginBroadcast(); err != nil {
		return err
	}
	for _, to := range f.Nodes() {
		if to != from {
			f.scatter(from, to, kind, payload)
		}
	}
	return nil
}

// Multicast sends payload to every member of group (including the sender if
// it is a member). It costs one multicast operation plus one unicast per
// member in the accounting.
func (f *Fabric) Multicast(from ids.NodeID, group, kind string, payload any) error {
	members, err := f.BeginMulticast(group)
	if err != nil {
		return err
	}
	for _, to := range members {
		f.scatter(from, to, kind, payload)
	}
	return nil
}

// scatter posts one leg of a broadcast or multicast. Each leg lands in an
// inbox (zero latency) or the timer heap, bypassing the coalescer, so a
// scatter costs no goroutines. Both carry kernel plumbing (locate probes,
// membership, recovery) — classed system, never shed.
func (f *Fabric) scatter(from, to ids.NodeID, kind string, payload any) {
	if attached, severed, err := f.Route(from, to); err == nil && attached {
		f.post(Message{From: from, To: to, Kind: kind, Payload: payload, Class: transport.ClassSystem}, severed)
	}
}

// Compile-time interface checks: the fabric is the deterministic-sim
// Transport implementation, with the full fault-injection surface.
var (
	_ transport.Transport             = (*Fabric)(nil)
	_ transport.FaultInjector         = (*Fabric)(nil)
	_ transport.DirectedFaultInjector = (*Fabric)(nil)
	_ transport.Batcher               = (*Fabric)(nil)
)
