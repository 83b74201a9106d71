package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/transport/tcptransport"
)

// The benchmark's two user events and its handler code. Handler code is
// registered by name in every process (core.System.RegisterProc), as
// position-independent per-thread handler code is in the paper (§7.2).
const (
	evChain event.Name = "BENCH_CHAIN"
	evGroup event.Name = "BENCH_GROUP"

	procPropagate = "bench.propagate"
	procConsume   = "bench.consume"
	procMember    = "bench.member"

	chainDepth = 8  // raise_thread: 7 propagating links, then the consumer
	groupSize  = 8  // raise_group: parked members
	payloadLen = 64 // invoke: argument bytes
	maxNodes   = 4

	// kernelCallTimeout is core.Config.CallTimeout. A raise_thread target is
	// parked inside a remote invocation, and the kernel fails a remote call
	// that outlives CallTimeout (30 s by default), so it must outlast the
	// whole run; a hung run is bounded by the two timeouts below instead.
	kernelCallTimeout = 30 * time.Minute
	// raiseTimeout is core.Config.RaiseTimeout: how long a raise_and_wait
	// may block before the operation counts as failed.
	raiseTimeout = 10 * time.Second
	// callTimeout bounds the harness's own waits: set-up retries, clients
	// stopping, the node process answering.
	callTimeout = 10 * time.Second
)

// sink is the handler side of one process: every target's handler counts
// its runs here, and the raise_async target records due-time → return.
type sink struct {
	obj   [maxNodes + 1]atomic.Int64
	async [maxNodes + 1]atomic.Int64
	echo  [maxNodes + 1]atomic.Int64
	prop  atomic.Int64

	mu       sync.Mutex
	consume  map[uint64]int64 // raise_thread target → consuming-link runs
	member   map[uint64]int64 // group member → handler runs
	asyncLat [][2]int64       // {due (wall ns), due → handler return (ns)}
}

// newSink makes a sink with room for asyncCap raise_async samples, so that
// recording one rarely allocates.
func newSink(asyncCap int) *sink {
	return &sink{
		consume:  map[uint64]int64{},
		member:   map[uint64]int64{},
		asyncLat: make([][2]int64, 0, asyncCap),
	}
}

// sinkCounts is a sink's state as it crosses the process boundary.
type sinkCounts struct {
	Obj, Async, Echo map[uint32]int64
	Prop             int64
	Consume, Member  map[uint64]int64
	AsyncLat         [][2]int64 `json:",omitempty"`
}

// counts snapshots the sink; withLat also copies the latency samples.
func (s *sink) counts(withLat bool) sinkCounts {
	c := sinkCounts{
		Obj: map[uint32]int64{}, Async: map[uint32]int64{}, Echo: map[uint32]int64{},
		Prop: s.prop.Load(), Consume: map[uint64]int64{}, Member: map[uint64]int64{},
	}
	for n := 1; n <= maxNodes; n++ {
		if v := s.obj[n].Load(); v != 0 {
			c.Obj[uint32(n)] = v
		}
		if v := s.async[n].Load(); v != 0 {
			c.Async[uint32(n)] = v
		}
		if v := s.echo[n].Load(); v != 0 {
			c.Echo[uint32(n)] = v
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range s.consume {
		c.Consume[k] = v
	}
	for k, v := range s.member {
		c.Member[k] = v
	}
	if withLat {
		c.AsyncLat = append([][2]int64(nil), s.asyncLat...)
	}
	return c
}

// merge adds (sign +1) or subtracts (sign -1) o's counters; latency
// samples are appended when adding.
func (c *sinkCounts) merge(o sinkCounts, sign int64) {
	for k, v := range o.Obj {
		c.Obj[k] += sign * v
	}
	for k, v := range o.Async {
		c.Async[k] += sign * v
	}
	for k, v := range o.Echo {
		c.Echo[k] += sign * v
	}
	c.Prop += sign * o.Prop
	for k, v := range o.Consume {
		c.Consume[k] += sign * v
	}
	for k, v := range o.Member {
		c.Member[k] += sign * v
	}
	if sign > 0 {
		c.AsyncLat = append(c.AsyncLat, o.AsyncLat...)
	}
}

func sumCounts(m map[uint32]int64) (n int64) {
	for _, v := range m {
		n += v
	}
	return n
}

// registerCode installs the benchmark's events and handler code in sys.
func registerCode(sys *core.System, s *sink) error {
	for _, name := range []event.Name{evChain, evGroup} {
		if err := sys.Events().Register(name, ids.NoThread); err != nil && !errors.Is(err, event.ErrAlreadyRegistered) {
			return err
		}
	}
	return sys.RegisterProcs(map[string]core.ProcFunc{
		procPropagate: func(object.Ctx, event.HandlerRef, *event.Block) event.Verdict {
			s.prop.Add(1)
			return event.VerdictPropagate
		},
		procConsume: func(ctx object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
			s.mu.Lock()
			s.consume[uint64(ctx.Thread())]++
			s.mu.Unlock()
			return event.VerdictResume
		},
		procMember: func(ctx object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
			s.mu.Lock()
			s.member[uint64(ctx.Thread())]++
			s.mu.Unlock()
			return event.VerdictResume
		},
	})
}

// targetSet names what one node hosts for clients to aim at.
type targetSet struct {
	Node   ids.NodeID
	Obj    ids.ObjectID // raise_obj: INTERRUPT handler on the master thread
	Async  ids.ObjectID // raise_async: INTERRUPT handler that reads the due time
	Echo   ids.ObjectID // invoke: "echo" returns its argument
	Park   ids.ObjectID // "park": where raise_thread targets sleep
	Member ids.ObjectID // "member": where raise_group members sleep
	Anchor ids.ObjectID // "anchor": root entry of a raise_thread target
}

// hostNode creates node's target objects in sys.
func hostNode(sys *core.System, node ids.NodeID, s *sink) (targetSet, error) {
	ts := targetSet{Node: node}
	var err error
	mk := func(dst *ids.ObjectID, spec object.Spec) {
		if err == nil {
			*dst, err = sys.CreateObject(node, spec)
		}
	}
	mk(&ts.Obj, object.Spec{
		Name: "bench-obj",
		Handlers: map[event.Name]object.Handler{
			event.Interrupt: func(object.Ctx, event.HandlerRef, *event.Block) event.Verdict {
				s.obj[node].Add(1)
				return event.VerdictResume
			},
		},
	})
	mk(&ts.Async, object.Spec{
		Name: "bench-async",
		Handlers: map[event.Name]object.Handler{
			event.Interrupt: func(_ object.Ctx, _ event.HandlerRef, eb *event.Block) event.Verdict {
				due, _ := eb.User["due"].(int64)
				s.async[node].Add(1)
				s.mu.Lock()
				s.asyncLat = append(s.asyncLat, [2]int64{due, time.Now().UnixNano() - due})
				s.mu.Unlock()
				return event.VerdictResume
			},
		},
	})
	mk(&ts.Echo, object.Spec{
		Name: "bench-echo",
		Entries: map[string]object.Entry{
			"echo": func(_ object.Ctx, args []any) ([]any, error) {
				s.echo[node].Add(1)
				return args, nil
			},
		},
	})
	sleep := func(ctx object.Ctx, _ []any) ([]any, error) { return nil, ctx.Sleep(24 * time.Hour) }
	mk(&ts.Park, object.Spec{Name: "bench-park", Entries: map[string]object.Entry{"park": sleep}})
	mk(&ts.Member, object.Spec{
		Name: "bench-member",
		Entries: map[string]object.Entry{
			// args: the group to join (ids.NoGroup = create it) and a channel
			// that receives the group once this member is in it.
			"member": func(ctx object.Ctx, args []any) ([]any, error) {
				gid, joined := args[0].(ids.GroupID), args[1].(chan ids.GroupID)
				var err error
				if gid == ids.NoGroup {
					gid, err = ctx.CreateGroup()
				} else {
					err = ctx.JoinGroup(gid)
				}
				if err == nil {
					err = ctx.AttachHandler(event.HandlerRef{Event: evGroup, Kind: event.KindProc, Proc: procMember})
				}
				if err != nil {
					joined <- ids.NoGroup
					return nil, err
				}
				joined <- gid
				return nil, ctx.Sleep(24 * time.Hour)
			},
		},
	})
	mk(&ts.Anchor, object.Spec{
		Name: "bench-anchor",
		Entries: map[string]object.Entry{
			// args: the park object to invoke into and a channel closed once
			// the whole chain is attached. LIFO delivery (§4.2): the consumer
			// is attached first so the seven propagating links run before it.
			"anchor": func(ctx object.Ctx, args []any) ([]any, error) {
				park, chained := args[0].(ids.ObjectID), args[1].(chan struct{})
				refs := []string{procConsume}
				for i := 1; i < chainDepth; i++ {
					refs = append(refs, procPropagate)
				}
				for _, p := range refs {
					if err := ctx.AttachHandler(event.HandlerRef{Event: evChain, Kind: event.KindProc, Proc: p}); err != nil {
						return nil, err
					}
				}
				close(chained)
				return ctx.Invoke(park, "park")
			},
		},
	})
	return ts, err
}

// parkThread starts a raise_thread target rooted at the anchor's node that
// invokes into park and sleeps there, leaving a forwarding pointer at its
// root when the two nodes differ (§7.1).
func parkThread(sys *core.System, anchor, park ids.ObjectID) (ids.ThreadID, error) {
	chained := make(chan struct{})
	h, err := sys.Spawn(anchor.Home(), anchor, "anchor", park, chained)
	if err != nil {
		return ids.NoThread, err
	}
	select {
	case <-chained:
	case <-h.Done():
		_, err := h.Wait()
		return ids.NoThread, fmt.Errorf("raise_thread target died attaching its chain: %v", err)
	}
	// Wait until the root activation is blocked (in the invocation of park,
	// or in park's sleep when both are on one node). An event queued on an
	// activation in the instant before it blocks in a remote invocation is
	// not delivered until that invocation returns — here, never — so the
	// first raise must not race the thread's departure.
	for deadline := time.Now().Add(callTimeout); ; time.Sleep(100 * time.Microsecond) {
		if st, ok := sys.ThreadState(anchor.Home(), h.TID()); ok && st.Blocked != "" {
			return h.TID(), nil
		}
		if time.Now().After(deadline) {
			return ids.NoThread, fmt.Errorf("raise_thread target %v never blocked in park", h.TID())
		}
	}
}

// makeGroup parks one member per entry of placement and returns the group
// and its members. The first member creates the group.
func makeGroup(sys *core.System, placement []ids.NodeID, targets map[ids.NodeID]targetSet) (ids.GroupID, []ids.ThreadID, error) {
	gid := ids.NoGroup
	var members []ids.ThreadID
	for _, node := range placement {
		joined := make(chan ids.GroupID, 1)
		h, err := sys.Spawn(node, targets[node].Member, "member", gid, joined)
		if err != nil {
			return ids.NoGroup, nil, err
		}
		select {
		case g := <-joined:
			if g == ids.NoGroup {
				_, err := h.Wait()
				return ids.NoGroup, nil, fmt.Errorf("group member on %v: %v", node, err)
			}
			gid = g
		case <-time.After(callTimeout):
			return ids.NoGroup, nil, fmt.Errorf("group member on %v did not join", node)
		}
		members = append(members, h.TID())
	}
	return gid, members, nil
}

// host is one in-process core.System with the registry it shares with its
// transport, so one snapshot holds kernel and wire counters alike.
type host struct {
	sys   *core.System
	reg   *metrics.Registry
	nodes []ids.NodeID
}

// bootSim boots an n-node cluster on the in-process netsim fabric with the
// shipping defaults. With a tap, the fabric is built here exactly as
// core.NewSystem would build it and wrapped; the traced pass checks its
// ops_per_s against an untapped run so the two configurations cannot drift.
func bootSim(n int, tc *tapCore) (*host, error) {
	reg := metrics.NewRegistry()
	cfg := core.Config{Nodes: n, FT: core.FTConfig{Enabled: true}, Metrics: reg, CallTimeout: kernelCallTimeout, RaiseTimeout: raiseTimeout}
	if tc != nil {
		cfg.Transport = tc.wrap(netsim.New(netsim.Config{
			Metrics:         reg,
			DispatchWorkers: runtime.GOMAXPROCS(0),
			Batch:           netsim.BatchConfig{Enabled: true},
		}))
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	return &host{sys: sys, reg: reg, nodes: sys.Nodes()}, nil
}

// Failure-detector timing of a TCP node, as cmd/doctnode's flag defaults.
const (
	tcpHeartbeat = 25 * time.Millisecond
	tcpSuspect   = 500 * time.Millisecond
)

// openTCP binds a loopback listener for one node of a TCP cluster.
func openTCP(reg *metrics.Registry) (*tcptransport.Transport, error) {
	return tcptransport.New(tcptransport.Config{
		Listen:     "127.0.0.1:0",
		Generation: uint64(time.Now().UnixNano()),
		Metrics:    reg,
	})
}

// bootTCP boots the System hosting node over tr — built as cmd/doctnode
// builds a node: tcptransport + core.Config{LocalNodes, Transport, FT}.
func bootTCP(node ids.NodeID, nodes int, tr *tcptransport.Transport, peers map[ids.NodeID]string, reg *metrics.Registry, tc *tapCore) (*host, error) {
	if err := tr.SetPeers(peers); err != nil {
		return nil, err
	}
	cfg := core.Config{
		Nodes:        nodes,
		LocalNodes:   []ids.NodeID{node},
		Transport:    tr,
		Metrics:      reg,
		CallTimeout:  kernelCallTimeout,
		RaiseTimeout: raiseTimeout,
		FT: core.FTConfig{
			Enabled:         true,
			HeartbeatPeriod: tcpHeartbeat,
			SuspectAfter:    tcpSuspect,
			Generation:      uint64(time.Now().UnixNano()),
		},
	}
	if tc != nil {
		cfg.Transport = tc.wrap(tr)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	return &host{sys: sys, reg: reg, nodes: []ids.NodeID{node}}, nil
}

// cluster is one booted workload topology, seen from the driver process.
type cluster struct {
	spec    *workloadSpec
	hosts   []*host // in-process Systems; hosts[0] holds node 1 and the clients
	child   *child  // tcp_closed untraced: the OS process hosting node 2
	sink    *sink   // handler side of this process
	tap     *tapCore
	open    *openLoop // sim_open: the schedule the issuers share
	targets map[ids.NodeID]targetSet
	threads []ids.ThreadID // raise_thread targets
	group   ids.GroupID
	members []ids.ThreadID
}

// sysFor returns the in-process System hosting node.
func (c *cluster) sysFor(node ids.NodeID) *core.System {
	for _, h := range c.hosts {
		for _, n := range h.nodes {
			if n == node {
				return h.sys
			}
		}
	}
	return nil
}

// boot brings the workload's topology up: Systems, target objects, parked
// raise_thread targets and the group. inproc hosts every System in this
// process; tapped puts the tap between each kernel and its transport.
func boot(spec *workloadSpec, inproc, tapped bool, asyncCap int) (c *cluster, err error) {
	c = &cluster{spec: spec, sink: newSink(asyncCap), targets: map[ids.NodeID]targetSet{}}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	if tapped {
		c.tap = newTapCore()
	}
	switch {
	case !spec.tcp:
		h, err := bootSim(spec.nodes, c.tap)
		if err != nil {
			return c, err
		}
		c.hosts = []*host{h}
	case inproc:
		// Both ends in one process over real loopback sockets, so the tap
		// can match a send on one System to its handler on the other.
		regs := []*metrics.Registry{metrics.NewRegistry(), metrics.NewRegistry()}
		var trs []*tcptransport.Transport
		peers := map[ids.NodeID]string{}
		for i, reg := range regs {
			tr, err := openTCP(reg)
			if err != nil {
				return c, err
			}
			trs = append(trs, tr)
			peers[ids.NodeID(i+1)] = tr.Addr()
		}
		for i, tr := range trs {
			h, err := bootTCP(ids.NodeID(i+1), 2, tr, peers, regs[i], c.tap)
			if err != nil {
				return c, err
			}
			c.hosts = append(c.hosts, h)
		}
	default:
		reg := metrics.NewRegistry()
		tr, err := openTCP(reg)
		if err != nil {
			return c, err
		}
		if c.child, err = startChild(tr.Addr()); err != nil {
			_ = tr.Close(context.Background()) // the start failure is what gets reported
			return c, err
		}
		peers := map[ids.NodeID]string{1: tr.Addr(), 2: c.child.ready.Addr}
		h, err := bootTCP(1, 2, tr, peers, reg, nil)
		if err != nil {
			return c, err
		}
		c.hosts = []*host{h}
		c.targets[2] = c.child.ready.Targets
		c.group = ids.GroupID(c.child.ready.Group)
		for _, m := range c.child.ready.Members {
			c.members = append(c.members, ids.ThreadID(m))
		}
	}
	for _, h := range c.hosts {
		if err := registerCode(h.sys, c.sink); err != nil {
			return c, err
		}
		for _, n := range h.nodes {
			if c.targets[n], err = hostNode(h.sys, n, c.sink); err != nil {
				return c, err
			}
		}
	}
	for _, p := range spec.threadPaths() {
		tid, err := parkThread(c.sysFor(p[0]), c.targets[p[0]].Anchor, c.targets[p[1]].Park)
		if err != nil {
			return c, err
		}
		c.threads = append(c.threads, tid)
	}
	if c.child == nil {
		place := spec.groupPlacement()
		if c.group, c.members, err = makeGroup(c.sysFor(place[0]), place, c.targets); err != nil {
			return c, err
		}
	}
	return c, nil
}

// close tears the topology down; the child's exit status is part of the
// output checks, so it is returned.
func (c *cluster) close() error {
	var err error
	if c.child != nil {
		err = c.child.stop()
	}
	for _, h := range c.hosts {
		h.sys.Close()
	}
	return err
}
