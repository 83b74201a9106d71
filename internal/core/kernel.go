package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/attrcache"
	"repro/internal/dsm"
	"repro/internal/event"
	"repro/internal/failure"
	"repro/internal/ids"
	"repro/internal/locate"
	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/reliable"
	"repro/internal/thread"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Kernel protocol message kinds (beyond the dsm.* family).
const (
	msgRPCReq = "rpc.req"
	msgRPCRsp = "rpc.rsp"

	kindProbe        = "k.probe"
	kindInvoke       = "k.invoke"
	kindEvThread     = "k.ev.thread"
	kindEvObject     = "k.ev.object"
	kindEvRelease    = "k.ev.release"
	kindAbortChain   = "k.abort"
	kindHandlerRun   = "k.handler.run"
	kindGroupCreate  = "k.group.create"
	kindGroupJoin    = "k.group.join"
	kindGroupMembers = "k.group.members"
	kindKVGet        = "k.kv.get"
	kindKVSet        = "k.kv.set"
	kindKVCas        = "k.kv.cas"
	kindPageInstall  = "k.page.install"
	kindPageDrop     = "k.page.drop"
	kindPageFetch    = "k.page.fetch"
	kindDeleteObject = "k.obj.delete"
)

// errThreadMoved tells a raiser the thread left this node between locate
// and post; the raiser re-locates and retries.
var errThreadMoved = errors.New("core: thread moved before delivery")

// rpcRequest is the envelope for kernel calls.
type rpcRequest struct {
	ID   uint64
	Kind string
	From ids.NodeID
	Body any
}

// rpcResponse carries the reply. Errors travel as values: the fabric is an
// in-process simulation, so sentinel identity is preserved across "nodes".
type rpcResponse struct {
	ID   uint64
	Body any
	Err  error
}

// Kernel is one node's DO/CT kernel.
type Kernel struct {
	sys  *System
	node ids.NodeID
	gen  *ids.Generator

	store  *object.Store
	tcbs   *thread.Table
	groups *thread.Groups
	dsm    *dsm.Manager

	reqSeq atomic.Uint64

	// attrCache holds immutable thread-attribute snapshots received or
	// produced here, keyed (thread, version) — the receiver half of delta
	// attribute propagation. attrVer mints this node's snapshot versions.
	attrCache *attrcache.Cache
	attrVer   atomic.Uint64

	// Hot kernel state is sharded: each map has its own lock (waiters is
	// further striped by request ID — see shard.go) so RPC completions,
	// deliveries, and activation bookkeeping stop serializing each other.
	waiters *waiterTable

	actMu sync.Mutex
	acts  map[ids.ThreadID][]*activation // activation stack per thread

	syncWait *syncTable
	syncSeq  atomic.Uint64

	masterMu sync.Mutex
	masters  map[ids.ObjectID]*master

	// Crash-fault tolerance (fault.go). rel and det are nil unless
	// Config.FT.Enabled; the crash channel exists regardless so fault
	// injection works on a plain system too.
	rel *reliable.Endpoint
	det *failure.Detector

	// dur is this node's durability engine (durable.go). Nil unless
	// Config.Durability.Enabled; every touch is nil-guarded so the
	// volatile path pays nothing.
	dur *durable

	// dir is this node's shard of the residency directory backing the
	// hash placement strategy (directory.go). Always present; only
	// populated when System.dirStrategy is set.
	dir directory

	// fanoutSeen dedups group-raise fan-out relays after adoption races
	// (fanout.go).
	fanoutSeen fanoutDedup

	downMu   sync.Mutex
	downCh   chan struct{} // closed while this node is crashed
	downFlag atomic.Bool

	// closingMu/closing gate wg.Add calls made from the fabric dispatch
	// goroutine (which the kernel's wg does not track): once shutdown has
	// started waiting, a late inbound request must be dropped rather than
	// reuse the WaitGroup.
	closingMu sync.RWMutex
	closing   bool

	wg sync.WaitGroup
}

// syncWaiter collects releases for one raise_and_wait. The expected
// release count arrives on expectCh once routing has resolved the
// recipient set — asynchronously, so a raise across a severed link cannot
// block the raiser beyond its raise timeout.
type syncWaiter struct {
	id       uint64
	ch       chan releaseReq
	expectCh chan int
}

// syncReleaseBuf sizes the release buffer generously rather than to the
// recipient count, which is only known after routing resolves.
const syncReleaseBuf = 256

// syncWaiterPool recycles waiters between raises: the release buffer is the
// dominant per-raise allocation (256 slots), and raise_and_wait is the hot
// path of every synchronous workload. Stale traffic from a waiter's
// previous life is harmless: leftover releases are drained at Get and
// filtered by ID in collectReleases, and expectCh is allocated fresh per
// raise because a stalled routing goroutine can outlive its raiser.
var syncWaiterPool = sync.Pool{
	New: func() any { return &syncWaiter{ch: make(chan releaseReq, syncReleaseBuf)} },
}

// newSyncWaiter checks a recycled (or fresh) waiter out of the pool.
func newSyncWaiter(id uint64) *syncWaiter {
	w := syncWaiterPool.Get().(*syncWaiter)
	for {
		select {
		case <-w.ch: // a release that raced the previous raiser's teardown
		default:
			w.id = id
			w.expectCh = make(chan int, 1)
			return w
		}
	}
}

// recycle returns the waiter to the pool. The caller must already have
// removed it from the sync table.
func (w *syncWaiter) recycle() { syncWaiterPool.Put(w) }

// releaseReq releases a synchronous raiser (kindEvRelease, one-way).
type releaseReq struct {
	ID       uint64
	Verdict  event.Verdict
	Consumed bool
	// Err reports delivery failure (e.g. the target thread died before
	// handling, §7.2's fault-tolerance note).
	Err error
}

func newKernel(s *System, node ids.NodeID) *Kernel {
	k := &Kernel{
		sys:      s,
		node:     node,
		gen:      ids.NewGenerator(node),
		store:    object.NewStore(),
		tcbs:     thread.NewTable(),
		groups:   thread.NewGroups(),
		waiters:  newWaiterTable(),
		acts:     make(map[ids.ThreadID][]*activation),
		syncWait: newSyncTable(),
		masters:  make(map[ids.ObjectID]*master),
		downCh:   make(chan struct{}),
	}
	k.attrCache = attrcache.New(s.cfg.Wire.attrCacheSize, s.reg)
	k.dsm = dsm.NewManager(dsm.Config{
		Node:      node,
		PageSize:  s.cfg.PageSize,
		Transport: dsmTransport{k: k},
		Metrics:   s.reg,
	})
	return k
}

// Node returns the kernel's node.
func (k *Kernel) Node() ids.NodeID { return k.node }

// TCBs exposes the node's thread control blocks (read-mostly; used by
// probes and tests).
func (k *Kernel) TCBs() *thread.Table { return k.tcbs }

// DSM exposes the node's DSM manager.
func (k *Kernel) DSM() *dsm.Manager { return k.dsm }

// Store exposes the node's resident objects.
func (k *Kernel) Store() *object.Store { return k.store }

// shutdown stops master handler threads and releases waiters.
func (k *Kernel) shutdown() {
	k.masterMu.Lock()
	masters := make([]*master, 0, len(k.masters))
	for _, m := range k.masters {
		masters = append(masters, m)
	}
	k.masterMu.Unlock()
	for _, m := range masters {
		m.stop()
	}
	if k.rel != nil {
		k.rel.Close()
	}
	k.closingMu.Lock()
	k.closing = true
	k.closingMu.Unlock()
	k.wg.Wait()
	if k.dur != nil {
		k.dur.stop()
	}
}

// onMessage is the fabric handler: it must not block, so request service
// runs on its own goroutine (kernel requests may issue nested calls).
// Gossip probes bypass the reliable layer (they are periodic and self-
// correcting); everything else is unwrapped by it when FT is enabled.
func (k *Kernel) onMessage(m transport.Message) {
	if k.crashedLocal() {
		// A message already in the inbox when the node crashed: lost with
		// the node.
		return
	}
	if m.Kind == kindGossip {
		// The detector applies the piggybacked membership block and
		// answers pings itself.
		if k.det != nil {
			if g, ok := m.Payload.(gossipFrame); ok {
				k.det.HandleGossip(m.From, g.Data)
			}
		}
		return
	}
	if k.det != nil {
		// Any traffic from a peer proves it alive just as well as a probe
		// ack — this is what lets busy links go without one.
		k.det.Observe(m.From)
	}
	if k.rel != nil && k.rel.Handle(m) {
		return
	}
	k.dispatchNet(m.From, m.Kind, m.Payload)
}

// dispatchNet handles one unwrapped kernel protocol message.
func (k *Kernel) dispatchNet(from ids.NodeID, kind string, payload any) {
	switch kind {
	case msgRPCReq:
		req, ok := payload.(rpcRequest)
		if !ok {
			return
		}
		if !k.track() {
			return
		}
		go func() {
			defer k.wg.Done()
			body, err := k.serve(req.From, req.Kind, req.Body)
			rsp := rpcResponse{ID: req.ID, Body: body, Err: err}
			// Reply failures mean the fabric is closing; nothing to do.
			_ = k.netSend(req.From, msgRPCRsp, rsp)
		}()
	case msgRPCRsp:
		rsp, ok := payload.(rpcResponse)
		if !ok {
			return
		}
		if w, ok := k.waiters.take(rsp.ID); ok {
			w.ch <- rsp
		}
	case kindDirUpdate:
		u, ok := payload.(dirUpdate)
		if !ok {
			return
		}
		k.dir.apply(u)
	case kindEvRelease:
		// One-way, and release never blocks: served on the dispatch goroutine.
		if rel, ok := payload.(releaseReq); ok {
			k.release(rel)
		}
	case kindFanout:
		req, ok := payload.(*fanoutReq)
		if !ok {
			return
		}
		// Like msgRPCReq service: deliveries and relays block on kernel
		// calls, so they cannot run on the fabric dispatch goroutine.
		if !k.track() {
			return
		}
		go func() {
			defer k.wg.Done()
			k.serveFanout(req)
		}()
	case kindEvObject:
		// An asynchronous raise at an object here, one-way: served like a
		// request, and what the reply used to report is counted.
		if !k.track() {
			return
		}
		go func() {
			defer k.wg.Done()
			_, err := k.serve(from, kind, payload)
			k.sys.dropErr("raise_async", err)
		}()
	}
}

// track registers one more goroutine with k.wg, or reports false once the
// kernel is closing: the dispatch goroutine is not tracked by k.wg, so its
// Add must not race shutdown's Wait; a dying cluster discards the message.
func (k *Kernel) track() bool {
	k.closingMu.RLock()
	defer k.closingMu.RUnlock()
	if !k.closing {
		k.wg.Add(1)
	}
	return !k.closing
}

// netSend transmits one kernel protocol message, through the reliable
// endpoint when FT is enabled and bare otherwise. The message carries the
// QoS class derived from its payload (qos.go); with QoS off the stamp is
// inert. Without FT an admission reject surfaces here as ErrBackpressure;
// with FT the reliable layer absorbs rejects and retries with backoff.
func (k *Kernel) netSend(to ids.NodeID, kind string, payload any) error {
	class := msgClass(kind, payload)
	if k.rel != nil {
		return k.rel.SendClass(to, kind, payload, class)
	}
	return k.sys.fabric.Send(transport.Message{From: k.node, To: to, Kind: kind, Payload: payload, Class: class})
}

// send is netSend for a request or a one-way message, refused at once when
// this node has crashed or the detector suspects to — no call timeout is
// burnt against a node already declared dead. nil means handed over: a later
// loss is deadLetter's to report.
func (k *Kernel) send(to ids.NodeID, kind string, payload any) error {
	if k.crashedLocal() {
		return ErrNodeCrashed
	}
	if k.det != nil && k.det.Suspected(to) {
		return ErrNodeDown
	}
	return k.netSend(to, kind, payload)
}

// call performs a synchronous kernel RPC to another node.
func (k *Kernel) call(to ids.NodeID, kind string, body any) (any, error) {
	if k.crashedLocal() {
		return nil, ErrNodeCrashed
	}
	if to == k.node {
		return k.serve(k.node, kind, body)
	}
	id := k.reqSeq.Add(1)
	ch := make(chan rpcResponse, 1)
	k.waiters.put(id, to, ch)

	err := k.send(to, msgRPCReq, rpcRequest{ID: id, Kind: kind, From: k.node, Body: body})
	if err != nil {
		k.waiters.drop(id)
		return nil, fmt.Errorf("call %s to %v: %w", kind, to, err)
	}

	timer := k.sys.clk.NewTimer(k.sys.cfg.CallTimeout)
	defer timer.Stop()
	select {
	case rsp := <-ch:
		return rsp.Body, rsp.Err
	case <-k.sys.closed:
		return nil, ErrShutdown
	case <-k.downChan():
		k.waiters.drop(id)
		return nil, ErrNodeCrashed
	case <-timer.C:
		k.waiters.drop(id)
		return nil, fmt.Errorf("call %s to %v: timeout after %v", kind, to, k.sys.cfg.CallTimeout)
	}
}

// serve dispatches one kernel request. DSM protocol kinds are forwarded to
// the DSM manager.
func (k *Kernel) serve(from ids.NodeID, kind string, body any) (any, error) {
	if strings.HasPrefix(kind, "dsm.") {
		return k.dsm.HandleRequest(kind, body)
	}
	switch kind {
	case kindProbe:
		tid, ok := body.(ids.ThreadID)
		if !ok {
			return nil, fmt.Errorf("core: probe payload %T", body)
		}
		return k.probeLocal(tid), nil

	case kindDirGet:
		tid, ok := body.(ids.ThreadID)
		if !ok {
			return nil, fmt.Errorf("core: dir.get payload %T", body)
		}
		return k.dir.get(tid), nil

	case kindInvoke:
		req, ok := body.(invokeReq)
		if !ok {
			return nil, fmt.Errorf("core: invoke payload %T", body)
		}
		return k.serveInvoke(req)

	case kindEvThread:
		eb, ok := body.(*event.Block)
		if !ok {
			return nil, fmt.Errorf("core: ev.thread payload %T", body)
		}
		return nil, k.postToThreadLocal(eb)

	case kindEvObject:
		req, ok := body.(objectEventReq)
		if !ok {
			return nil, fmt.Errorf("core: ev.object payload %T", body)
		}
		return k.serveObjectEvent(req)

	case kindAbortChain:
		req, ok := body.(abortReq)
		if !ok {
			return nil, fmt.Errorf("core: abort payload %T", body)
		}
		return nil, k.serveAbort(req)

	case kindHandlerRun:
		req, ok := body.(handlerRunReq)
		if !ok {
			return nil, fmt.Errorf("core: handler.run payload %T", body)
		}
		return k.serveHandlerRun(req)

	case kindGroupCreate:
		gid, ok := body.(ids.GroupID)
		if !ok {
			return nil, fmt.Errorf("core: group.create payload %T", body)
		}
		k.groups.Create(gid)
		return nil, nil

	case kindGroupJoin:
		req, ok := body.(groupJoinReq)
		if !ok {
			return nil, fmt.Errorf("core: group.join payload %T", body)
		}
		if req.Leave {
			return nil, k.groups.Leave(req.Group, req.Thread)
		}
		return nil, k.groups.Join(req.Group, req.Thread)

	case kindGroupMembers:
		gid, ok := body.(ids.GroupID)
		if !ok {
			return nil, fmt.Errorf("core: group.members payload %T", body)
		}
		return k.groups.Members(gid)

	case kindKVGet:
		req, ok := body.(kvReq)
		if !ok {
			return nil, fmt.Errorf("core: kv.get payload %T", body)
		}
		obj, err := k.store.Lookup(req.Object)
		if err != nil {
			return nil, err
		}
		v, found := obj.Get(req.Key)
		return kvReply{Val: v, Found: found}, nil

	case kindKVSet:
		req, ok := body.(kvReq)
		if !ok {
			return nil, fmt.Errorf("core: kv.set payload %T", body)
		}
		obj, err := k.store.Lookup(req.Object)
		if err != nil {
			return nil, err
		}
		obj.Set(req.Key, req.Val)
		return nil, nil

	case kindKVCas:
		req, ok := body.(kvReq)
		if !ok {
			return nil, fmt.Errorf("core: kv.cas payload %T", body)
		}
		obj, err := k.store.Lookup(req.Object)
		if err != nil {
			return nil, err
		}
		return obj.CompareAndSwap(req.Key, req.Old, req.Val), nil

	case kindPageInstall:
		req, ok := body.(pageOpReq)
		if !ok {
			return nil, fmt.Errorf("core: page.install payload %T", body)
		}
		return nil, k.dsm.InstallPage(req.Seg, req.Page, req.Data)

	case kindPageDrop:
		req, ok := body.(pageOpReq)
		if !ok {
			return nil, fmt.Errorf("core: page.drop payload %T", body)
		}
		return nil, k.dsm.DropPage(req.Seg, req.Page)

	case kindPageFetch:
		req, ok := body.(pageOpReq)
		if !ok {
			return nil, fmt.Errorf("core: page.fetch payload %T", body)
		}
		data, found := k.dsm.CachedPage(req.Seg, req.Page)
		return pageFetchReply{Data: data, Found: found}, nil

	case kindDeleteObject:
		oid, ok := body.(ids.ObjectID)
		if !ok {
			return nil, fmt.Errorf("core: obj.delete payload %T", body)
		}
		return nil, k.deleteObjectLocal(oid)

	default:
		return nil, fmt.Errorf("core: unknown kernel request kind %q", kind)
	}
}

// Request payload types.

type groupJoinReq struct {
	Group  ids.GroupID
	Thread ids.ThreadID
	Leave  bool
}

type kvReq struct {
	Object ids.ObjectID
	Key    string
	Val    any
	Old    any // CompareAndSwap expected value
}

type kvReply struct {
	Val   any
	Found bool
}

type pageOpReq struct {
	Seg  ids.SegmentID
	Page int
	Data []byte
}

type pageFetchReply struct {
	Data  []byte
	Found bool
}

// probeLocal answers a thread-location probe from this node's TCBs.
func (k *Kernel) probeLocal(tid ids.ThreadID) locate.ProbeResult {
	tcb, ok := k.tcbs.Lookup(tid)
	if !ok {
		return locate.ProbeResult{}
	}
	return locate.ProbeResult{Known: true, Here: tcb.Here, Next: tcb.Next}
}

// locate.Env implementation.

// Self implements locate.Env.
func (k *Kernel) Self() ids.NodeID { return k.node }

// Nodes implements locate.Env. With the failure detector running,
// suspected-dead nodes are filtered out so locate strategies stop probing
// them (§7.1's probes would otherwise hang per dead node per locate).
func (k *Kernel) Nodes() []ids.NodeID {
	all := k.sys.Nodes()
	if k.det == nil {
		return all
	}
	out := all[:0:0]
	for _, n := range all {
		if !k.det.Suspected(n) {
			out = append(out, n)
		}
	}
	return out
}

// Probe implements locate.Env.
func (k *Kernel) Probe(node ids.NodeID, tid ids.ThreadID) (locate.ProbeResult, error) {
	if node == k.node {
		return k.probeLocal(tid), nil
	}
	if k.det != nil && k.det.Suspected(node) {
		return locate.ProbeResult{}, fmt.Errorf("probe %v: %w", node, ErrNodeDown)
	}
	body, err := k.call(node, kindProbe, tid)
	if err != nil {
		return locate.ProbeResult{}, err
	}
	res, ok := body.(locate.ProbeResult)
	if !ok {
		return locate.ProbeResult{}, fmt.Errorf("core: probe reply %T", body)
	}
	return res, nil
}

// GroupMembers implements locate.Env for the multicast strategy.
func (k *Kernel) GroupMembers(tid ids.ThreadID) []ids.NodeID {
	return k.sys.fabric.GroupMembers(locate.GroupName(tid))
}

// Metrics implements locate.Env.
func (k *Kernel) Metrics() *metrics.Registry { return k.sys.reg }

var _ locate.Env = (*Kernel)(nil)
var _ locate.DirectoryEnv = (*Kernel)(nil)

// createObject creates an object homed at this node.
func (k *Kernel) createObject(spec object.Spec) (ids.ObjectID, error) {
	oid := k.gen.NextObject()
	seg := k.gen.NextSegment()
	size := spec.DataSize
	if size == 0 {
		size = object.DefaultDataSize
	}
	if _, err := k.dsm.CreateSegment(seg, size, spec.UserPaged); err != nil {
		return ids.NoObject, fmt.Errorf("create object segment: %w", err)
	}
	obj, err := object.New(oid, seg, spec)
	if err != nil {
		return ids.NoObject, err
	}
	if err := k.store.Add(obj); err != nil {
		return ids.NoObject, err
	}
	if k.dur != nil {
		// Hook first so no mutation slips past the log, then adopt any
		// state replay staged for this name (an object recreated by app
		// boot code after a restart picks its durable KV back up).
		obj.SetMutationHook(k.dur.objectHook(spec.Name))
		k.dur.applyStagedObject(obj)
	}
	return oid, nil
}

// CreateSegment creates a standalone DSM segment homed at this node.
func (k *Kernel) CreateSegment(size int, userPaged bool) (ids.SegmentID, error) {
	seg := k.gen.NextSegment()
	if _, err := k.dsm.CreateSegment(seg, size, userPaged); err != nil {
		return ids.NoSegment, err
	}
	return seg, nil
}

// deleteObjectLocal removes a resident object after running its DELETE
// handler (posting DELETE is the supported path; this is the final step).
func (k *Kernel) deleteObjectLocal(oid ids.ObjectID) error {
	obj, err := k.store.Lookup(oid)
	if err != nil {
		return err
	}
	obj.MarkDeleted()
	k.store.Remove(oid)
	return nil
}

// activation stack management.

// pushAct registers an activation as the deepest for its thread at this
// node and updates the TCB.
func (k *Kernel) pushAct(a *activation) {
	k.actMu.Lock()
	k.acts[a.tid] = append(k.acts[a.tid], a)
	k.actMu.Unlock()
	k.tcbs.Arrive(a.tid, a.baseDepth)
	if k.sys.cfg.trackMulticast {
		k.sys.fabric.JoinGroup(locate.GroupName(a.tid), k.node)
	}
	k.dirPublish(a.tid, false)
}

// popAct unregisters a finished activation. If an earlier activation of the
// same thread is still present (the thread re-visited this node), the TCB
// reverts to forwarding at that activation's child.
func (k *Kernel) popAct(a *activation) {
	k.actMu.Lock()
	stack := k.acts[a.tid]
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] == a {
			stack = append(stack[:i], stack[i+1:]...)
			break
		}
	}
	if len(stack) == 0 {
		delete(k.acts, a.tid)
	} else {
		k.acts[a.tid] = stack
	}
	var prev *activation
	if len(stack) > 0 {
		prev = stack[len(stack)-1]
	}
	k.actMu.Unlock()

	if prev == nil {
		k.tcbs.Remove(a.tid)
		if k.sys.cfg.trackMulticast {
			k.sys.fabric.LeaveGroup(locate.GroupName(a.tid), k.node)
		}
		k.dirPublish(a.tid, true)
		return
	}
	// The earlier activation is blocked invoking toward prev.childNode:
	// the thread is no longer current here.
	k.tcbs.Depart(a.tid, prev.childNodeLocked())
	if k.sys.cfg.trackMulticast {
		k.sys.fabric.LeaveGroup(locate.GroupName(a.tid), k.node)
	}
}

// topAct returns the deepest activation for tid at this node.
func (k *Kernel) topAct(tid ids.ThreadID) (*activation, bool) {
	k.actMu.Lock()
	defer k.actMu.Unlock()
	stack := k.acts[tid]
	if len(stack) == 0 {
		return nil, false
	}
	return stack[len(stack)-1], true
}

// spawnRoot starts a fresh root thread at this node.
func (k *Kernel) spawnRoot(app string, obj ids.ObjectID, entry string, args []any) (*Handle, error) {
	tid := k.gen.NextThread()
	attrs := thread.NewAttributes(tid)
	attrs.App = app
	attrs.IOChannel = "stdout"
	return k.startThread(attrs, obj, entry, args)
}

// startThread launches a thread with the given attributes at this node,
// invoking entry on obj as its root activation.
func (k *Kernel) startThread(attrs *thread.Attributes, oid ids.ObjectID, entry string, args []any) (*Handle, error) {
	select {
	case <-k.sys.closed:
		return nil, ErrShutdown
	default:
	}
	k.sys.ctrs.threadSpawn.Add(1)
	k.sys.tr.Add(trace.Record{
		Kind: trace.KindSpawn, Node: k.node, Thread: attrs.Thread,
		Target: oid.String() + "." + entry,
	})
	h := newHandle(attrs.Thread)
	k.sys.registerHandle(h)

	// The root activation runs where the object lives (RPC mode) or here
	// (DSM mode); either way the thread's root node is this node, so the
	// root TCB must exist here for path-following. We model the root
	// activation as starting here and immediately invoking the object.
	a := newActivation(k, attrs, 0)
	a.handle = h
	k.pushAct(a)
	k.wg.Add(1)
	go func() {
		defer k.wg.Done()
		res, err := a.ctx().Invoke(oid, entry, args...)
		k.finishChain(a)
		a.finish()
		k.popAct(a)
		h.finish(res, err)
	}()
	return h, nil
}

// finishChain runs the thread's TERMINATE handler chain when its root
// entry returns. §4.2's contract is that a terminated thread releases
// everything chained onto it, however it terminates: event-driven
// termination runs the chain through delivery, but a plain root return —
// success or error — otherwise would not. The error case is the dangerous
// one: a thread whose acquire reply was lost terminates convinced it holds
// nothing while the server records it as holder, and no event will ever
// run its chained unlock. Threads with an empty TERMINATE chain (the vast
// majority) skip this outright, and a thread stopped by event delivery
// already ran its chain there — rerunning it would double every handler.
func (k *Kernel) finishChain(a *activation) {
	if a.stopped() != nil {
		return
	}
	a.mu.Lock()
	n := len(a.attrs.Handlers.For(event.Terminate))
	a.mu.Unlock()
	if n == 0 {
		return
	}
	eb := &event.Block{
		Stamp:      k.gen.NextStamp(),
		Name:       event.Terminate,
		Target:     event.ToThread(a.tid),
		RaiserNode: k.node,
		User:       map[string]any{"reason": "root return"},
		Class:      classControlU8,
	}
	k.runChain(a, eb)
}
