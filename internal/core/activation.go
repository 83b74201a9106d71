package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dsm"
	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/thread"
)

// frame is one object the activation has entered by local invocation. A
// remote invocation instead creates a new activation at the target node.
type frame struct {
	obj   *object.Object
	entry string
}

// activation is one node's execution of a logical thread: a goroutine
// executing entries in resident objects. A thread is a chain of activations
// linked by remote invocations; the deepest activation is where events are
// delivered (§7.1).
type activation struct {
	k     *Kernel
	tid   ids.ThreadID
	attrs *thread.Attributes
	// baseDepth is the invocation depth at which this activation started.
	baseDepth int
	// handle is set on root activations only.
	handle *Handle
	// system marks surrogate/master activations that never register TCBs.
	system bool
	// pc is the simulated program counter: interruption points passed.
	pc atomic.Uint64

	mu   sync.Mutex
	cond *sync.Cond // signals delivering -> false
	// frames is the local invocation stack (top = current object).
	frames []frame
	status thread.Status
	// blockedOn names the kernel operation the activation is blocked in.
	blockedOn string
	// pending are events queued for delivery at the next interruption
	// point (or by a surrogate if the activation is blocked).
	pending []*event.Block
	// departed marks a completed non-root activation whose logical thread
	// lives on at the caller's node: enqueue refuses new events (the
	// raiser re-locates) and anything already pending is rerouted.
	departed bool
	// delivering is set while a goroutine (the activation itself at a
	// checkpoint, or a surrogate) is walking handler chains.
	delivering bool
	// childNode/childObj record the in-progress remote invocation, for
	// TCB forwarding and the abort chase (§6.3).
	childNode ids.NodeID
	childObj  ids.ObjectID
	// timerStop stops the current generation of attribute timers.
	timerStop chan struct{}
	// remoteBase is, per peer node, the attribute snapshot this activation
	// last exchanged with that peer — the diff base for delta attribute
	// propagation. Entries are immutable once stored.
	remoteBase map[ids.NodeID]*thread.Attributes

	stopMu     sync.Mutex
	stopReason error
	stopCh     chan struct{}
	stopOnce   sync.Once
}

func newActivation(k *Kernel, attrs *thread.Attributes, baseDepth int) *activation {
	a := &activation{
		k:         k,
		tid:       attrs.Thread,
		attrs:     attrs,
		baseDepth: baseDepth,
		status:    thread.StatusRunning,
		stopCh:    make(chan struct{}),
	}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// stop marks the thread's activation as killed (terminated or aborted) and
// wakes any blocked kernel operation. Idempotent; the first reason wins.
func (a *activation) stop(reason error) {
	a.stopOnce.Do(func() {
		a.stopMu.Lock()
		a.stopReason = reason
		a.stopMu.Unlock()
		close(a.stopCh)
	})
}

// stopped returns the stop reason, or nil while the activation lives.
func (a *activation) stopped() error {
	select {
	case <-a.stopCh:
		a.stopMu.Lock()
		defer a.stopMu.Unlock()
		return a.stopReason
	default:
		return nil
	}
}

// finish tears the activation down after its entry returned.
func (a *activation) finish() {
	a.stopTimers()
	// Drain any events that raced with completion so synchronous raisers
	// are released with a thread-death notice (§7.2).
	a.stop(ErrTerminated) // no-op if already stopped; from here the thread is gone
	a.k.drainPending(a)
	a.mu.Lock()
	a.status = thread.StatusTerminated
	a.mu.Unlock()
}

// depart retires a non-root activation whose entry returned normally: the
// logical thread is NOT dead — it continues in the caller's activation at
// the invoking node — so events that raced into this activation's queue
// must not be death-noticed the way finish/drainPending would. depart
// marks the activation unable to accept new posts (enqueue refuses, the
// raiser re-locates) and hands back whatever was pending so the kernel
// can reroute it to the thread's current location (exactly-once: these
// blocks were queued but never delivered here).
func (a *activation) depart() []*event.Block {
	a.stopTimers()
	a.mu.Lock()
	a.departed = true
	a.status = thread.StatusTerminated
	pending := a.pending
	a.pending = nil
	a.mu.Unlock()
	return pending
}

// childNodeLocked reads the forwarding target under the activation lock.
func (a *activation) childNodeLocked() ids.NodeID {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.childNode
}

// snapshotState captures the "registers" of §4.1 for an event block.
func (a *activation) snapshotState() *event.ThreadState {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := &event.ThreadState{
		Thread:  a.tid,
		Node:    a.k.node,
		PC:      a.pc.Load(),
		Blocked: a.blockedOn,
		Depth:   a.baseDepth + len(a.frames),
	}
	if n := len(a.frames); n > 0 {
		st.Object = a.frames[n-1].obj.ID()
		st.Entry = a.frames[n-1].entry
	}
	return st
}

// topFrame returns the current object frame.
func (a *activation) topFrame() (frame, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.frames) == 0 {
		return frame{}, false
	}
	return a.frames[len(a.frames)-1], true
}

// enterBlocked marks the activation blocked in a kernel operation. If
// events are already pending, a surrogate is dispatched to handle them
// while the activation waits (§6.1's surrogate threads).
func (a *activation) enterBlocked(what string) {
	a.mu.Lock()
	a.status = thread.StatusBlocked
	a.blockedOn = what
	needSurrogate := len(a.pending) > 0 && !a.delivering
	a.mu.Unlock()
	if needSurrogate {
		a.k.spawnSurrogate(a)
	}
}

// exitBlocked returns the activation to running and processes pending
// events inline (a kernel-operation boundary is an interruption point).
// It returns the stop reason if the thread was terminated or aborted.
func (a *activation) exitBlocked() error {
	a.mu.Lock()
	a.status = thread.StatusRunning
	a.blockedOn = ""
	a.mu.Unlock()
	a.k.processPending(a, false)
	return a.stopped()
}

// startTimers recreates the thread's attribute timers at this node (§6.2:
// "When the thread visits another node, the thread attribute list is
// examined and the event registation information is recreated").
func (a *activation) startTimers() {
	a.mu.Lock()
	specs := make([]thread.TimerSpec, len(a.attrs.Timers))
	copy(specs, a.attrs.Timers)
	if len(specs) == 0 {
		a.mu.Unlock()
		return
	}
	if a.timerStop != nil {
		a.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	a.timerStop = stop
	a.mu.Unlock()

	for _, spec := range specs {
		a.k.wg.Add(1)
		go func() {
			defer a.k.wg.Done()
			ticker := a.k.sys.clk.NewTicker(spec.Period)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					a.k.postTimerLocal(a, spec.Event)
				case <-stop:
					return
				case <-a.stopCh:
					return
				case <-a.k.sys.closed:
					return
				}
			}
		}()
	}
}

// stopTimers cancels this node's timer registrations (the thread is leaving
// or finishing; the next node recreates them from the attributes).
func (a *activation) stopTimers() {
	a.mu.Lock()
	stop := a.timerStop
	a.timerStop = nil
	a.mu.Unlock()
	if stop != nil {
		close(stop)
	}
}

// ctx returns the kernel interface bound to this activation.
func (a *activation) ctx() *Ctx { return &Ctx{a: a} }

// handlerCtx returns a context for handler code running on behalf of this
// activation (re-entrant kernel calls skip checkpointing).
func (a *activation) handlerCtx() *Ctx { return &Ctx{a: a, inHandler: true} }

// Ctx implements object.Ctx for one activation. Handler-scoped contexts set
// inHandler, which suppresses checkpoint processing (the thread is already
// suspended; the handler must not recursively deliver).
type Ctx struct {
	a         *activation
	inHandler bool
}

var _ object.Ctx = (*Ctx)(nil)

// Thread implements object.Ctx.
func (c *Ctx) Thread() ids.ThreadID { return c.a.tid }

// Node implements object.Ctx.
func (c *Ctx) Node() ids.NodeID { return c.a.k.node }

// Object implements object.Ctx.
func (c *Ctx) Object() ids.ObjectID {
	if f, ok := c.a.topFrame(); ok {
		return f.obj.ID()
	}
	return ids.NoObject
}

// Attrs implements object.Ctx. The returned attributes are live: mutations
// persist and travel with the thread. Entries run them only from the
// activation's own goroutine (or its surrogate while it is parked), so
// access is serialized.
func (c *Ctx) Attrs() *thread.Attributes { return c.a.attrs }

// Invoke implements object.Ctx.
func (c *Ctx) Invoke(obj ids.ObjectID, entry string, args ...any) ([]any, error) {
	return c.a.k.invoke(c.a, obj, entry, args, c.inHandler)
}

// InvokeAsync implements object.Ctx.
func (c *Ctx) InvokeAsync(obj ids.ObjectID, entry string, args ...any) (ids.ThreadID, error) {
	return c.a.k.invokeAsync(c.a, obj, entry, args)
}

// InvokeGuarded implements object.Ctx: handlers scoped to one invocation.
func (c *Ctx) InvokeGuarded(obj ids.ObjectID, entry string, handlers []event.HandlerRef, args ...any) ([]any, error) {
	attached := 0
	for _, h := range handlers {
		if err := c.AttachHandler(h); err != nil {
			// Unwind the partial attachment before reporting.
			for j := 0; j < attached; j++ {
				_ = c.DetachHandler(handlers[j].Event)
			}
			return nil, err
		}
		attached++
	}
	res, err := c.Invoke(obj, entry, args...)
	// Detach in reverse attachment order; the chain is LIFO so each
	// Remove takes this invocation's handler, not an outer one.
	c.a.mu.Lock()
	for i := len(handlers) - 1; i >= 0; i-- {
		c.a.attrs.Handlers.Remove(handlers[i].Event)
	}
	c.a.mu.Unlock()
	return res, err
}

// SetAlarm implements object.Ctx: a one-shot ALARM chased to wherever the
// thread is when it fires.
func (c *Ctx) SetAlarm(d time.Duration) error {
	if d <= 0 {
		return fmt.Errorf("core: alarm delay must be positive, got %v", d)
	}
	k := c.a.k
	tid := c.a.tid
	k.wg.Add(1)
	go func() {
		defer k.wg.Done()
		timer := k.sys.clk.NewTimer(d)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-k.sys.closed:
			return
		}
		eb := &event.Block{
			Stamp:      k.gen.NextStamp(),
			Name:       event.Alarm,
			Target:     event.ToThread(tid),
			RaiserNode: k.node,
			Class:      classSystemU8,
		}
		k.sys.ctrs.eventRaised.Add(1)
		// Best effort: a thread that finished before its alarm simply
		// misses it.
		_ = k.raiseToThread(eb, tid)
	}()
	return nil
}

// AttachHandler implements object.Ctx (§5.2's attach_handler system call).
func (c *Ctx) AttachHandler(ref event.HandlerRef) error {
	if ref.Kind == event.KindEntry && !ref.Object.IsValid() {
		// Default the handler's object to the object the thread is
		// executing in, matching the paper's `attach_handler(INTERRUPT,
		// my_interrupt_handler)` where the handler is a method of the
		// current object.
		ref.Object = c.Object()
	}
	if err := ref.Validate(); err != nil {
		return err
	}
	ref.AttachedIn = c.Object()
	c.a.mu.Lock()
	defer c.a.mu.Unlock()
	c.a.attrs.Handlers.Push(ref)
	return nil
}

// DetachHandler implements object.Ctx.
func (c *Ctx) DetachHandler(name event.Name) error {
	c.a.mu.Lock()
	defer c.a.mu.Unlock()
	if !c.a.attrs.Handlers.Remove(name) {
		return fmt.Errorf("core: no handler attached for %s", name)
	}
	return nil
}

// RegisterEvent implements object.Ctx.
func (c *Ctx) RegisterEvent(name event.Name) error {
	return c.a.k.sys.events.Register(name, c.a.tid)
}

// Raise implements object.Ctx.
func (c *Ctx) Raise(name event.Name, target event.Target, user map[string]any) error {
	return c.a.k.raise(c.a, name, target, user)
}

// RaiseAndWait implements object.Ctx.
func (c *Ctx) RaiseAndWait(name event.Name, target event.Target, user map[string]any) error {
	if c.inHandler && target.Kind == event.TargetThread && target.Thread == c.a.tid {
		// The thread is suspended with this very handler running; a
		// synchronous self-raise could never be delivered. Reject instead
		// of deadlocking.
		return fmt.Errorf("core: raise_and_wait at own thread from its handler would never be delivered (%s)", name)
	}
	_, err := c.a.k.raiseAndWait(c.a, name, target, user)
	return err
}

// Abort implements object.Ctx: the abort-chase kernel support of §6.3.
func (c *Ctx) Abort(tid ids.ThreadID, obj ids.ObjectID) error {
	return c.a.k.AbortInvocation(tid, obj)
}

// CreateGroup implements object.Ctx.
func (c *Ctx) CreateGroup() (ids.GroupID, error) {
	k := c.a.k
	gid := k.gen.NextGroup()
	k.groups.Create(gid)
	if err := k.groups.Join(gid, c.a.tid); err != nil {
		return ids.NoGroup, err
	}
	c.a.mu.Lock()
	c.a.attrs.Group = gid
	c.a.mu.Unlock()
	return gid, nil
}

// JoinGroup implements object.Ctx.
func (c *Ctx) JoinGroup(gid ids.GroupID) error {
	k := c.a.k
	if err := k.groupJoin(gid, c.a.tid, false); err != nil {
		return err
	}
	c.a.mu.Lock()
	c.a.attrs.Group = gid
	c.a.mu.Unlock()
	return nil
}

// SetTimer implements object.Ctx: the periodic timer registration of §6.2.
func (c *Ctx) SetTimer(name event.Name, period time.Duration) error {
	if period <= 0 {
		return fmt.Errorf("core: timer period must be positive, got %v", period)
	}
	c.a.mu.Lock()
	c.a.attrs.AddTimer(thread.TimerSpec{Event: name, Period: period})
	c.a.mu.Unlock()
	c.a.stopTimers()
	c.a.startTimers()
	return nil
}

// ClearTimer implements object.Ctx.
func (c *Ctx) ClearTimer(name event.Name) error {
	c.a.mu.Lock()
	removed := c.a.attrs.RemoveTimer(name)
	c.a.mu.Unlock()
	if !removed {
		return fmt.Errorf("core: no timer registered for %s", name)
	}
	c.a.stopTimers()
	c.a.startTimers()
	return nil
}

// Checkpoint implements object.Ctx: the explicit interruption point.
func (c *Ctx) Checkpoint() error {
	c.a.pc.Add(1)
	if !c.inHandler {
		c.a.k.processPending(c.a, false)
	}
	return c.a.stopped()
}

// Sleep implements object.Ctx: an interruptible kernel wait.
func (c *Ctx) Sleep(d time.Duration) error {
	if c.inHandler {
		// Handlers run with the thread suspended; they sleep plainly.
		select {
		case <-c.a.k.sys.clk.After(d):
			return nil
		case <-c.a.k.sys.closed:
			return ErrShutdown
		}
	}
	c.a.enterBlocked("sleep")
	timer := c.a.k.sys.clk.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-c.a.stopCh:
	case <-c.a.k.sys.closed:
		return ErrShutdown
	}
	return c.a.exitBlocked()
}

// currentObj resolves the current frame's object, which every state access
// needs.
func (c *Ctx) currentObj() (*object.Object, error) {
	f, ok := c.a.topFrame()
	if !ok {
		return nil, errors.New("core: no current object (root activation outside any invocation)")
	}
	return f.obj, nil
}

// Get implements object.Ctx. In DSM mode the volatile state of a
// remote-homed object is reached through its home node, preserving
// one-copy semantics for non-segment state.
func (c *Ctx) Get(key string) (any, bool) {
	obj, err := c.currentObj()
	if err != nil {
		return nil, false
	}
	k := c.a.k
	if obj.ID().Home() == k.node {
		return obj.Get(key)
	}
	body, err := k.call(obj.ID().Home(), kindKVGet, kvReq{Object: obj.ID(), Key: key})
	if err != nil {
		return nil, false
	}
	rep, ok := body.(kvReply)
	if !ok {
		return nil, false
	}
	return rep.Val, rep.Found
}

// Set implements object.Ctx.
func (c *Ctx) Set(key string, val any) {
	obj, err := c.currentObj()
	if err != nil {
		return
	}
	k := c.a.k
	if obj.ID().Home() == k.node {
		obj.Set(key, val)
		return
	}
	// object.Ctx.Set has no error path (a local Set cannot fail); a write
	// the home node never took is counted instead.
	_, err = k.call(obj.ID().Home(), kindKVSet, kvReq{Object: obj.ID(), Key: key, Val: val})
	k.sys.dropErr("kvset", err)
}

// CompareAndSwap implements object.Ctx. Like Get/Set, remote-homed objects
// are reached through their home node so the swap stays atomic.
func (c *Ctx) CompareAndSwap(key string, old, new any) bool {
	obj, err := c.currentObj()
	if err != nil {
		return false
	}
	k := c.a.k
	if obj.ID().Home() == k.node {
		return obj.CompareAndSwap(key, old, new)
	}
	body, err := k.call(obj.ID().Home(), kindKVCas, kvReq{Object: obj.ID(), Key: key, Val: new, Old: old})
	if err != nil {
		return false
	}
	swapped, ok := body.(bool)
	return ok && swapped
}

// Metrics exposes the system counter registry to packages layered on the
// kernel (locks, monitor, pager); it is not part of object.Ctx.
func (c *Ctx) Metrics() *metrics.Registry { return c.a.k.sys.reg }

// ReadData implements object.Ctx.
func (c *Ctx) ReadData(off, n int) ([]byte, error) {
	obj, err := c.currentObj()
	if err != nil {
		return nil, err
	}
	return c.SegRead(obj.Segment(), off, n)
}

// WriteData implements object.Ctx.
func (c *Ctx) WriteData(off int, data []byte) error {
	obj, err := c.currentObj()
	if err != nil {
		return err
	}
	return c.SegWrite(obj.Segment(), off, data)
}

// maxUserFaultRetries bounds VM_FAULT retry loops so a pager that never
// installs pages fails the access instead of spinning.
const maxUserFaultRetries = 8

// SegRead implements object.Ctx. Faults on user-paged segments raise
// VM_FAULT to this thread's handler chain (§6.4) and retry after a pager
// installs the page.
func (c *Ctx) SegRead(seg ids.SegmentID, off, n int) ([]byte, error) {
	k := c.a.k
	for attempt := 0; ; attempt++ {
		data, err := k.dsm.Read(seg, off, n)
		var fe *dsm.FaultError
		if err == nil || !errors.As(err, &fe) || attempt >= maxUserFaultRetries {
			return data, err
		}
		if herr := k.raiseVMFault(c.a, fe); herr != nil {
			return nil, fmt.Errorf("vm fault on %v page %d: %w", fe.Seg, fe.Page, herr)
		}
	}
}

// SegWrite implements object.Ctx.
func (c *Ctx) SegWrite(seg ids.SegmentID, off int, data []byte) error {
	k := c.a.k
	for attempt := 0; ; attempt++ {
		err := k.dsm.Write(seg, off, data)
		var fe *dsm.FaultError
		if err == nil || !errors.As(err, &fe) || attempt >= maxUserFaultRetries {
			return err
		}
		if herr := k.raiseVMFault(c.a, fe); herr != nil {
			return fmt.Errorf("vm fault on %v page %d: %w", fe.Seg, fe.Page, herr)
		}
	}
}

// InstallPage implements object.Ctx.
func (c *Ctx) InstallPage(node ids.NodeID, seg ids.SegmentID, page int, data []byte) error {
	k := c.a.k
	if node == k.node {
		return k.dsm.InstallPage(seg, page, data)
	}
	_, err := k.call(node, kindPageInstall, pageOpReq{Seg: seg, Page: page, Data: data})
	return err
}

// DropPage implements object.Ctx.
func (c *Ctx) DropPage(node ids.NodeID, seg ids.SegmentID, page int) error {
	k := c.a.k
	if node == k.node {
		return k.dsm.DropPage(seg, page)
	}
	_, err := k.call(node, kindPageDrop, pageOpReq{Seg: seg, Page: page})
	return err
}

// FetchPage implements object.Ctx.
func (c *Ctx) FetchPage(node ids.NodeID, seg ids.SegmentID, page int) ([]byte, bool, error) {
	k := c.a.k
	if node == k.node {
		data, found := k.dsm.CachedPage(seg, page)
		return data, found, nil
	}
	body, err := k.call(node, kindPageFetch, pageOpReq{Seg: seg, Page: page})
	if err != nil {
		return nil, false, err
	}
	rep, ok := body.(pageFetchReply)
	if !ok {
		return nil, false, fmt.Errorf("core: page.fetch reply %T", body)
	}
	return rep.Data, rep.Found, nil
}

// Output implements object.Ctx: writes travel to the thread's I/O channel
// regardless of which object or node the thread is executing in (§3.1).
func (c *Ctx) Output(line string) {
	c.a.mu.Lock()
	ch := c.a.attrs.IOChannel
	c.a.mu.Unlock()
	c.a.k.sys.writeIO(ch, line)
}
