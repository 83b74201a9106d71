package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/dsm"
	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/locate"
	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/thread"
	"repro/internal/trace"
)

// raise is the asynchronous raise system call (§5.3): the raiser does not
// block. raiser is nil when the kernel or an external agent (the user's ^C)
// raises the event. At a remote object nil means handed to the reliable
// layer, not accepted there: later failures are counted (core.err.dropped.*;
// FT off: net.msg.dropped only). A local object still reports its lookup error.
func (k *Kernel) raise(raiser *activation, name event.Name, target event.Target, user map[string]any) error {
	eb, err := k.newBlock(raiser, name, target, user)
	if err != nil {
		return err
	}
	return k.route(eb)
}

// raiseAndWait is the synchronous raise_and_wait system call (§5.3): the
// raiser blocks until a handler explicitly resumes it, and receives the
// handler's verdict.
func (k *Kernel) raiseAndWait(raiser *activation, name event.Name, target event.Target, user map[string]any) (event.Verdict, error) {
	eb, err := k.newBlock(raiser, name, target, user)
	if err != nil {
		return 0, err
	}
	eb.Sync = true

	id := k.syncSeq.Add(1)
	eb.SyncID = id
	w := newSyncWaiter(id)
	k.syncWait.put(id, w)
	defer func() {
		k.syncWait.drop(id)
		w.recycle()
	}()

	// Resolve the recipient set and route asynchronously. Routing blocks on
	// kernel calls (group membership lookups, remote posts) that can stall
	// for a full call timeout each when the fabric is damaged; the raiser
	// waits in collectReleases, bounded by RaiseTimeout alone. The goroutine
	// captures the channel, never w itself: it can outlive the raiser, and
	// by then the recycled waiter may belong to a different raise.
	expectCh := w.expectCh
	k.wg.Add(1)
	go func() {
		defer k.wg.Done()
		if eb.Target.Kind == event.TargetGroup {
			members, err := k.groupMembers(eb.Target.Group)
			if err == nil && len(members) == 0 {
				err = fmt.Errorf("%w: group %v is empty", ErrThreadNotFound, eb.Target.Group)
			}
			if err != nil {
				expectCh <- 1
				k.release(releaseReq{ID: id, Err: err})
				return
			}
			expectCh <- len(members)
			// The membership that sized expect is the one fanned out to; a
			// failed member post releases the raiser itself, so the error
			// has nowhere else to go.
			_ = k.raiseToGroup(eb, eb.Target.Group, members)
			return
		}
		expectCh <- 1
		if err := k.route(eb); err != nil && eb.Target.Kind == event.TargetThread {
			// Object routing already releases on failure; a failed thread
			// post must do so here.
			k.release(releaseReq{ID: id, Err: err})
		}
	}()
	return k.collectReleases(raiser, w)
}

// collectReleases blocks the raiser until every recipient's handler chain
// finished and released it, or the raise timeout expires — whichever is
// first. It never hangs indefinitely: a severed link, a crashed node, or a
// lost release all surface as a typed error within RaiseTimeout.
func (k *Kernel) collectReleases(raiser *activation, w *syncWaiter) (event.Verdict, error) {
	if raiser != nil {
		raiser.enterBlocked("raise_and_wait")
	}
	var (
		verdict  = event.VerdictResume
		consumed bool
		firstErr error
	)
	d := k.sys.cfg.RaiseTimeout
	timer := k.sys.clk.NewTimer(d)
	defer timer.Stop()
	expect := -1 // unknown until routing resolves the recipient set
collect:
	for got := 0; expect < 0 || got < expect; {
		select {
		case e := <-w.expectCh:
			expect = e
		case rel := <-w.ch:
			if rel.ID != w.id {
				// A release from the waiter's previous life that slipped into
				// the recycled buffer after the drain.
				continue
			}
			got++
			if rel.Err != nil && firstErr == nil {
				firstErr = rel.Err
			}
			if rel.Consumed {
				consumed = true
				if rel.Verdict == event.VerdictTerminate {
					verdict = event.VerdictTerminate
				}
			}
		case <-k.sys.closed:
			firstErr = ErrShutdown
			break collect
		case <-k.downChan():
			firstErr = ErrNodeCrashed
			break collect
		case <-timer.C:
			firstErr = fmt.Errorf("%w: no release after %v", ErrRaiseTimeout, d)
			break collect
		}
	}
	if raiser != nil {
		if err := raiser.exitBlocked(); err != nil {
			return verdict, err
		}
	}
	if firstErr != nil {
		return verdict, firstErr
	}
	if !consumed {
		return verdict, ErrUnhandledSync
	}
	return verdict, nil
}

// newBlock validates and stamps a fresh event block.
func (k *Kernel) newBlock(raiser *activation, name event.Name, target event.Target, user map[string]any) (*event.Block, error) {
	if !k.sys.events.Registered(name) {
		return nil, fmt.Errorf("%w: %s", ErrNotRegistered, name)
	}
	if err := target.Validate(); err != nil {
		return nil, err
	}
	k.sys.ctrs.eventRaised.Add(1)
	eb := &event.Block{
		Stamp:      k.gen.NextStamp(),
		Name:       name,
		Target:     target,
		RaiserNode: k.node,
		User:       user,
		Class:      uint8(k.classOf(raiser, name)),
	}
	if raiser != nil {
		eb.Raiser = raiser.tid
	}
	k.sys.tr.Add(trace.Record{
		Kind: trace.KindRaise, Node: k.node, Thread: eb.Raiser,
		Event: name, Target: target.String(),
	})
	return eb, nil
}

// route sends the block toward its recipients (§5.3's addressing matrix).
func (k *Kernel) route(eb *event.Block) error {
	switch eb.Target.Kind {
	case event.TargetThread:
		return k.raiseToThread(eb, eb.Target.Thread)
	case event.TargetObject:
		return k.raiseToObject(eb, eb.Target.Object)
	case event.TargetGroup:
		members, err := k.groupMembers(eb.Target.Group)
		if err != nil {
			return err
		}
		return k.raiseToGroup(eb, eb.Target.Group, members)
	default:
		return fmt.Errorf("core: unroutable target %v", eb.Target)
	}
}

// raiseToGroup fans the event out to every member (§5.3: "event posted to a
// thread group will be sent to all the members of the group", after V
// process groups). A group with a member rooted on another node goes down
// the spanning relay tree (fanout.go): one message per child instead of a
// probe and a post per member, with delivery errors surfacing at the
// responsible relay. A group rooted entirely here, and every group when
// FanoutK < 0 (the reference path E16 measures the tree against), is posted
// member by member from this node: a one-node tree would deliver the same
// way, allocate its layout for nothing (doctbench local_allocs_per_op 39.0
// → 40.8 without this scan) and lose the caller the first member's error.
func (k *Kernel) raiseToGroup(eb *event.Block, gid ids.GroupID, members []ids.ThreadID) error {
	if k.sys.cfg.FanoutK >= 0 {
		for _, tid := range members {
			if tid.Root() != k.node {
				k.raiseToGroupTree(eb, gid, members)
				return nil
			}
		}
	}
	var firstErr error
	for _, tid := range members {
		if err := k.postToMember(eb, gid, tid); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("member %v: %w", tid, err)
		}
	}
	return firstErr
}

// postToMember posts one member's clone of a group event. A member whose
// TCB says Here is posted to directly; the locator is consulted only for
// one that is, or has just moved, elsewhere. A synchronous raiser always
// hears back — a failed post releases it with the error in place of the
// member's handler — and a dead member is pruned from the group (§7.2 warns
// that trails of dead threads "create garbage collection problems"; members
// lost with a crashed node go the same way once the detector flags it).
func (k *Kernel) postToMember(eb *event.Block, gid ids.GroupID, tid ids.ThreadID) error {
	m := eb.Clone()
	m.Target = event.ToThread(tid)
	var err error
	if tcb, ok := k.tcbs.Lookup(tid); ok && tcb.Here {
		if err = k.postToThreadLocal(m); errors.Is(err, errThreadMoved) {
			err = k.raiseToThread(m, tid) // it left between the look and the post
		}
	} else {
		err = k.raiseToThread(m, tid)
	}
	if err == nil {
		return nil
	}
	if m.Sync {
		k.releaseRaiser(m, 0, false, err)
	}
	if errors.Is(err, ErrThreadNotFound) || errors.Is(err, ErrNodeDown) {
		_ = k.groupJoin(gid, tid, true)
	}
	return err
}

// locateRetries bounds re-location when a thread moves between locate and
// post (it "moves around much faster than other resources", §7.1).
const locateRetries = 4

// raiseToThread locates the thread and posts the event at its node.
func (k *Kernel) raiseToThread(eb *event.Block, tid ids.ThreadID) error {
	var lastErr error
	for attempt := 0; attempt < locateRetries; attempt++ {
		node, err := k.sys.cfg.Locator.Locate(k, tid)
		if err != nil {
			// The thread may be in transit between nodes (its forwarding
			// state mid-update); back off briefly and re-locate. A cached
			// location cannot help a thread in transit, so drop it too.
			k.invalidateLocation(tid)
			lastErr = err
			if attempt < locateRetries-1 {
				k.sys.clk.Sleep(time.Duration(attempt+1) * time.Millisecond)
				continue
			}
			return fmt.Errorf("%w: %v (%v)", ErrThreadNotFound, tid, err)
		}
		if tr := k.sys.tr; tr.Enabled() {
			tr.Add(trace.Record{
				Kind: trace.KindLocate, Node: k.node, Thread: tid,
				Event: eb.Name, Target: node.String(),
				Detail: fmt.Sprintf("strategy=%s attempt=%d", k.sys.cfg.Locator.Name(), attempt),
			})
		}
		var postErr error
		if node == k.node {
			postErr = k.postToThreadLocal(eb)
		} else {
			_, postErr = k.call(node, kindEvThread, eb)
		}
		if postErr == nil {
			return nil
		}
		if !errors.Is(postErr, errThreadMoved) {
			return postErr
		}
		// The thread left node between locate and post: any cached
		// location for it is stale. Invalidate before re-locating so the
		// retry falls through to the wrapped strategy (the §7.1 retry loop
		// is what keeps the cache sound).
		k.invalidateLocation(tid)
		lastErr = postErr
		k.sys.clk.Sleep(time.Millisecond)
	}
	return fmt.Errorf("%w: %v (%v)", ErrThreadNotFound, tid, lastErr)
}

// invalidateLocation drops tid from the locator's cache, if the configured
// strategy keeps one, charging the stale counter when an entry was
// actually present.
func (k *Kernel) invalidateLocation(tid ids.ThreadID) {
	if inv, ok := k.sys.cfg.Locator.(locate.Invalidator); ok {
		if inv.Invalidate(tid) {
			k.sys.reg.Inc(metrics.CtrLocateCacheStale)
		}
	}
}

// postToThreadLocal enqueues the event for the thread's deepest activation
// at this node. The thread need not be resident: a TCB left behind as a
// forwarding pointer means an activation is blocked here mid-invoke, and
// enqueueing on it delivers by surrogate (§6.1) — this is how events reach
// a thread that is in transit on the wire (§7.1). Only when no TCB exists
// at all does the post fail with errThreadMoved, so the raiser re-locates.
func (k *Kernel) postToThreadLocal(eb *event.Block) error {
	tid := eb.Target.Thread
	if _, ok := k.tcbs.Lookup(tid); !ok {
		return fmt.Errorf("%w: %v at %v", errThreadMoved, tid, k.node)
	}
	a, ok := k.topAct(tid)
	if !ok {
		return fmt.Errorf("%w: %v at %v (no activation)", errThreadMoved, tid, k.node)
	}
	if a.stopped() != nil {
		return fmt.Errorf("%w: %v already stopped", ErrThreadNotFound, tid)
	}
	if !k.enqueue(a, eb) {
		// The activation returned to its caller between topAct and
		// enqueue; the thread lives on upstream, so have the raiser
		// re-locate rather than dropping or death-noticing the event.
		return fmt.Errorf("%w: %v departed %v", errThreadMoved, tid, k.node)
	}
	return nil
}

// postTimerLocal delivers a TIMER-style event straight to the activation
// whose node-local timer fired (§6.2: the registration is recreated at
// every node the thread visits, so delivery is always local).
func (k *Kernel) postTimerLocal(a *activation, name event.Name) {
	eb := &event.Block{
		Stamp:      k.gen.NextStamp(),
		Name:       name,
		Target:     event.ToThread(a.tid),
		RaiserNode: k.node,
		Class:      classSystemU8,
	}
	k.sys.ctrs.eventRaised.Add(1)
	if a.stopped() == nil {
		// A departed activation drops node-local timer events: the timers
		// are recreated wherever the thread now runs (§6.2).
		k.enqueue(a, eb)
	}
}

// enqueue queues the event and arranges for its delivery: inline at the
// activation's next interruption point if it is running, by a surrogate
// thread if it is blocked in a kernel operation. It reports false if the
// activation has departed (returned to its caller), in which case the
// event was not queued and the caller must re-locate the thread.
func (k *Kernel) enqueue(a *activation, eb *event.Block) bool {
	a.mu.Lock()
	if a.departed {
		a.mu.Unlock()
		return false
	}
	a.pending = append(a.pending, eb)
	needSurrogate := a.status != thread.StatusRunning && !a.delivering
	a.mu.Unlock()
	if needSurrogate {
		k.spawnSurrogate(a)
	}
	return true
}

// spawnSurrogate starts a surrogate delivery thread for a blocked
// activation (§6.1: "The object handler can be run using a surrogate
// thread").
func (k *Kernel) spawnSurrogate(a *activation) {
	k.sys.ctrs.surrogateRuns.Add(1)
	k.wg.Add(1)
	go func() {
		defer k.wg.Done()
		k.processPending(a, true)
	}()
}

// drainPending handles events that raced with the activation's completion:
// synchronous raisers are released with a thread-death error, and
// asynchronous raisers are sent a THREAD_DEATH notice (§7.2: "When a
// notification is posted to a thread and the thread has been destroyed,
// the sender of the event (if it is an asynchronous event) needs to be
// notified").
func (k *Kernel) drainPending(a *activation) {
	a.mu.Lock()
	pending := a.pending
	a.pending = nil
	a.mu.Unlock()
	for _, eb := range pending {
		if eb.Sync {
			k.releaseRaiser(eb, 0, false, fmt.Errorf("%w: %v", ErrThreadNotFound, a.tid))
			continue
		}
		k.notifyThreadDeath(a.tid, eb)
	}
}

// rerouteRetries bounds re-posting of events stranded in a departed
// activation's queue. Each attempt already includes raiseToThread's own
// locate-and-retry rounds; the outer loop rides out the invoke-reply
// latency window during which no node's TCB claims the thread.
const rerouteRetries = 25

// reroutePending re-posts events that were queued on an activation that
// then returned to its caller. The thread is still alive — it continues
// at the invoking node — so these events are re-raised at its current
// location instead of being death-noticed (exactly-once: they were queued
// here but never delivered). Only if the thread cannot be found after the
// retry budget (it genuinely terminated in the meantime, or the system is
// closing) does the §7.2 death-notice protocol apply.
func (k *Kernel) reroutePending(tid ids.ThreadID, pending []*event.Block) {
	for _, eb := range pending {
		eb := eb
		k.wg.Add(1)
		go func() {
			defer k.wg.Done()
			var err error
			for attempt := 0; attempt < rerouteRetries; attempt++ {
				if err = k.raiseToThread(eb, tid); err == nil {
					return
				}
				if !errors.Is(err, ErrThreadNotFound) {
					break
				}
				select {
				case <-k.sys.closed:
					return
				case <-k.sys.clk.After(2 * time.Millisecond):
				}
			}
			if eb.Sync {
				k.releaseRaiser(eb, 0, false, err)
			} else {
				k.notifyThreadDeath(tid, eb)
			}
		}()
	}
}

// notifyThreadDeath posts THREAD_DEATH back to the raiser of an
// undeliverable asynchronous event. Death notices themselves never
// generate further notices (the paper's garbage-collection concern).
func (k *Kernel) notifyThreadDeath(dead ids.ThreadID, eb *event.Block) {
	if eb.Name == event.ThreadDeath || !eb.Raiser.IsValid() || eb.Raiser == dead {
		return
	}
	notice := &event.Block{
		Stamp:      k.gen.NextStamp(),
		Name:       event.ThreadDeath,
		Target:     event.ToThread(eb.Raiser),
		RaiserNode: k.node,
		Class:      classControlU8,
		User: map[string]any{
			"dead":  dead,
			"event": eb.Name,
			"stamp": eb.Stamp,
		},
	}
	k.sys.ctrs.eventRaised.Add(1)
	// Best effort: if the raiser is gone too, the notice is dropped
	// rather than chained (no zombie trails).
	k.wg.Add(1)
	go func() {
		defer k.wg.Done()
		k.sys.dropErr("deathnotice", k.raiseToThread(notice, eb.Raiser))
	}()
}

// processPending walks the activation's queued events, suspending the
// thread for each, running its handler chain, applying the verdict and
// releasing synchronous raisers. When surrogate is false the caller is the
// activation's own goroutine at an interruption point, and it additionally
// waits for any active surrogate to finish (the sole attribute-access
// synchronization point between the two).
func (k *Kernel) processPending(a *activation, surrogate bool) {
	a.mu.Lock()
	if surrogate {
		if a.delivering {
			a.mu.Unlock()
			return
		}
	} else {
		for a.delivering {
			a.cond.Wait()
		}
	}
	if len(a.pending) == 0 {
		a.mu.Unlock()
		return
	}
	a.delivering = true
	for len(a.pending) > 0 {
		eb := a.pending[0]
		a.pending = a.pending[1:]
		if a.stopped() != nil {
			a.mu.Unlock()
			if eb.Sync {
				k.releaseRaiser(eb, 0, false, fmt.Errorf("%w: %v", ErrThreadNotFound, a.tid))
			} else {
				k.notifyThreadDeath(a.tid, eb)
			}
			a.mu.Lock()
			continue
		}
		prev := a.status
		a.status = thread.StatusSuspended
		a.mu.Unlock()

		verdict, consumed := k.runChain(a, eb)
		k.sys.ctrs.eventDelivered.Add(1)
		k.sys.tr.Add(trace.Record{
			Kind: trace.KindDeliver, Node: k.node, Thread: a.tid,
			Event: eb.Name, Target: eb.Target.String(),
			Detail: fmt.Sprintf("verdict=%v consumed=%v", verdict, consumed),
		})
		if eb.Sync {
			k.releaseRaiser(eb, verdict, consumed, nil)
		}

		a.mu.Lock()
		if a.status == thread.StatusSuspended {
			a.status = prev
		}
	}
	a.delivering = false
	a.cond.Broadcast()
	a.mu.Unlock()
}

// runChain walks the thread's LIFO handler chain for the event (§4.2),
// applying the consuming handler's verdict or the system default action.
// Per §6.1, the object the thread is active in gets the first chance: its
// object-based handler (if it registered one for this event) runs before
// the thread's chain, on a surrogate carrying the suspended thread's
// attributes, and may consume the event, terminate the thread, or
// propagate to the thread handlers.
func (k *Kernel) runChain(a *activation, eb *event.Block) (event.Verdict, bool) {
	eb.State = a.snapshotState()

	if f, ok := a.topFrame(); ok {
		if h, registered := f.obj.Handler(eb.Name); registered {
			k.sys.ctrs.handlerObject.Add(1)
			k.sys.tr.Add(trace.Record{
				Kind: trace.KindHandlerRun, Node: k.node, Thread: a.tid,
				Event: eb.Name, Detail: "object:" + f.obj.ID().String(),
			})
			switch k.runObjectHandler(f.obj, h, eb) {
			case event.VerdictTerminate:
				a.stop(ErrTerminated)
				return event.VerdictTerminate, true
			case event.VerdictPropagate:
				// The object took its generic corrective action; the
				// thread's own handlers decide next (§6.1).
			default:
				return event.VerdictResume, true
			}
		}
	}

	a.mu.Lock()
	handlers := a.attrs.Handlers.For(eb.Name)
	a.mu.Unlock()

	for _, h := range handlers {
		k.sys.ctrs.chainLinks.Add(1)
		k.sys.tr.Add(trace.Record{
			Kind: trace.KindHandlerRun, Node: k.node, Thread: a.tid,
			Event: eb.Name, Detail: h.String(),
		})
		v, err := k.runThreadHandler(a, h, eb)
		if err != nil {
			// A broken handler (missing code, unreachable buddy) must not
			// swallow the event: propagate down the chain.
			continue
		}
		switch v {
		case event.VerdictPropagate:
			continue
		case event.VerdictTerminate:
			a.stop(ErrTerminated)
			return event.VerdictTerminate, true
		default:
			return event.VerdictResume, true
		}
	}

	// Chain exhausted: the operating system's default behaviour applies
	// (§5.1).
	k.sys.ctrs.eventDefault.Add(1)
	k.sys.tr.Add(trace.Record{
		Kind: trace.KindDefault, Node: k.node, Thread: a.tid,
		Event: eb.Name, Detail: event.DefaultFor(eb.Name).String(),
	})
	switch event.DefaultFor(eb.Name) {
	case event.ActTerminate:
		a.stop(ErrTerminated)
		return event.VerdictTerminate, false
	case event.ActAbortInvocation:
		a.stop(ErrAborted)
		return event.VerdictTerminate, false
	default:
		return event.VerdictResume, false
	}
}

// runThreadHandler executes one thread-based handler in its declared
// context (§4.1).
func (k *Kernel) runThreadHandler(a *activation, h event.HandlerRef, eb *event.Block) (event.Verdict, error) {
	switch h.Kind {
	case event.KindProc:
		// Per-thread-memory procedure: executed within the context of the
		// object the thread currently occupies.
		f, err := k.sys.proc(h.Proc)
		if err != nil {
			return 0, err
		}
		k.sys.ctrs.handlerOwnCtx.Add(1)
		return f(a.handlerCtx(), h, eb), nil

	case event.KindEntry, event.KindBuddy:
		if h.Kind == event.KindEntry {
			k.sys.ctrs.handlerThread.Add(1)
		} else {
			k.sys.ctrs.handlerBuddy.Add(1)
		}
		home := h.Object.Home()
		a.mu.Lock()
		attrs := a.attrs.Clone()
		a.mu.Unlock()
		if home == k.node {
			verdict, outAttrs, err := k.runHandlerMethod(h, eb, attrs)
			if err != nil {
				return 0, err
			}
			a.mu.Lock()
			a.attrs.MergeFrom(outAttrs)
			a.mu.Unlock()
			return verdict, nil
		}
		// Unscheduled invocation to wherever the handler's object lives
		// (§7.2).
		body, err := k.call(home, kindHandlerRun, handlerRunReq{Ref: h, EB: eb, Attrs: attrs})
		if err != nil {
			return 0, err
		}
		rep, ok := body.(handlerRunReply)
		if !ok {
			return 0, fmt.Errorf("core: handler.run reply %T", body)
		}
		a.mu.Lock()
		a.attrs.MergeFrom(rep.Attrs)
		a.mu.Unlock()
		return rep.Verdict, nil

	default:
		return 0, fmt.Errorf("core: invalid handler kind %v", h.Kind)
	}
}

// handlerRunReq ships a handler execution to the handler object's node.
// The suspended thread's attributes travel so the surrogate can take them
// on (§6.1); changes travel back in the reply.
type handlerRunReq struct {
	Ref   event.HandlerRef
	EB    *event.Block
	Attrs *thread.Attributes
}

type handlerRunReply struct {
	Verdict event.Verdict
	Attrs   *thread.Attributes
}

// serveHandlerRun executes a handler method at this node on behalf of a
// suspended thread elsewhere.
func (k *Kernel) serveHandlerRun(req handlerRunReq) (any, error) {
	verdict, attrs, err := k.runHandlerMethod(req.Ref, req.EB, req.Attrs)
	if err != nil {
		return nil, err
	}
	return handlerRunReply{Verdict: verdict, Attrs: attrs}, nil
}

// runHandlerMethod runs the named handler method of a resident object on a
// surrogate system thread carrying the suspended thread's attributes.
func (k *Kernel) runHandlerMethod(ref event.HandlerRef, eb *event.Block, attrs *thread.Attributes) (event.Verdict, *thread.Attributes, error) {
	obj, err := k.store.Lookup(ref.Object)
	if err != nil {
		return 0, nil, err
	}
	m, ok := obj.HandlerMethod(ref.Entry)
	if !ok {
		return 0, nil, fmt.Errorf("core: %v has no handler method %q", ref.Object, ref.Entry)
	}
	sa := k.systemActivation(obj, attrs)
	verdict := m(sa.handlerCtx(), ref, eb)
	sa.stopTimers()
	return verdict, sa.attrs, nil
}

// systemActivation builds a surrogate activation executing in obj's
// context. It carries the suspended thread's attribute contents under a
// fresh system thread identity, so its own invocations never corrupt the
// suspended thread's TCB trail.
func (k *Kernel) systemActivation(obj *object.Object, attrs *thread.Attributes) *activation {
	var sattrs *thread.Attributes
	if attrs != nil {
		sattrs = attrs.Clone()
	} else {
		sattrs = thread.NewAttributes(ids.NoThread)
	}
	sattrs.Thread = k.gen.NextThread()
	sa := newActivation(k, sattrs, 0)
	sa.system = true
	if obj != nil {
		sa.frames = []frame{{obj: obj, entry: "<handler>"}}
	}
	return sa
}

// releaseRaiser wakes a raise_and_wait caller. A remote release is one-way:
// nobody reads a reply, so the handler thread does not wait a round trip
// for one. A release that cannot be sent — this node crashed, the raiser's
// is suspected — is counted; the raiser is bounded by RaiseTimeout.
func (k *Kernel) releaseRaiser(eb *event.Block, verdict event.Verdict, consumed bool, relErr error) {
	rel := releaseReq{ID: eb.SyncID, Verdict: verdict, Consumed: consumed, Err: relErr}
	if eb.RaiserNode == k.node {
		k.release(rel)
		return
	}
	k.sys.dropErr("release_send", k.send(eb.RaiserNode, kindEvRelease, rel))
}

// errReleaseLost names a release dropped at a waiter whose buffer is full.
var errReleaseLost = errors.New("core: release dropped, waiter buffer full")

// release hands a release to the local waiter, if it is still waiting.
func (k *Kernel) release(rel releaseReq) {
	if w := k.syncWait.get(rel.ID); w != nil {
		select {
		case w.ch <- rel:
		default:
			k.sys.dropErr("release", errReleaseLost)
		}
	}
}

// Object-based event delivery (§4.3).

// objectEventReq ships an event to a (possibly passive) object's node.
type objectEventReq struct {
	EB *event.Block
}

// objectEventReply returns the handler's verdict for synchronous raises.
type objectEventReply struct {
	Verdict  event.Verdict
	Consumed bool
}

// raiseToObject routes the event to the object's home node. An asynchronous
// raise at a remote object is one one-way message (§5.3: the raiser does
// not block); what the home node makes of it is counted there. For
// synchronous raises the reply releases the raiser directly.
func (k *Kernel) raiseToObject(eb *event.Block, oid ids.ObjectID) error {
	home, req := oid.Home(), objectEventReq{EB: eb}
	var body any
	var err error
	switch {
	case home == k.node:
		body, err = k.serveObjectEvent(req)
	case !eb.Sync:
		return k.send(home, kindEvObject, req)
	default:
		body, err = k.call(home, kindEvObject, req)
	}
	if !eb.Sync {
		return err
	}
	if err != nil {
		k.releaseRaiser(eb, 0, false, err)
		return nil // the error reaches the raiser through the release
	}
	rep, ok := body.(objectEventReply)
	if !ok {
		k.releaseRaiser(eb, 0, false, fmt.Errorf("core: ev.object reply %T", body))
		return nil
	}
	k.releaseRaiser(eb, rep.Verdict, rep.Consumed, nil)
	return nil
}

// serveObjectEvent delivers an event to a resident object: the kernel
// performs an implicit invocation of the object's registered handler, run
// by a master handler thread or a freshly spawned one (§4.3, §7).
func (k *Kernel) serveObjectEvent(req objectEventReq) (any, error) {
	eb := req.EB
	obj, err := k.store.Lookup(eb.Target.Object)
	if err != nil {
		return nil, err
	}
	h, ok := obj.Handler(eb.Name)
	if !ok {
		// Default behaviour for unhandled object events.
		k.sys.ctrs.eventDefault.Add(1)
		if eb.Name == event.Delete {
			if derr := k.deleteObjectLocal(obj.ID()); derr != nil {
				return nil, derr
			}
		}
		k.sys.ctrs.eventDelivered.Add(1)
		return objectEventReply{Verdict: event.VerdictResume, Consumed: false}, nil
	}

	run := func() event.Verdict {
		v := k.dispatchObjectHandler(obj, h, eb)
		k.sys.ctrs.eventDelivered.Add(1)
		if eb.Name == event.Delete {
			// The handler had its chance to clean up; the object goes away
			// regardless (§5.1's my_delete_handler template).
			_ = k.deleteObjectLocal(obj.ID())
		}
		return v
	}

	if eb.Sync {
		return objectEventReply{Verdict: run(), Consumed: true}, nil
	}
	// Asynchronous raise: the raiser must not wait for the handler.
	k.wg.Add(1)
	go func() {
		defer k.wg.Done()
		run()
	}()
	return objectEventReply{Verdict: event.VerdictResume, Consumed: true}, nil
}

// dispatchObjectHandler runs the object's handler under its configured
// thread policy.
func (k *Kernel) dispatchObjectHandler(obj *object.Object, h object.Handler, eb *event.Block) event.Verdict {
	switch obj.Policy() {
	case object.SpawnPerEvent:
		// A fresh system thread per event: the costly option §4.3 argues
		// against; kept for experiment E3.
		k.sys.ctrs.threadCreated.Add(1)
		done := make(chan event.Verdict, 1)
		k.wg.Add(1)
		go func() {
			defer k.wg.Done()
			done <- k.runObjectHandler(obj, h, eb)
		}()
		select {
		case v := <-done:
			return v
		case <-k.sys.closed:
			return event.VerdictResume
		}
	default: // MasterThread
		return k.masterFor(obj).handle(eb, h)
	}
}

// runObjectHandler executes an object-based handler on a surrogate system
// thread in the object's context. If the event names a thread with a local
// activation (e.g. an exception reported for a suspended thread), the
// surrogate takes on that thread's attributes "so that the context of the
// original thread can be examined and modified" (§6.1).
func (k *Kernel) runObjectHandler(obj *object.Object, h object.Handler, eb *event.Block) event.Verdict {
	attrs := k.suspendedAttrs(eb)
	sa := k.systemActivation(obj, attrs)
	v := h(sa.handlerCtx(), event.HandlerRef{}, eb)
	sa.stopTimers()
	return v
}

// suspendedAttrs clones the attributes of the thread an event concerns —
// only when that thread has a local activation that is actually suspended
// or blocked (a running thread's attributes are its own business; cloning
// them here would race with its execution).
func (k *Kernel) suspendedAttrs(eb *event.Block) *thread.Attributes {
	if eb.State == nil || !eb.State.Thread.IsValid() {
		return nil
	}
	a, ok := k.topAct(eb.State.Thread)
	if !ok {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.status != thread.StatusSuspended && a.status != thread.StatusBlocked {
		return nil
	}
	return a.attrs.Clone()
}

// master is an object's master handler thread (§4.3: "a handler thread can
// be associated with the object to handle all events on its behalf, thus
// eliminating thread-creation costs").
type master struct {
	k   *Kernel
	obj *object.Object
	ch  chan masterReq

	stopOnce sync.Once
	stopCh   chan struct{}
}

type masterReq struct {
	eb    *event.Block
	h     object.Handler
	reply chan event.Verdict
}

// masterFor lazily starts the object's master handler thread.
func (k *Kernel) masterFor(obj *object.Object) *master {
	k.masterMu.Lock()
	m, ok := k.masters[obj.ID()]
	if !ok {
		m = &master{k: k, obj: obj, ch: make(chan masterReq, 256), stopCh: make(chan struct{})}
		k.masters[obj.ID()] = m
		k.sys.ctrs.threadCreated.Add(1)
		k.wg.Add(1)
		go m.loop()
	}
	k.masterMu.Unlock()
	return m
}

func (m *master) loop() {
	defer m.k.wg.Done()
	for {
		select {
		case req := <-m.ch:
			m.k.sys.ctrs.masterServed.Add(1)
			req.reply <- m.k.runObjectHandler(m.obj, req.h, req.eb)
		case <-m.stopCh:
			return
		case <-m.k.sys.closed:
			return
		}
	}
}

func (m *master) stop() {
	m.stopOnce.Do(func() { close(m.stopCh) })
}

// handle runs one event on the master thread and returns the verdict.
func (m *master) handle(eb *event.Block, h object.Handler) event.Verdict {
	req := masterReq{eb: eb, h: h, reply: make(chan event.Verdict, 1)}
	select {
	case m.ch <- req:
	case <-m.k.sys.closed:
		return event.VerdictResume
	}
	select {
	case v := <-req.reply:
		return v
	case <-m.k.sys.closed:
		return event.VerdictResume
	}
}

// Distributed termination support (§6.3).

// abortReq chases an invocation chain, notifying each object and unwinding
// each activation.
type abortReq struct {
	TID ids.ThreadID
	Obj ids.ObjectID
}

// AbortInvocation aborts the invocation in progress for tid starting at
// obj: the object's ABORT handler runs (cleanup), the chain is chased to
// the object at the other end of the invocation, and the activations
// unwind with ErrAborted (§6.3).
func (k *Kernel) AbortInvocation(tid ids.ThreadID, oid ids.ObjectID) error {
	return k.abortChain(abortReq{TID: tid, Obj: oid})
}

func (k *Kernel) abortChain(req abortReq) error {
	home := req.Obj.Home()
	if home == k.node {
		return k.serveAbort(req)
	}
	_, err := k.call(home, kindAbortChain, req)
	return err
}

// serveAbort handles one hop of the abort chase at the aborted object's
// node.
func (k *Kernel) serveAbort(req abortReq) error {
	obj, err := k.store.Lookup(req.Obj)
	if err != nil {
		// The object is already gone; nothing to notify here.
		return nil
	}
	// Notify the object so it can clean up (close channels, release
	// resources): its object-based ABORT handler runs first.
	if h, ok := obj.Handler(event.Abort); ok {
		eb := &event.Block{
			Stamp:      k.gen.NextStamp(),
			Name:       event.Abort,
			Target:     event.ToObject(obj.ID()),
			RaiserNode: k.node,
			User:       map[string]any{"thread": req.TID},
			Class:      classControlU8,
		}
		k.sys.ctrs.eventRaised.Add(1)
		k.dispatchObjectHandler(obj, h, eb)
		k.sys.ctrs.eventDelivered.Add(1)
	}

	// Find the thread's activation that entered this object and chase the
	// invocation toward its other end.
	k.actMu.Lock()
	stack := k.acts[req.TID]
	var target *activation
	for i := len(stack) - 1; i >= 0; i-- {
		a := stack[i]
		a.mu.Lock()
		for _, f := range a.frames {
			if f.obj.ID() == req.Obj {
				target = a
				break
			}
		}
		a.mu.Unlock()
		if target != nil {
			break
		}
	}
	k.actMu.Unlock()
	if target == nil {
		return nil
	}

	target.mu.Lock()
	childObj := target.childObj
	target.mu.Unlock()

	if childObj.IsValid() {
		// "This causes the system to send an ABORT event to the object at
		// the other end of the invocation."
		if err := k.abortChain(abortReq{TID: req.TID, Obj: childObj}); err != nil {
			return err
		}
	}
	target.stop(ErrAborted)
	return nil
}

// raiseVMFault surfaces an unserviced user-paged fault to the faulting
// thread's own handler chain (§6.4): the thread is suspended at the fault,
// the chain (typically a buddy handler at a pager server) runs, and the
// access retries once a page was installed.
func (k *Kernel) raiseVMFault(a *activation, fe *dsm.FaultError) error {
	eb := &event.Block{
		Stamp:      k.gen.NextStamp(),
		Name:       event.VMFault,
		Target:     event.ToThread(a.tid),
		Raiser:     a.tid,
		RaiserNode: k.node,
		Class:      classSystemU8,
		User: map[string]any{
			"seg":   fe.Seg,
			"page":  fe.Page,
			"write": fe.Write,
			"node":  k.node,
		},
	}
	k.sys.ctrs.eventRaised.Add(1)
	a.mu.Lock()
	prev := a.status
	a.status = thread.StatusSuspended
	a.blockedOn = "vm_fault"
	a.mu.Unlock()

	verdict, consumed := k.runChain(a, eb)
	k.sys.ctrs.eventDelivered.Add(1)

	a.mu.Lock()
	if a.status == thread.StatusSuspended {
		a.status = prev
	}
	a.blockedOn = ""
	a.mu.Unlock()

	if err := a.stopped(); err != nil {
		return err
	}
	if !consumed {
		return fmt.Errorf("%w (no VM_FAULT handler attached)", dsm.ErrNoPager)
	}
	if verdict == event.VerdictTerminate {
		return ErrTerminated
	}
	return nil
}
