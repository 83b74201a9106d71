package core

import (
	"errors"
	"fmt"

	"repro/internal/ids"
	"repro/internal/locate"
	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/thread"
	"repro/internal/trace"
)

// invokeReq ships an invocation to the object's home node. The thread's
// attributes travel with the request (§3.1: the state of the thread is
// visible across all invocations) — as a full snapshot in Attrs on first
// contact (or legacy mode, or resync), or as a Delta against the snapshot
// the callee already caches. Exactly one of Attrs/Delta is set.
type invokeReq struct {
	TID   ids.ThreadID
	Attrs *thread.Attributes
	Delta *thread.Delta
	Obj   ids.ObjectID
	Entry string
	Args  []any
	Depth int
}

// invokeReply returns results and the callee's view of the attributes so
// handler attachments made downstream persist (§4.1). Replies always fit a
// Delta in delta mode: the caller necessarily holds the base — it is the
// snapshot it just sent.
type invokeReply struct {
	Results []any
	Attrs   *thread.Attributes
	Delta   *thread.Delta
	// AppErr is the entry's own error return; kernel-level failures
	// (termination, abort) travel as the RPC error instead.
	AppErr error
}

// invoke moves the calling thread into obj's entry (§2). Invocation
// boundaries are interruption points unless the call comes from handler
// code running on a suspended thread.
func (k *Kernel) invoke(a *activation, oid ids.ObjectID, entry string, args []any, inHandler bool) ([]any, error) {
	if !inHandler {
		k.processPending(a, false)
	}
	if err := a.stopped(); err != nil {
		return nil, err
	}
	home := oid.Home()
	if home == k.node {
		return k.invokeLocal(a, oid, entry, args, inHandler)
	}
	if k.sys.cfg.Mode == ModeDSM {
		return k.invokeDSM(a, oid, entry, args, inHandler)
	}
	return k.invokeRemote(a, oid, entry, args, home, inHandler)
}

// invokeLocal runs the entry in this node's resident object on the calling
// activation, pushing a frame (a local procedure call across an object
// boundary).
func (k *Kernel) invokeLocal(a *activation, oid ids.ObjectID, entry string, args []any, inHandler bool) ([]any, error) {
	obj, err := k.store.Lookup(oid)
	if err != nil {
		return nil, err
	}
	k.sys.reg.Inc(metrics.CtrInvokeLocal)
	return k.runFrame(a, obj, entry, args, inHandler)
}

// invokeDSM runs the entry at the caller's node; the object's persistent
// pages are faulted over by the DSM layer as the entry touches them (§2:
// invocation over distributed shared memory).
func (k *Kernel) invokeDSM(a *activation, oid ids.ObjectID, entry string, args []any, inHandler bool) ([]any, error) {
	obj, err := k.sys.LookupObject(oid)
	if err != nil {
		return nil, err
	}
	k.sys.reg.Inc(metrics.CtrInvokeDSM)
	return k.runFrame(a, obj, entry, args, inHandler)
}

// runFrame executes one entry on the activation with a frame pushed.
func (k *Kernel) runFrame(a *activation, obj *object.Object, entry string, args []any, inHandler bool) ([]any, error) {
	if obj.Deleted() {
		return nil, fmt.Errorf("%w: %v", object.ErrDeleted, obj.ID())
	}
	e, ok := obj.Entry(entry)
	if !ok {
		return nil, fmt.Errorf("%w: %v.%s", object.ErrUnknownEntry, obj.ID(), entry)
	}
	a.mu.Lock()
	a.frames = append(a.frames, frame{obj: obj, entry: entry})
	a.mu.Unlock()

	ctx := a.ctx()
	if inHandler {
		ctx = a.handlerCtx()
	}
	res, appErr := e(ctx, args)

	a.mu.Lock()
	a.frames = a.frames[:len(a.frames)-1]
	a.mu.Unlock()

	// Invocation return is an interruption point.
	if !inHandler {
		k.processPending(a, false)
	}
	if err := a.stopped(); err != nil {
		return nil, err
	}
	return res, appErr
}

// invokeRemote ships the invocation to the object's home node: the same
// logical thread continues there as a new activation, and this activation
// blocks with a forwarding pointer in the TCB (§7.1).
func (k *Kernel) invokeRemote(a *activation, oid ids.ObjectID, entry string, args []any, home ids.NodeID, inHandler bool) ([]any, error) {
	k.sys.reg.Inc(metrics.CtrInvokeRemote)
	k.sys.reg.Inc(metrics.CtrThreadHop)
	k.sys.tr.Add(trace.Record{
		Kind: trace.KindHop, Node: k.node, Thread: a.tid,
		Target: home.String(), Detail: oid.String() + "." + entry,
	})

	a.mu.Lock()
	snapshot := a.attrs.Clone()
	depth := a.baseDepth + len(a.frames)
	a.childNode = home
	a.childObj = oid
	a.status = thread.StatusBlocked
	a.blockedOn = "invoke:" + oid.String()
	a.mu.Unlock()

	a.stopTimers()
	if !a.system {
		k.tcbs.Depart(a.tid, home)
		if k.sys.cfg.trackMulticast {
			// The tracking group follows the thread's current node (§7.1's
			// "sophisticated thread-management system").
			k.sys.fabric.LeaveGroup(locate.GroupName(a.tid), k.node)
		}
	}

	full, delta := k.sendAttrs(a, home, snapshot)
	body, callErr := k.call(home, kindInvoke, invokeReq{
		TID: a.tid, Attrs: full, Delta: delta, Obj: oid, Entry: entry, Args: args, Depth: depth,
	})
	if delta != nil && errors.Is(callErr, errAttrResync) {
		// The callee evicted (or lost, on restart) our base snapshot. One
		// full-snapshot retry is idempotent: a callee rejects an
		// unresolvable delta before any part of the invocation executes.
		snapshot.Version = k.stampVersion()
		k.sys.reg.Inc(metrics.CtrAttrFullSent)
		body, callErr = k.call(home, kindInvoke, invokeReq{
			TID: a.tid, Attrs: snapshot, Obj: oid, Entry: entry, Args: args, Depth: depth,
		})
	}

	if !a.system {
		k.tcbs.Return(a.tid, a.baseDepth)
		if k.sys.cfg.trackMulticast {
			k.sys.fabric.JoinGroup(locate.GroupName(a.tid), k.node)
		}
		// The thread's deepest activation is current here again; tell its
		// residency directory (departures are not published — the callee's
		// own arrival supersedes, and a conditional remove cannot beat it).
		k.dirPublish(a.tid, false)
	}
	a.mu.Lock()
	a.childNode = ids.NoNode
	a.childObj = ids.NoObject
	a.status = thread.StatusRunning
	a.blockedOn = ""
	a.mu.Unlock()
	a.startTimers()

	if callErr != nil {
		// Termination or abort of the deeper activation kills this one
		// too: the unwind travels up the invocation chain.
		if errors.Is(callErr, ErrTerminated) {
			a.stop(ErrTerminated)
		} else if errors.Is(callErr, ErrAborted) {
			a.stop(ErrAborted)
		}
		if err := a.stopped(); err != nil {
			return nil, err
		}
		return nil, callErr
	}
	rep, ok := body.(invokeReply)
	if !ok {
		return nil, fmt.Errorf("core: invoke reply %T", body)
	}
	// Fold the callee's attribute changes back into the thread (§4.1:
	// handlers attached downstream remain active for the thread). A delta
	// reply resolves against the snapshot we just sent.
	final := rep.Attrs
	if rep.Delta != nil {
		final = rep.Delta.Apply(snapshot)
	}
	a.mu.Lock()
	a.attrs.MergeFrom(final)
	a.mu.Unlock()
	if !k.sys.cfg.Wire.FullAttrs {
		// final is immutable from here on (MergeFrom deep-copied it), so it
		// can serve as the diff base for the next hop to this peer.
		a.retainRemoteBase(home, final)
	}

	if !inHandler {
		k.processPending(a, false)
	}
	if err := a.stopped(); err != nil {
		return nil, err
	}
	return rep.Results, rep.AppErr
}

// serveInvoke hosts the remote leg of an invocation: a new activation of
// the travelling thread at this node.
func (k *Kernel) serveInvoke(req invokeReq) (any, error) {
	// Resolve the arriving attribute encoding before anything executes: a
	// delta whose base snapshot is not cached here is rejected up front, so
	// the caller's single full-snapshot retry is idempotent.
	arrived := req.Attrs
	if req.Delta != nil {
		base := k.attrCache.Get(attrKey(req.TID, req.Delta.Base))
		if base == nil {
			k.sys.reg.Inc(metrics.CtrAttrResync)
			return nil, errAttrResync
		}
		arrived = req.Delta.Apply(base)
	}
	attrs := arrived
	deltaMode := !k.sys.cfg.Wire.FullAttrs
	if deltaMode {
		// Retain the pristine arrival as an immutable snapshot — it is the
		// diff base for the reply and for the caller's next hop here — and
		// hand the activation a private copy to mutate.
		k.attrCache.Put(attrKey(req.TID, arrived.Version), arrived)
		attrs = arrived.Clone()
	}
	a := newActivation(k, attrs, req.Depth)
	k.pushAct(a)
	a.startTimers()

	obj, err := k.store.Lookup(req.Obj)
	var (
		res    []any
		appErr error
	)
	if err != nil {
		appErr = err
	} else {
		res, appErr = k.runFrame(a, obj, req.Entry, req.Args, false)
	}

	stopErr := a.stopped()
	if stopErr == nil {
		// Normal return: the logical thread continues at the caller's
		// node. Events that raced into this activation's queue are
		// rerouted there, not death-noticed — the thread is not dead.
		pending := a.depart()
		k.popAct(a)
		k.reroutePending(a.tid, pending)
	} else {
		// Terminated or aborted: the thread really is unwinding; pending
		// events get the §7.2 death-notice treatment. Its snapshots will
		// never be diff bases again, so stop squatting on cache slots.
		a.finish()
		k.popAct(a)
		k.attrCache.DropThread(a.tid)
	}

	if stopErr != nil {
		return nil, stopErr
	}
	if appErr != nil && (errors.Is(appErr, ErrTerminated) || errors.Is(appErr, ErrAborted)) {
		return nil, appErr
	}
	if !deltaMode {
		k.sys.reg.Inc(metrics.CtrAttrFullSent)
		return invokeReply{Results: res, Attrs: a.attrs, AppErr: appErr}, nil
	}
	// Reply with a delta against the arrival — the caller necessarily holds
	// that base, so a reply never needs a resync. A changed final snapshot
	// gets a fresh stamp and is cached for the caller's next hop here.
	d := thread.DiffAttrs(arrived, a.attrs)
	if !d.Unchanged() {
		d.Version = k.stampVersion()
		final := a.attrs.Clone()
		final.Version = d.Version
		k.attrCache.Put(attrKey(req.TID, d.Version), final)
	}
	k.sys.reg.Inc(metrics.CtrAttrDeltaSent)
	return invokeReply{Results: res, Delta: d, AppErr: appErr}, nil
}

// invokeAsync spawns a fresh thread, rooted at this node, that invokes the
// entry and runs to completion unclaimed (§7.1's asynchronous invocations).
// The child inherits the parent's attributes (§6.3).
func (k *Kernel) invokeAsync(a *activation, oid ids.ObjectID, entry string, args []any) (ids.ThreadID, error) {
	tid := k.gen.NextThread()
	a.mu.Lock()
	attrs := a.attrs.InheritFor(tid)
	group := attrs.Group
	a.mu.Unlock()
	// The child joins the parent's thread group so group-addressed events
	// (e.g. the QUIT of §6.3) reach it.
	if group.IsValid() {
		if err := k.groupJoin(group, tid, false); err != nil {
			return ids.NoThread, fmt.Errorf("join inherited group: %w", err)
		}
	}
	if _, err := k.startThread(attrs, oid, entry, args); err != nil {
		return ids.NoThread, err
	}
	return tid, nil
}

// groupJoin adds or removes a thread in a group's membership list at its
// directory node.
func (k *Kernel) groupJoin(gid ids.GroupID, tid ids.ThreadID, leave bool) error {
	if gid.Directory() == k.node {
		if leave {
			return k.groups.Leave(gid, tid)
		}
		return k.groups.Join(gid, tid)
	}
	_, err := k.call(gid.Directory(), kindGroupJoin, groupJoinReq{Group: gid, Thread: tid, Leave: leave})
	return err
}

// groupMembers fetches a group's membership from its directory node.
func (k *Kernel) groupMembers(gid ids.GroupID) ([]ids.ThreadID, error) {
	if gid.Directory() == k.node {
		return k.groups.Members(gid)
	}
	body, err := k.call(gid.Directory(), kindGroupMembers, gid)
	if err != nil {
		return nil, err
	}
	members, ok := body.([]ids.ThreadID)
	if !ok {
		return nil, fmt.Errorf("core: group.members reply %T", body)
	}
	return members, nil
}
