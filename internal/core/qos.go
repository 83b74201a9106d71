package core

// QoS event classification (DESIGN.md §15). Every event block is stamped
// with a dispatch class at raise time, and every kernel protocol message
// derives its class from its payload just before it hits the transport.
// The taxonomy:
//
//   - ClassSystem (255): kernel-originated traffic — RPC responses,
//     locate probes, heartbeats, gossip, directory/KV/page/group
//     plumbing, and events raised by the kernel itself (no raiser
//     thread). Never queued behind tenant work, never shed.
//   - ClassControl (254): termination and abort control — TERMINATE,
//     ABORT, QUIT, THREAD_DEATH blocks, releases and abort-chain RPCs. A
//     flooded tenant must still be killable. Never shed.
//   - Tenant classes (1..253) + ClassDefault (0): application raises,
//     mapped from the raising thread's App attribute via QoS.Apps and
//     scheduled by weighted DWRR with bounded admission.
//
// The class is stamped once (newBlock or the control-block construction
// sites) and then travels: it survives clone-per-member group fan-out,
// fan-out relay hops, reliable-layer retransmits and the wire codec, so
// a remote node's admission decision sees the class the raiser earned,
// not whatever the last hop was.

import (
	"repro/internal/event"
	"repro/internal/transport"
)

// Numeric stamps for event.Block.Class: the event package stays
// dependency-free, so Block.Class is a raw uint8 holding a
// transport.Class value.
const (
	classSystemU8  = uint8(transport.ClassSystem)
	classControlU8 = uint8(transport.ClassControl)
)

// classOf computes the dispatch class of a freshly raised event.
// Termination control outranks everything a tenant can say; kernel raises
// (no raiser thread: timers, VM faults, failure-detector events) ride
// ClassSystem; everything else maps the raiser's App attribute through
// Config.QoS.Apps, defaulting to ClassDefault.
func (k *Kernel) classOf(raiser *activation, name event.Name) transport.Class {
	switch name {
	case event.Terminate, event.Abort, event.Quit, event.ThreadDeath:
		return transport.ClassControl
	}
	if raiser == nil {
		return transport.ClassSystem
	}
	raiser.mu.Lock()
	app := raiser.attrs.App
	raiser.mu.Unlock()
	if c, ok := k.sys.cfg.QoS.Apps[app]; ok {
		return c
	}
	return transport.ClassDefault
}

// classOfBlock recovers a block's dispatch class for transport admission.
// Blocks are stamped at construction; the name switch is a safety net
// that keeps control events unsheddable even if a future construction
// site forgets to stamp.
func classOfBlock(eb *event.Block) transport.Class {
	if eb == nil {
		return transport.ClassSystem
	}
	if eb.Class != 0 {
		return transport.Class(eb.Class)
	}
	switch eb.Name {
	case event.Terminate, event.Abort, event.Quit, event.ThreadDeath:
		return transport.ClassControl
	}
	return transport.ClassDefault
}

// msgClass derives the transport class of one outgoing kernel message.
// Only event-bearing requests inherit a tenant class; every other kind —
// RPC responses, invokes, probes, directory/KV/page/group traffic,
// heartbeats, gossip — is self-clocking request/response plumbing and
// rides ClassSystem so the kernel can always make progress.
func msgClass(kind string, payload any) transport.Class {
	switch kind {
	case msgRPCReq:
		if req, ok := payload.(rpcRequest); ok {
			return rpcClass(req.Kind, req.Body)
		}
	case kindFanout:
		if req, ok := payload.(*fanoutReq); ok {
			return classOfBlock(req.EB)
		}
	case kindEvRelease:
		// A release unblocks a synchronous raiser: control, never
		// tenant-shed.
		return transport.ClassControl
	case kindEvObject:
		// An asynchronous raise, one-way: a tenant event like its request form.
		return rpcClass(kind, payload)
	}
	return transport.ClassSystem
}

// rpcClass classifies the inner kind of an rpcRequest.
func rpcClass(kind string, body any) transport.Class {
	switch kind {
	case kindEvThread:
		if eb, ok := body.(*event.Block); ok {
			return classOfBlock(eb)
		}
	case kindEvObject:
		if req, ok := body.(objectEventReq); ok {
			return classOfBlock(req.EB)
		}
	case kindHandlerRun:
		if req, ok := body.(handlerRunReq); ok {
			return classOfBlock(req.EB)
		}
	case kindAbortChain:
		// Abort chains tear threads down: control, never tenant-shed.
		return transport.ClassControl
	}
	return transport.ClassSystem
}
