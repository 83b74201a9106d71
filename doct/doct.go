// Package doct is the public API of the DO/CT event-handling library: a
// simulated Distributed-Object/Concurrent-Thread programming environment
// with the asynchronous event facility of Menon, Dasgupta & LeBlanc,
// "Asynchronous Event Handling in Distributed Object-Based Systems"
// (ICDCS 1993).
//
// A System is a cluster of simulated nodes hosting passive persistent
// objects. Logical threads enter objects by invocation and may cross node
// boundaries; their attributes (handler chains, timers, I/O channel,
// per-thread memory) travel with them. Events are raised at threads,
// thread groups or objects, synchronously or asynchronously, and handled
// by LIFO-chained thread-based handlers (attachment entries, buddy
// handlers, or per-thread-memory procedures run in the current object's
// context) or by object-based handlers served by a master handler thread.
//
// Quick start:
//
//	sys, _ := doct.NewSystem(doct.Config{Nodes: 4})
//	defer sys.Close()
//	counter, _ := sys.CreateObject(2, doct.ObjectSpec{
//	    Name: "counter",
//	    Entries: map[string]doct.Entry{
//	        "incr": func(ctx doct.Ctx, args []any) ([]any, error) { ... },
//	    },
//	})
//	h, _ := sys.Spawn(1, counter, "incr")
//	res, err := h.Wait()
//
// See examples/ for complete programs and EXPERIMENTS.md for the
// reproduction of the paper's design claims.
package doct

import (
	"time"

	"repro/internal/core"
	"repro/internal/ctrlc"
	"repro/internal/debug"
	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/locate"
	"repro/internal/locks"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/object"
	"repro/internal/pager"
	"repro/internal/thread"
	"repro/internal/trace"
)

// Re-exported identifier types.
type (
	// NodeID names a simulated node (1..Nodes).
	NodeID = ids.NodeID
	// ThreadID names a distributed logical thread.
	ThreadID = ids.ThreadID
	// ObjectID names a passive persistent object.
	ObjectID = ids.ObjectID
	// GroupID names a thread group.
	GroupID = ids.GroupID
	// SegmentID names a DSM segment.
	SegmentID = ids.SegmentID
)

// Re-exported event model.
type (
	// EventName identifies an event (system or registered user event).
	EventName = event.Name
	// EventBlock is passed to every handler (§4.1).
	EventBlock = event.Block
	// HandlerRef describes one thread-based handler attachment.
	HandlerRef = event.HandlerRef
	// Verdict is a handler's decision about the suspended thread.
	Verdict = event.Verdict
	// Target routes a raise to a thread, group or object.
	Target = event.Target
	// ThreadState is the suspended thread snapshot in an event block.
	ThreadState = event.ThreadState
)

// System events (§3).
const (
	EvTerminate = event.Terminate
	EvAbort     = event.Abort
	EvQuit      = event.Quit
	EvDelete    = event.Delete
	EvInterrupt = event.Interrupt
	EvTimer     = event.Timer
	EvVMFault   = event.VMFault
	EvPageFault = event.PageFault
	EvDivZero   = event.DivZero
	EvAlarm     = event.Alarm
)

// Handler verdicts (§3, §4.2).
const (
	Resume    = event.VerdictResume
	Terminate = event.VerdictTerminate
	Propagate = event.VerdictPropagate
)

// Handler placements (§4.1).
const (
	// HandlerEntry runs an entry of the attaching object.
	HandlerEntry = event.KindEntry
	// HandlerBuddy runs an entry of a designated other object.
	HandlerBuddy = event.KindBuddy
	// HandlerProc runs per-thread-memory code in the current object's
	// context (OWN_CONTEXT).
	HandlerProc = event.KindProc
)

// Routing constructors (§5.3's addressing matrix).
var (
	// ToThread addresses one thread.
	ToThread = event.ToThread
	// ToGroup addresses every member of a thread group.
	ToGroup = event.ToGroup
	// ToObject addresses a (possibly passive) object.
	ToObject = event.ToObject
)

// Execution-facing types.
type (
	// Ctx is the kernel interface entries and handlers run against.
	Ctx = object.Ctx
	// Entry is an invocable object entry point.
	Entry = object.Entry
	// Handler is object-based or named handler-method code.
	Handler = object.Handler
	// ObjectSpec declares an object's entries, handlers and policy.
	ObjectSpec = object.Spec
	// HandlerPolicy selects master-thread vs spawn-per-event (§4.3).
	HandlerPolicy = object.HandlerPolicy
	// TimerSpec is a periodic timer registration in thread attributes.
	TimerSpec = thread.TimerSpec
	// Attributes is the thread context that travels with a thread.
	Attributes = thread.Attributes
	// Handle tracks a spawned thread.
	Handle = core.Handle
	// ProcFunc is registered per-thread handler code.
	ProcFunc = core.ProcFunc
	// InvokeMode selects RPC-style or DSM-style invocation.
	InvokeMode = core.InvokeMode
	// Snapshot is a point-in-time copy of the system counters.
	Snapshot = metrics.Snapshot
)

// Object handler policies (§4.3).
const (
	MasterThread  = object.MasterThread
	SpawnPerEvent = object.SpawnPerEvent
)

// Invocation modes (§2).
const (
	ModeRPC = core.ModeRPC
	ModeDSM = core.ModeDSM
)

// Kernel errors.
var (
	// ErrTerminated is returned after a handler terminated the thread.
	ErrTerminated = core.ErrTerminated
	// ErrAborted is returned after the invocation in progress was aborted.
	ErrAborted = core.ErrAborted
	// ErrThreadNotFound means the target thread could not be located.
	ErrThreadNotFound = core.ErrThreadNotFound
	// ErrUnhandledSync means no handler consumed a synchronous raise.
	ErrUnhandledSync = core.ErrUnhandledSync
	// ErrShutdown is returned for operations on a closed system.
	ErrShutdown = core.ErrShutdown
)

// LocateStrategy names a thread-location strategy (§7.1).
type LocateStrategy string

// Available strategies.
const (
	// LocateBroadcast probes every node.
	LocateBroadcast LocateStrategy = "broadcast"
	// LocatePathFollow chases TCB forwarding pointers from the root node.
	LocatePathFollow LocateStrategy = "path-follow"
	// LocateMulticast uses per-thread tracking multicast groups.
	LocateMulticast LocateStrategy = "multicast"
)

// Config parameterizes a System.
type Config struct {
	// Nodes is the cluster size (>= 1).
	Nodes int
	// Latency and Jitter simulate the interconnect (zero = immediate).
	Latency time.Duration
	Jitter  time.Duration
	// PageSize is the DSM page granularity (0 = 1024).
	PageSize int
	// Mode selects RPC-style (default) or DSM-style invocation.
	Mode InvokeMode
	// Locate selects the thread-location strategy (default path-follow).
	Locate LocateStrategy
	// CallTimeout bounds kernel RPCs (0 = 30s).
	CallTimeout time.Duration
	// RaiseTimeout bounds RaiseAndWait (0 = CallTimeout): a synchronous
	// raise across a severed link or into a crashed node returns
	// ErrRaiseTimeout instead of hanging.
	RaiseTimeout time.Duration
	// FaultTolerance enables the crash-fault-tolerance subsystem: a
	// heartbeat failure detector per node, ack/retry reliable event
	// delivery, and automatic crash recovery (lock reclaim, cache
	// invalidation, NODE_DOWN events). Fault injection works without it;
	// detection and recovery need it.
	FaultTolerance bool
	// HeartbeatPeriod and SuspectAfter tune the failure detector (zero =
	// 15ms period, 5 missed periods).
	HeartbeatPeriod time.Duration
	SuspectAfter    time.Duration
	// DropRate is the probability in [0,1) that any message is lost in
	// the interconnect (chaos testing; adjustable later via SetDropRate).
	DropRate float64
	// TraceCapacity retains the last N kernel trace records (raises,
	// deliveries, handler runs, hops); zero disables tracing.
	TraceCapacity int
	// Seed seeds fabric randomness.
	Seed int64
}

// System is a booted DO/CT cluster with the standard services (lock
// cleanup, monitoring, termination protocol) registered.
type System struct {
	core *core.System
}

// NewSystem boots a cluster and registers the library's standard handler
// code (locks cleanup, monitor sampling, ^C protocol).
func NewSystem(cfg Config) (*System, error) {
	var strat locate.Strategy
	switch cfg.Locate {
	case LocateBroadcast:
		strat = locate.Broadcast{}
	case LocateMulticast:
		strat = locate.Multicast{}
	case LocatePathFollow, "":
		strat = locate.PathFollow{}
	default:
		s, err := locate.ByName(string(cfg.Locate))
		if err != nil {
			return nil, err
		}
		strat = s
	}
	cs, err := core.NewSystem(core.Config{
		Nodes:        cfg.Nodes,
		Latency:      cfg.Latency,
		Jitter:       cfg.Jitter,
		PageSize:     cfg.PageSize,
		Mode:         cfg.Mode,
		Locator:      strat,
		CallTimeout:  cfg.CallTimeout,
		RaiseTimeout: cfg.RaiseTimeout,
		FT: core.FTConfig{
			Enabled:         cfg.FaultTolerance,
			HeartbeatPeriod: cfg.HeartbeatPeriod,
			SuspectAfter:    cfg.SuspectAfter,
		},
		TraceCapacity: cfg.TraceCapacity,
		Seed:          cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	if cfg.DropRate > 0 {
		cs.SetDropRate(cfg.DropRate)
	}
	s := &System{core: cs}
	if err := locks.Register(cs); err != nil {
		cs.Close()
		return nil, err
	}
	if err := monitor.Register(cs); err != nil {
		cs.Close()
		return nil, err
	}
	if err := ctrlc.Register(cs); err != nil {
		cs.Close()
		return nil, err
	}
	return s, nil
}

// Close shuts the cluster down.
func (s *System) Close() { s.core.Close() }

// Core exposes the underlying kernel system for advanced use (experiment
// harnesses, kernels, TCBs).
func (s *System) Core() *core.System { return s.core }

// Nodes returns the cluster's node identifiers.
func (s *System) Nodes() []NodeID { return s.core.Nodes() }

// Metrics returns a snapshot of the system counters.
func (s *System) Metrics() Snapshot { return s.core.Metrics().Snapshot() }

// Trace is the kernel trace buffer (nil unless Config.TraceCapacity > 0;
// its methods are nil-safe).
type Trace = trace.Buffer

// TraceRecord is one kernel trace entry.
type TraceRecord = trace.Record

// Trace returns the kernel trace buffer.
func (s *System) Trace() *Trace { return s.core.Trace() }

// CreateObject creates a passive persistent object homed at node.
func (s *System) CreateObject(node NodeID, spec ObjectSpec) (ObjectID, error) {
	return s.core.CreateObject(node, spec)
}

// CreateSegment creates a standalone DSM segment homed at node. User-paged
// segments bypass kernel coherence and fault to VM_FAULT handlers (§6.4).
func (s *System) CreateSegment(node NodeID, size int, userPaged bool) (SegmentID, error) {
	k, err := s.core.Kernel(node)
	if err != nil {
		return ids.NoSegment, err
	}
	return k.CreateSegment(size, userPaged)
}

// ObjectImage is the passive representation of an object (its persistent
// segment plus volatile state), produced by Passivate and consumed by
// Activate.
type ObjectImage = core.ObjectImage

// Passivate captures an object's passive image and deactivates it (its
// DELETE handler runs first). Objects are persistent by nature (§2); the
// image can later be reactivated on any node.
func (s *System) Passivate(oid ObjectID) (ObjectImage, error) {
	return s.core.Passivate(oid)
}

// Activate reconstructs a passivated object at node from its image.
func (s *System) Activate(node NodeID, spec ObjectSpec, img ObjectImage) (ObjectID, error) {
	return s.core.Activate(node, spec, img)
}

// Spawn starts a root thread at node invoking entry on obj.
func (s *System) Spawn(node NodeID, obj ObjectID, entry string, args ...any) (*Handle, error) {
	return s.core.Spawn(node, obj, entry, args...)
}

// SpawnApp is Spawn with an application label (§3.1 sharability).
func (s *System) SpawnApp(node NodeID, app string, obj ObjectID, entry string, args ...any) (*Handle, error) {
	return s.core.SpawnApp(node, app, obj, entry, args...)
}

// Raise raises an event asynchronously from outside any thread (e.g. a ^C
// at the controlling terminal, §6.3). It originates at node. At an object on
// another node nil means handed to the reliable layer, not accepted there:
// only a refused send is returned, later failures are counted (core.err.dropped.*;
// net.msg.dropped alone with fault tolerance off). A local object's lookup fails here.
func (s *System) Raise(node NodeID, name EventName, target Target, user map[string]any) error {
	return s.core.Raise(node, name, target, user)
}

// RaiseAndWait raises synchronously and returns the handler's verdict.
func (s *System) RaiseAndWait(node NodeID, name EventName, target Target, user map[string]any) (Verdict, error) {
	return s.core.RaiseAndWait(node, name, target, user)
}

// RegisterProc installs position-independent handler code (§7.2).
func (s *System) RegisterProc(name string, f ProcFunc) error {
	return s.core.RegisterProc(name, f)
}

// HandleOf returns the handle of any spawned thread.
func (s *System) HandleOf(tid ThreadID) *Handle { return s.core.HandleOf(tid) }

// Handles returns every spawned thread's handle.
func (s *System) Handles() []*Handle { return s.core.Handles() }

// IOChannel returns the lines written to a named thread I/O channel.
func (s *System) IOChannel(channel string) []string { return s.core.IOChannel(channel) }

// Standard services re-exported at the facade.

// LockServerSpec returns a distributed lock-server object (§4.2).
func LockServerSpec(label string) ObjectSpec { return locks.ServerSpec(label) }

// AcquireLock takes a named lock and chains its unlock routine onto the
// thread's TERMINATE handler (§4.2).
func AcquireLock(ctx Ctx, server ObjectID, name string) error {
	return locks.Acquire(ctx, server, name)
}

// ReleaseLock frees a named lock.
func ReleaseLock(ctx Ctx, server ObjectID, name string) error {
	return locks.Release(ctx, server, name)
}

// LockHolder reports the holder of a named lock.
func LockHolder(ctx Ctx, server ObjectID, name string) (ThreadID, error) {
	return locks.Holder(ctx, server, name)
}

// MonitorServerSpec returns a central monitoring server object (§6.2).
func MonitorServerSpec(label string) ObjectSpec { return monitor.ServerSpec(label) }

// AttachMonitor starts liveliness monitoring of the calling thread (§6.2).
func AttachMonitor(ctx Ctx, server ObjectID, period time.Duration) error {
	return monitor.Attach(ctx, server, period)
}

// DetachMonitor stops monitoring the calling thread.
func DetachMonitor(ctx Ctx) error { return monitor.Detach(ctx) }

// MonitorSample is one liveliness observation.
type MonitorSample = monitor.Sample

// MonitorSamples queries the server for a thread's samples.
func MonitorSamples(ctx Ctx, server ObjectID, tid ThreadID) ([]MonitorSample, error) {
	return monitor.SamplesOf(ctx, server, tid)
}

// PagerServerSpec returns a user-level virtual memory manager object
// (§6.4) with the given page size and merge policy (nil = byte-wise max).
func PagerServerSpec(label string, pageSize int, merge pager.MergeFunc) ObjectSpec {
	return pager.ServerSpec(label, pageSize, merge)
}

// AttachPager directs the calling thread's VM_FAULT events at a pager
// server (a buddy handler, §6.4).
func AttachPager(ctx Ctx, server ObjectID) error { return pager.AttachPager(ctx, server) }

// DebuggerServerSpec returns a central debugger object (§4.1's
// buddy-handler debugger): debugged threads stop at breakpoints, the
// server inspects their internals and decides resume or terminate.
func DebuggerServerSpec(label string) ObjectSpec { return debug.ServerSpec(label) }

// AttachDebugger puts the calling thread (and everything it spawns) under
// the debugger.
func AttachDebugger(ctx Ctx, server ObjectID) error { return debug.Attach(ctx, server) }

// Break stops the calling thread at a labeled breakpoint until the
// debugger resumes (or terminates) it.
func Break(ctx Ctx, label string) error { return debug.Break(ctx, label) }

// DebugStop is one recorded breakpoint hit.
type DebugStop = debug.Stop

// DebugStops queries the debugger for a thread's recorded stops.
func DebugStops(ctx Ctx, server ObjectID, tid ThreadID) ([]DebugStop, error) {
	return debug.StopsOf(ctx, server, tid)
}

// ArmTermination wires the distributed ^C protocol (§6.3) for the calling
// root thread and returns the application's thread group.
func ArmTermination(ctx Ctx, rootObj ObjectID) (GroupID, error) {
	return ctrlc.Arm(ctx, rootObj)
}

// AbortCleanupHandler builds the object-based ABORT handler the protocol
// expects every application object to register.
func AbortCleanupHandler(fn func(ctx Ctx, tid ThreadID)) Handler {
	return ctrlc.CleanupHandler(fn)
}
