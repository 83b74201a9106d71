// Package core is the DO/CT kernel — the paper's primary contribution. It
// glues the substrates together into a running distributed environment:
//
//   - a System boots one Kernel per simulated node on a netsim fabric;
//   - the invocation engine moves logical threads across objects and nodes
//     (RPC mode) or moves object pages to the computation (DSM mode), with
//     thread attributes travelling on every hop (§2, §3.1);
//   - the event engine implements raise/raise_and_wait with the full §5.3
//     addressing matrix, thread-based handler chains walked LIFO with
//     propagation (§4.1–4.2), object-based handlers with master-thread or
//     spawn-per-event policies (§4.3, §7), buddy handlers, per-thread-memory
//     procedure handlers run in the current object's context, surrogate
//     threads for blocked targets, default actions, and the distributed
//     termination (ABORT/QUIT) protocol of §6.3;
//   - thread location is pluggable through internal/locate (§7.1).
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dsm"
	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/locate"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// Kernel-level errors surfaced to entries and callers.
var (
	// ErrTerminated is returned by kernel operations after the executing
	// thread has been terminated by an event handler or default action.
	ErrTerminated = errors.New("core: thread terminated")
	// ErrAborted is returned by kernel operations after the invocation in
	// progress was aborted (object ABORT, §6.3).
	ErrAborted = errors.New("core: invocation aborted")
	// ErrThreadNotFound means the event's target thread could not be
	// located (it finished or never existed).
	ErrThreadNotFound = errors.New("core: target thread not found")
	// ErrUnhandledSync is returned by RaiseAndWait when no handler
	// consumed the event and the default action applied instead.
	ErrUnhandledSync = errors.New("core: synchronous event not consumed by any handler")
	// ErrUnknownProc means a per-thread handler referenced a code name
	// missing from the handler-code registry.
	ErrUnknownProc = errors.New("core: unknown handler code name")
	// ErrNotRegistered is returned when raising an event name that was
	// never registered with the operating system.
	ErrNotRegistered = errors.New("core: event name not registered")
	// ErrShutdown is returned for operations on a closed System.
	ErrShutdown = errors.New("core: system shut down")
	// ErrRaiseTimeout is returned by RaiseAndWait when no release arrived
	// within the configured raise timeout — the raiser is unblocked instead
	// of hanging forever on a severed link or a crashed recipient.
	ErrRaiseTimeout = errors.New("core: raise_and_wait timed out")
	// ErrNodeDown is wrapped into errors for operations aimed at a node the
	// failure detector suspects is crashed (or whose messages proved
	// undeliverable).
	ErrNodeDown = errors.New("core: node down")
	// ErrNodeCrashed is the stop reason of activations killed by a local
	// node crash, and the error for operations on a crashed kernel.
	ErrNodeCrashed = errors.New("core: node crashed")
	// ErrBackpressure is transport.ErrBackpressure re-exported: with QoS
	// enabled (Config.QoS) and no reliable layer, Raise/RaiseAndWait
	// return it when admission control rejects the event at the target
	// node's dispatch shard. Callers back off and retry; with FT enabled
	// the reliable layer retries transparently instead.
	ErrBackpressure = transport.ErrBackpressure
)

// QoSConfig re-exports the transport QoS knobs (class weights, admission
// depth, DWRR quantum, app→class mapping) under the kernel's config.
type QoSConfig = transport.QoSConfig

// InvokeMode selects how invocations cross object boundaries (§2's design
// goal: the event mechanism "works identically regardless of whether the
// objects are invoked using RPC or DSM").
type InvokeMode int

const (
	// ModeRPC ships the computation: a new activation of the same logical
	// thread starts at the object's home node.
	ModeRPC InvokeMode = iota + 1
	// ModeDSM ships the data: the entry runs at the calling thread's node
	// and the object's pages are faulted over by the DSM layer.
	ModeDSM
)

// String returns the mode name.
func (m InvokeMode) String() string {
	switch m {
	case ModeRPC:
		return "rpc"
	case ModeDSM:
		return "dsm"
	default:
		return fmt.Sprintf("InvokeMode(%d)", int(m))
	}
}

// ProcFunc is position-independent per-thread handler code: the simulation
// of compiled procedures mapped into per-thread memory at a well-known
// address (§7.2). Procs are registered system-wide by name; HandlerRefs in
// thread attributes carry the name.
type ProcFunc = object.Handler

// Config parameterizes a System.
type Config struct {
	// Nodes is the cluster size (>= 1).
	Nodes int
	// Latency and Jitter configure the fabric (zero = immediate handoff).
	Latency time.Duration
	Jitter  time.Duration
	// PageSize is the DSM page granularity (0 = dsm.DefaultPageSize).
	PageSize int
	// Mode selects the invocation mode (0 = ModeRPC).
	Mode InvokeMode
	// Locator selects the thread-location strategy (nil = PathFollow).
	Locator locate.Strategy
	// FanoutK is the arity of the spanning-tree fan-out used for every
	// group raise with a member rooted on another node
	// (deliver.go/fanout.go): the raiser ships one relay message per child
	// of a tree laid over the members' root nodes instead of locating and
	// posting to each member, and relays re-batch down their subtrees. Zero
	// picks DefaultFanoutK; negative disables the tree and every group
	// raise posts member by member (the reference path E16 measures
	// against).
	FanoutK int
	// CallTimeout bounds every kernel RPC (0 = 30s). It exists so broken
	// protocols fail tests instead of hanging them.
	CallTimeout time.Duration
	// RaiseTimeout bounds how long raise_and_wait blocks for its releases
	// (0 = CallTimeout). When it expires the raiser gets ErrRaiseTimeout —
	// a raise across a severed link or into a crashed node is bounded even
	// without the failure-detector subsystem.
	RaiseTimeout time.Duration
	// FT configures the crash-fault-tolerance subsystem (failure detector,
	// reliable transport, recovery reactions). The zero value disables it;
	// fault injection (CrashNode, SeverLink) still works without it, the
	// system just doesn't detect or recover.
	FT FTConfig
	// Durability configures per-node WAL + snapshot recovery (durable.go,
	// DESIGN.md §14). The zero value disables it: object state, attribute
	// versions and dedup windows stay volatile, exactly as before.
	Durability DurabilityConfig
	// QoS configures multi-tenant dispatch isolation (DESIGN.md §15):
	// per-class DWRR weighted fair queueing, bounded admission and
	// overload shedding at every node's dispatch shards. The zero value
	// disables it — FIFO dispatch, exactly as before. Event blocks are
	// stamped with a class at raise time (QoS.Apps maps the raising
	// thread's App attribute to a tenant class; kernel-originated events
	// and protocol RPCs ride ClassSystem, termination/abort control rides
	// ClassControl) and the class travels with every hop, retransmit and
	// fan-out relay. Forced off under a *vclock.Virtual clock unless
	// QoS.AllowVirtual is set, so simulation digests are unaffected.
	QoS QoSConfig
	// Wire configures the wire-efficiency fast path (delta attribute
	// propagation, per-link send coalescing). The zero value enables every
	// optimization; the negative flags select the paper's literal
	// full-shipping protocol as the measured reference (E11, E13).
	Wire WireConfig
	// TraceCapacity retains the last N kernel trace records (raises,
	// deliveries, handler runs, hops); zero disables tracing.
	TraceCapacity int
	// Metrics receives all accounting. Nil creates a private registry.
	Metrics *metrics.Registry
	// Seed seeds fabric randomness.
	Seed int64
	// DispatchWorkers is the per-node dispatch parallelism handed to the
	// fabric (netsim.Config.DispatchWorkers): messages from different
	// senders are handled concurrently while per-sender FIFO order is kept.
	// Zero picks GOMAXPROCS for real-clock runs; under a *vclock.Virtual
	// clock the fabric always runs one dispatcher per node so deterministic
	// simulation digests are unaffected. Negative forces a single
	// dispatcher.
	DispatchWorkers int
	// Clock is the time source for every kernel timer — call timeouts,
	// raise timeouts, attribute timers, alarms, sleeps — and is handed down
	// to the fabric, the failure detector and the reliable transport
	// (nil = the machine clock). Passing a *vclock.Virtual runs the whole
	// cluster in virtual time for deterministic simulation (internal/sim).
	Clock vclock.Clock
	// Transport supplies the cluster interconnect. Nil (the default) boots
	// an in-process netsim fabric from the latency/jitter/batching fields
	// above — the classic single-process simulation. A non-nil Transport
	// (e.g. tcptransport for a multi-process cluster) is used as-is: the
	// System attaches its local kernels, starts it, and closes it on
	// Close; the latency/seed/batch knobs above do not apply.
	Transport transport.Transport
	// LocalNodes restricts which of the cluster's Nodes this System hosts
	// kernels for. Empty (the default) hosts all of them — the
	// single-process case. A multi-process cluster runs one System per
	// process, each hosting a disjoint subset (usually one node), all over
	// a shared Transport; operations addressed to non-local nodes return
	// errors, and cross-node protocol traffic flows through the transport
	// as always.
	LocalNodes []ids.NodeID

	// trackMulticast maintains a per-thread fabric multicast group as
	// threads move — group maintenance on every hop, paid only when the
	// Locator is (or wraps) the Multicast strategy, which probes those
	// groups. Derived in fillDefaults.
	trackMulticast bool
}

func (c *Config) fillDefaults() error {
	if c.Nodes < 1 {
		return fmt.Errorf("core: config needs at least 1 node, got %d", c.Nodes)
	}
	if c.Mode == 0 {
		c.Mode = ModeRPC
	}
	if c.Locator == nil {
		c.Locator = locate.PathFollow{}
	}
	c.trackMulticast = locate.UsesMulticast(c.Locator)
	if c.CallTimeout == 0 {
		c.CallTimeout = 30 * time.Second
	}
	if c.RaiseTimeout == 0 {
		c.RaiseTimeout = c.CallTimeout
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	if c.DispatchWorkers == 0 {
		c.DispatchWorkers = runtime.GOMAXPROCS(0)
	} else if c.DispatchWorkers < 0 {
		c.DispatchWorkers = 1
	}
	if c.Wire.FlushInterval <= 0 {
		// Resolved here, not in the fabric, because the reliable layer's
		// retry base is derived from it (fault.go) on any batching transport.
		c.Wire.FlushInterval = netsim.DefaultFlushInterval
	}
	if len(c.LocalNodes) == 0 {
		c.LocalNodes = make([]ids.NodeID, c.Nodes)
		for i := range c.LocalNodes {
			c.LocalNodes[i] = ids.NodeID(i + 1)
		}
	}
	for _, n := range c.LocalNodes {
		if int(n) < 1 || int(n) > c.Nodes {
			return fmt.Errorf("core: local node %v outside cluster 1..%d", n, c.Nodes)
		}
	}
	return nil
}

// System is a booted DO/CT cluster. Create with NewSystem, stop with Close.
type System struct {
	cfg    Config
	clk    vclock.Clock
	fabric transport.Transport
	reg    *metrics.Registry
	ctrs   hotCounters

	kernels map[ids.NodeID]*Kernel

	// events is the cluster-wide user-event name registry. The paper
	// registers names "with the operating system"; we model the registry
	// as logically replicated and charge no messages for lookups.
	events *event.Registry

	procMu sync.RWMutex
	procs  map[string]ProcFunc

	ioMu sync.Mutex
	io   map[string][]string // I/O channel name -> lines written

	handleMu sync.Mutex
	handles  map[ids.ThreadID]*Handle

	// tr is the kernel trace ring (nil when disabled; trace.Buffer's
	// methods are nil-safe).
	tr *trace.Buffer

	// Crash-fault-tolerance state (fault.go): the cluster-level dedup of
	// per-detector membership transitions and the membership watchers.
	ftMu     sync.Mutex
	ftDown   map[ids.NodeID]bool
	watchers []ids.ObjectID

	// dirStrategy is the hash placement strategy unwrapped from
	// cfg.Locator at boot, nil for every other locator. Kernels consult
	// it to route residency-directory publications (directory.go).
	dirStrategy *locate.Hashed

	closed    chan struct{}
	closeOnce sync.Once
}

// hotCounters are pre-resolved handles for the counters the event engine
// charges on every raise, delivery, and handler run — the per-event cost is
// an atomic add instead of a name→counter map lookup under a read lock.
type hotCounters struct {
	eventRaised    *atomic.Int64
	eventDelivered *atomic.Int64
	eventDefault   *atomic.Int64
	handlerThread  *atomic.Int64
	handlerObject  *atomic.Int64
	handlerBuddy   *atomic.Int64
	handlerOwnCtx  *atomic.Int64
	surrogateRuns  *atomic.Int64
	chainLinks     *atomic.Int64
	threadSpawn    *atomic.Int64
	threadCreated  *atomic.Int64
	masterServed   *atomic.Int64
}

func newHotCounters(r *metrics.Registry) hotCounters {
	return hotCounters{
		eventRaised:    r.Counter(metrics.CtrEventRaised),
		eventDelivered: r.Counter(metrics.CtrEventDelivered),
		eventDefault:   r.Counter(metrics.CtrEventDefault),
		handlerThread:  r.Counter(metrics.CtrHandlerRunThread),
		handlerObject:  r.Counter(metrics.CtrHandlerRunObject),
		handlerBuddy:   r.Counter(metrics.CtrHandlerRunBuddy),
		handlerOwnCtx:  r.Counter(metrics.CtrHandlerRunOwnCtx),
		surrogateRuns:  r.Counter(metrics.CtrSurrogateRuns),
		chainLinks:     r.Counter(metrics.CtrChainLinksWalked),
		threadSpawn:    r.Counter(metrics.CtrThreadSpawn),
		threadCreated:  r.Counter(metrics.CtrThreadCreated),
		masterServed:   r.Counter(metrics.CtrMasterServed),
	}
}

// NewSystem boots a cluster.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:     cfg,
		clk:     vclock.Or(cfg.Clock),
		reg:     cfg.Metrics,
		kernels: make(map[ids.NodeID]*Kernel, cfg.Nodes),
		events:  event.NewRegistry(),
		procs:   make(map[string]ProcFunc),
		io:      make(map[string][]string),
		handles: make(map[ids.ThreadID]*Handle),
		ftDown:  make(map[ids.NodeID]bool),
		closed:  make(chan struct{}),
	}
	if cfg.TraceCapacity > 0 {
		s.tr = trace.New(cfg.TraceCapacity)
	}
	s.dirStrategy, _ = locate.DirectoryStrategy(cfg.Locator)
	s.ctrs = newHotCounters(s.reg)
	if cfg.Transport != nil {
		s.fabric = cfg.Transport
	} else {
		s.fabric = netsim.New(netsim.Config{
			Latency:         cfg.Latency,
			Jitter:          cfg.Jitter,
			Seed:            cfg.Seed,
			Clock:           cfg.Clock,
			Metrics:         s.reg,
			DispatchWorkers: cfg.DispatchWorkers,
			QoS:             cfg.QoS,
			Batch: netsim.BatchConfig{
				Enabled:       !cfg.Wire.NoBatching,
				MaxMsgs:       cfg.Wire.BatchMaxMsgs,
				FlushInterval: cfg.Wire.FlushInterval,
			},
		})
	}
	for _, node := range cfg.LocalNodes {
		k := newKernel(s, node)
		s.kernels[node] = k
		if err := s.fabric.Attach(node, k.onMessage); err != nil {
			return nil, fmt.Errorf("boot %v: %w", node, err)
		}
	}
	if cfg.Durability.Enabled {
		// Replay before the fabric starts: recovery must complete before
		// any peer traffic — or a NODE_UP announcement — can observe the
		// node, so a recovered kernel is indistinguishable from one that
		// merely paused.
		for _, node := range cfg.LocalNodes {
			if err := s.kernels[node].openDurable(cfg.Durability); err != nil {
				return nil, err
			}
		}
	}
	if cfg.FT.Enabled {
		for _, k := range s.kernels {
			k.initFT()
		}
	}
	s.fabric.Start()
	for _, k := range s.kernels {
		if k.det != nil {
			k.det.Start()
		}
	}
	return s, nil
}

// Close shuts the cluster down: timers stop, the fabric closes, kernel
// RPCs in flight fail with ErrShutdown. Activations blocked in kernel
// operations are released.
func (s *System) Close() {
	s.closeOnce.Do(func() {
		close(s.closed)
		// Detectors first: their probe rounds must stop raising
		// membership events into a cluster that is going away.
		for _, k := range s.kernels {
			if k.det != nil {
				k.det.Stop()
			}
		}
		for _, k := range s.kernels {
			k.shutdown()
		}
		// Drain the transport: when Close returns, no kernel handler is
		// mid-flight and none will run again. The deadline bounds a wedged
		// remote transport; netsim always drains promptly.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.fabric.Close(ctx)
	})
}

// Transport returns the interconnect this cluster runs on.
func (s *System) Transport() transport.Transport { return s.fabric }

// Kernel returns the kernel of node n.
func (s *System) Kernel(n ids.NodeID) (*Kernel, error) {
	k, ok := s.kernels[n]
	if !ok {
		return nil, fmt.Errorf("core: no kernel for %v", n)
	}
	return k, nil
}

// Nodes returns the cluster's node identifiers in ascending order.
func (s *System) Nodes() []ids.NodeID {
	out := make([]ids.NodeID, 0, len(s.kernels))
	for i := 1; i <= s.cfg.Nodes; i++ {
		out = append(out, ids.NodeID(i))
	}
	return out
}

// Metrics returns the system-wide counter registry.
func (s *System) Metrics() *metrics.Registry { return s.reg }

// dropErr counts an error the kernel has no caller to return to — a
// best-effort send, background log maintenance — under core.err.dropped
// and the site's own counter, so a path that fails silently still shows
// in the metrics.
func (s *System) dropErr(site string, err error) {
	if err != nil {
		s.reg.Inc(metrics.CtrErrDropped)
		s.reg.Inc(metrics.ErrDropped(site))
	}
}

// Mode returns the configured invocation mode.
func (s *System) Mode() InvokeMode { return s.cfg.Mode }

// Events returns the cluster-wide user-event registry.
func (s *System) Events() *event.Registry { return s.events }

// Trace returns the kernel trace buffer (nil when tracing is disabled; all
// trace.Buffer methods are nil-safe).
func (s *System) Trace() *trace.Buffer { return s.tr }

// RegisterProc installs position-independent handler code under name.
// Registration is system-wide, mirroring code that is loadable on every
// node.
func (s *System) RegisterProc(name string, f ProcFunc) error {
	if name == "" || f == nil {
		return errors.New("core: RegisterProc needs a name and code")
	}
	s.procMu.Lock()
	defer s.procMu.Unlock()
	if _, dup := s.procs[name]; dup {
		return fmt.Errorf("core: proc %q already registered", name)
	}
	s.procs[name] = f
	return nil
}

// RegisterProcs installs a batch of handler code registrations.
func (s *System) RegisterProcs(procs map[string]ProcFunc) error {
	for name, f := range procs {
		if err := s.RegisterProc(name, f); err != nil {
			return err
		}
	}
	return nil
}

// proc resolves registered handler code.
func (s *System) proc(name string) (ProcFunc, error) {
	s.procMu.RLock()
	defer s.procMu.RUnlock()
	f, ok := s.procs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownProc, name)
	}
	return f, nil
}

// writeIO appends a line to a named I/O channel.
func (s *System) writeIO(channel, line string) {
	if channel == "" {
		channel = "stdout"
	}
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.io[channel] = append(s.io[channel], line)
}

// IOChannel returns the lines written to a named I/O channel so far.
func (s *System) IOChannel(channel string) []string {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	out := make([]string, len(s.io[channel]))
	copy(out, s.io[channel])
	return out
}

// IODump renders every channel, for traces.
func (s *System) IODump() string {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	var b strings.Builder
	for ch, lines := range s.io {
		for _, l := range lines {
			fmt.Fprintf(&b, "[%s] %s\n", ch, l)
		}
	}
	return b.String()
}

// CreateObject creates an object homed at node from spec and returns its
// identity. The object's persistent segment is created in the node's DSM
// manager.
func (s *System) CreateObject(node ids.NodeID, spec object.Spec) (ids.ObjectID, error) {
	k, err := s.Kernel(node)
	if err != nil {
		return ids.NoObject, err
	}
	return k.createObject(spec)
}

// LookupObject finds the object struct wherever it is homed. Object code is
// loadable on every node (as Clouds object segments were), which is what
// lets DSM-mode invocation run entries at the caller's node.
func (s *System) LookupObject(id ids.ObjectID) (*object.Object, error) {
	k, err := s.Kernel(id.Home())
	if err != nil {
		return nil, fmt.Errorf("core: object %v homed on unknown node: %w", id, err)
	}
	return k.store.Lookup(id)
}

// Spawn starts a fresh root thread at node invoking entry on obj. It
// returns a handle the caller can wait on.
func (s *System) Spawn(node ids.NodeID, obj ids.ObjectID, entry string, args ...any) (*Handle, error) {
	k, err := s.Kernel(node)
	if err != nil {
		return nil, err
	}
	return k.spawnRoot("", obj, entry, args)
}

// SpawnApp is Spawn with an application label, used when unrelated
// applications share objects (§3.1).
func (s *System) SpawnApp(node ids.NodeID, app string, obj ids.ObjectID, entry string, args ...any) (*Handle, error) {
	k, err := s.Kernel(node)
	if err != nil {
		return nil, err
	}
	return k.spawnRoot(app, obj, entry, args)
}

// Raise raises an event from outside any thread (e.g. the user typing ^C at
// a terminal: §6.3). The raise originates at node.
func (s *System) Raise(node ids.NodeID, name event.Name, target event.Target, user map[string]any) error {
	k, err := s.Kernel(node)
	if err != nil {
		return err
	}
	return k.raise(nil, name, target, user)
}

// RaiseAndWait is the synchronous variant of Raise: it blocks until a
// handler resumes the (virtual) raiser and returns the handler's verdict.
func (s *System) RaiseAndWait(node ids.NodeID, name event.Name, target event.Target, user map[string]any) (event.Verdict, error) {
	k, err := s.Kernel(node)
	if err != nil {
		return 0, err
	}
	return k.raiseAndWait(nil, name, target, user)
}

// registerHandle records a spawned thread's handle for later inspection.
func (s *System) registerHandle(h *Handle) {
	s.handleMu.Lock()
	defer s.handleMu.Unlock()
	s.handles[h.tid] = h
}

// HandleOf returns the handle of any spawned thread (root or asynchronous),
// or nil if unknown. Experiments use it to detect orphans.
func (s *System) HandleOf(tid ids.ThreadID) *Handle {
	s.handleMu.Lock()
	defer s.handleMu.Unlock()
	return s.handles[tid]
}

// ThreadState returns node's snapshot of tid's deepest local activation:
// which object/entry it is in and which kernel operation, if any, it is
// blocked in (Blocked == "" means running). ok is false when the node
// hosts no live activation for the thread. Tests poll it to wait for a
// thread to reach a known state instead of sleeping a guessed duration.
func (s *System) ThreadState(node ids.NodeID, tid ids.ThreadID) (*event.ThreadState, bool) {
	k, err := s.Kernel(node)
	if err != nil {
		return nil, false
	}
	a, ok := k.topAct(tid)
	if !ok {
		return nil, false
	}
	return a.snapshotState(), true
}

// Handles returns every spawned thread's handle.
func (s *System) Handles() []*Handle {
	s.handleMu.Lock()
	defer s.handleMu.Unlock()
	out := make([]*Handle, 0, len(s.handles))
	for _, h := range s.handles {
		out = append(out, h)
	}
	return out
}

// Handle tracks a spawned root thread.
type Handle struct {
	tid  ids.ThreadID
	done chan struct{}
	mu   sync.Mutex
	res  []any
	err  error
}

func newHandle(tid ids.ThreadID) *Handle {
	return &Handle{tid: tid, done: make(chan struct{})}
}

// TID returns the thread's identity.
func (h *Handle) TID() ids.ThreadID { return h.tid }

// Wait blocks until the thread's root activation finishes and returns its
// results.
func (h *Handle) Wait() ([]any, error) {
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.res, h.err
}

// WaitTimeout is Wait with a deadline, for tests.
func (h *Handle) WaitTimeout(d time.Duration) ([]any, error) {
	select {
	case <-h.done:
		return h.Wait()
	case <-time.After(d):
		return nil, fmt.Errorf("core: thread %v still running after %v", h.tid, d)
	}
}

// Done returns a channel closed when the thread finishes.
func (h *Handle) Done() <-chan struct{} { return h.done }

func (h *Handle) finish(res []any, err error) {
	h.mu.Lock()
	h.res = res
	h.err = err
	h.mu.Unlock()
	close(h.done)
}

// dsmTransport adapts a kernel to dsm.Transport.
type dsmTransport struct{ k *Kernel }

var _ dsm.Transport = dsmTransport{}

func (t dsmTransport) Call(to ids.NodeID, kind string, req any) (any, error) {
	if to == t.k.node {
		return t.k.dsm.HandleRequest(kind, req)
	}
	return t.k.call(to, kind, req)
}
