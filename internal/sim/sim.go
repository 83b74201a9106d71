// Package sim is the deterministic simulation harness: it runs a whole
// multi-node cluster (kernels, fabric, failure detectors, reliable
// transport) on a single vclock.Virtual time source, drives it with a
// seeded schedule of operations and faults, and checks protocol
// invariants after every step.
//
// The model is FoundationDB-style simulation testing scaled to this
// repo: one seed fully determines the generated schedule — which
// workers are poked, which locks are taken, when nodes crash, when
// links sever — and virtual time advances only between steps, so hours
// of protocol time (suspicion windows, retransmit backoffs, timeout
// sweeps) cost milliseconds of wall clock. A failing seed is a
// one-command reproduction:
//
//	go test ./internal/sim -run TestSim -seed=N
//
// Determinism scope: the schedule and the virtual timeline are exact
// functions of the seed, and the digest is computed over *semantic*
// outcomes — per-operation results, handler-chain orders keyed by
// script labels, final lock tables and membership views — not over raw
// goroutine interleavings. Kernel goroutines still race in real time
// inside each settle window, so two runs may interleave trace records
// differently; they must (and do) agree on every semantic outcome, and
// the digest is byte-identical run to run.
//
// Invariants checked:
//
//   - exactly-once: no handler observes the same (op, worker, link)
//     delivery twice, under retransmission and faults (FT is on).
//   - chain-lifo: handlers attached 0..depth-1 run in LIFO order
//     depth-1..0, propagating down to the consuming handler (§4.2).
//   - completeness: an event raised in a fault-free window reaches its
//     full chain on every alive target.
//   - orphan-lock: no lock stays held by a terminated thread — the
//     chained TERMINATE unlock (§4.2) or the crash-recovery sweep must
//     free it.
//   - membership-gen: each node's failure-detector generation is
//     monotone for the life of that detector incarnation.
//   - membership-converge: after faults heal, every node's view agrees
//     the whole cluster is alive.
//   - durable-replay (Scenario.Durable): at every crash the harness
//     captures what a correct replay of the victim's WAL would recover;
//     at the restart it diffs the state the node actually recovered
//     against that capture and requires an empty diff — recovery must
//     reproduce the durable-visible state exactly, no lost tail, no
//     stale snapshot.
package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
)

// Bug selects a deliberately reintroduced defect, used to prove the
// harness catches real protocol regressions (and in tests to pin the
// violation → seed → replay loop).
type Bug int

const (
	// BugNone runs the stock system.
	BugNone Bug = iota
	// BugSkipChainedUnlock detaches the chained TERMINATE unlock
	// handler right after every lock acquisition, disabling the §4.2
	// cleanup path. A terminate-while-holding schedule then strands the
	// lock on a dead thread, which the orphan-lock invariant reports.
	BugSkipChainedUnlock
	// BugWALSkipFsync models a lost fsync window: between a crash and the
	// restart the victim's newest WAL segment loses its last few frames,
	// as if the final group commits never reached the platter. The
	// durable-replay invariant reports the lost state.
	BugWALSkipFsync
	// BugWALStaleSnapshot models a disk that kept the snapshot and lost
	// the tail behind it: between a crash and the restart every segment
	// after the victim's newest snapshot disappears. The durable-replay
	// invariant reports it.
	BugWALStaleSnapshot
)

// Scenario parameterizes a simulation run. The zero value of each field
// picks a sensible default; the seed does the rest.
type Scenario struct {
	// Name labels the run in results and digests.
	Name string
	// Nodes is the cluster size (default 8).
	Nodes int
	// Workers is the number of long-lived worker threads, spread
	// round-robin over the nodes (default Nodes).
	Workers int
	// Ops is the number of generated schedule steps (default 40).
	Ops int
	// ChainDepth is the number of handlers each worker stacks on its
	// INTERRUPT chain (default 3); the chain-lifo invariant checks the
	// full LIFO propagation order on every delivery.
	ChainDepth int
	// Faults allows crash/restart/sever/heal steps. Node 1 hosts the
	// lock server and the group directory and is never faulted — the
	// schedule perturbs members, not the coordinator.
	Faults bool
	// Locks allows distributed-lock steps (clean release, terminate
	// while holding, crash while holding).
	Locks bool
	// Bug injects a known defect (see Bug).
	Bug Bug
	// Durable runs every node with WAL + snapshot durability on (NoFsync,
	// under the virtual clock) and arms the durable-replay invariant:
	// crash steps capture the disk's recoverable state, restart steps
	// require the node to have recovered exactly that. The generator
	// also guarantees at least one crash/restart pair so every durable
	// run exercises replay (Faults must be on for that to take effect).
	Durable bool
	// Wire overrides the kernel's wire configuration. Send batching is
	// forced off under the simulator's virtual clock whatever this says
	// (TestSimDigestIgnoresBatchingConfig pins that), so the zero value
	// and an aggressive batching config produce identical digests.
	Wire core.WireConfig
	// QoS overrides the kernel's QoS dispatch configuration. Like
	// batching, QoS is forced off under the simulator's virtual clock
	// unless QoS.AllowVirtual is also set
	// (TestSimDigestIgnoresQoSConfig pins that) — so existing seed
	// digests are untouched. A scenario that sets Enabled+AllowVirtual
	// runs classful dispatch deterministically in virtual time, and the
	// qos-shed invariant (finalPhase) asserts no system- or
	// control-class message was ever shed by admission.
	QoS core.QoSConfig
}

func (sc *Scenario) fillDefaults() {
	if sc.Name == "" {
		sc.Name = "sim"
	}
	if sc.Nodes == 0 {
		sc.Nodes = 8
	}
	if sc.Workers == 0 {
		sc.Workers = sc.Nodes
	}
	if sc.Ops == 0 {
		sc.Ops = 40
	}
	if sc.ChainDepth == 0 {
		sc.ChainDepth = 3
	}
}

// Violation is one invariant breach, anchored to the schedule step that
// surfaced it.
type Violation struct {
	// Invariant names the broken property (see the package doc list).
	Invariant string
	// Op is the schedule step index (-1 for final-phase checks).
	Op int
	// Detail says what was observed.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s at op %d: %s", v.Invariant, v.Op, v.Detail)
}

// Result is the outcome of one simulation run.
type Result struct {
	Seed     int64
	Scenario string
	Ops      int
	// Digest is a hex SHA-256 over the run's semantic outcome log; the
	// same seed and scenario always produce the same digest.
	Digest string
	// Violations lists every invariant breach (empty on a clean run).
	Violations []Violation
	// Log is the per-step outcome log (one line per schedule step).
	Log []string
	// Trace is the kernel trace dump, captured only when the run has
	// violations.
	Trace string
}

// Failed reports whether any invariant was violated.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// ReplayCommand is the one-command reproduction line for this run.
func (r *Result) ReplayCommand() string {
	return fmt.Sprintf("go test ./internal/sim -run TestSim -seed=%d", r.Seed)
}

// Run executes the scenario under the given seed and returns the
// semantic digest plus any invariant violations.
func Run(seed int64, sc Scenario) (*Result, error) {
	sc.fillDefaults()
	ops := genOps(rand.New(rand.NewSource(seed)), sc)
	h, err := newHarness(seed, sc)
	if err != nil {
		return nil, err
	}
	defer h.close()
	if err := h.setup(); err != nil {
		return nil, err
	}
	for i, o := range ops {
		h.step(i, o)
	}
	h.finalPhase(len(ops))

	res := &Result{
		Seed:       seed,
		Scenario:   sc.Name,
		Ops:        len(ops),
		Digest:     h.digest(),
		Violations: h.violations,
		Log:        h.outcomes,
	}
	if len(res.Violations) > 0 {
		res.Trace = h.sys.Trace().Dump()
	}
	return res, nil
}
