package sim

import (
	"flag"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

// seedFlag replays one specific schedule:
//
//	go test ./internal/sim -run TestSim -seed=N
//
// With the flag unset the tests sweep their default seed ranges.
var seedFlag = flag.Int64("seed", 0, "replay a single simulation seed")

// fullScenario is the everything-on configuration the fuzz sweep runs.
func fullScenario() Scenario {
	return Scenario{Name: "full", Faults: true, Locks: true}
}

// report fails the test with the violation list, the one-command replay
// line, and the kernel trace of the failing run.
func report(t *testing.T, res *Result) {
	t.Helper()
	for _, v := range res.Violations {
		t.Errorf("seed %d: %s", res.Seed, v)
	}
	t.Errorf("replay: %s", res.ReplayCommand())
	if res.Trace != "" {
		t.Logf("trace of failing run:\n%s", res.Trace)
	}
}

// TestSimDeterminism runs the same seeded scenario twice and requires
// byte-identical semantic digests: the schedule, every operation
// outcome, every handler-chain order, the terminal lock table and the
// terminal membership views all reproduce exactly.
func TestSimDeterminism(t *testing.T) {
	seed := int64(1)
	if *seedFlag != 0 {
		seed = *seedFlag
	}
	sc := fullScenario()
	first, err := Run(seed, sc)
	if err != nil {
		t.Fatal(err)
	}
	if first.Failed() {
		report(t, first)
	}
	second, err := Run(seed, sc)
	if err != nil {
		t.Fatal(err)
	}
	if second.Failed() {
		report(t, second)
	}
	if first.Digest != second.Digest {
		t.Errorf("same seed, different digests:\n run 1: %s\n run 2: %s\nreplay: %s",
			first.Digest, second.Digest, first.ReplayCommand())
	}
}

// TestSimDigestIgnoresBatchingConfig pins the forced-off rule: under the
// simulator's virtual clock, send batching must be disabled no matter what
// the wire config asks for, so the default config, an explicit opt-out and
// an aggressively tuned batching config all produce byte-identical digests.
// If batching ever leaked into virtual time, its flush timers would
// interleave with protocol timers and the digests would diverge.
func TestSimDigestIgnoresBatchingConfig(t *testing.T) {
	seed := int64(1)
	if *seedFlag != 0 {
		seed = *seedFlag
	}
	wires := map[string]core.WireConfig{
		"default":    {},
		"no-batch":   {NoBatching: true},
		"aggressive": {BatchMaxMsgs: 2, FlushInterval: 50 * time.Microsecond},
	}
	digests := map[string]string{}
	for label, wire := range wires {
		sc := fullScenario()
		sc.Wire = wire
		res, err := Run(seed, sc)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if res.Failed() {
			report(t, res)
		}
		digests[label] = res.Digest
	}
	if digests["default"] != digests["no-batch"] || digests["default"] != digests["aggressive"] {
		t.Errorf("digests differ across batching configs:\n default:    %s\n no-batch:   %s\n aggressive: %s",
			digests["default"], digests["no-batch"], digests["aggressive"])
	}
}

// TestSimDigestIgnoresQoSConfig pins the same forced-off rule for QoS
// dispatch: under the virtual clock a QoS config without AllowVirtual is
// ignored, so the zero value and an aggressive classful config produce
// byte-identical digests and every checked-in seed digest survives the
// QoS layer's introduction untouched.
func TestSimDigestIgnoresQoSConfig(t *testing.T) {
	seed := int64(1)
	if *seedFlag != 0 {
		seed = *seedFlag
	}
	configs := map[string]core.QoSConfig{
		"default": {},
		"aggressive": {
			Enabled: true,
			Weights: map[transport.Class]int{1: 8, 2: 1},
			Depth:   4,
			Quantum: 32,
		},
	}
	digests := map[string]string{}
	for label, qos := range configs {
		sc := fullScenario()
		sc.QoS = qos
		res, err := Run(seed, sc)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if res.Failed() {
			report(t, res)
		}
		digests[label] = res.Digest
	}
	if digests["default"] != digests["aggressive"] {
		t.Errorf("digests differ across QoS configs:\n default:    %s\n aggressive: %s",
			digests["default"], digests["aggressive"])
	}
}

// TestSimQoS actually turns classful dispatch on under the virtual clock
// (AllowVirtual) and sweeps the full fault scenario: DWRR scheduling,
// bounded tenant admission and the shed path all run deterministically in
// virtual time, and every standard invariant — exactly-once, chain-lifo,
// orphan-lock, convergence — plus the qos-shed invariant (no system- or
// control-class message ever shed) must hold. Depth stays moderate so the
// reliable layer's retry budget absorbs transient admission rejects
// without dead-lettering a raise.
func TestSimQoS(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if *seedFlag != 0 {
		seeds = []int64{*seedFlag}
	}
	for _, seed := range seeds {
		sc := fullScenario()
		sc.Name = "qos"
		sc.QoS = core.QoSConfig{
			Enabled:      true,
			AllowVirtual: true,
			Weights:      map[transport.Class]int{1: 4},
			Depth:        32,
		}
		res, err := Run(seed, sc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Failed() {
			report(t, res)
		}
	}
}

// TestSimFuzz sweeps seeds over the full scenario. Each seed generates
// a different schedule of raises, locks, crashes and severed links; the
// invariant checkers audit every step. A failure prints the seed and
// the replay command.
func TestSimFuzz(t *testing.T) {
	seeds := []int64{2, 3}
	if n, _ := strconv.Atoi(os.Getenv("SIM_SOAK_SEEDS")); n > 0 {
		// Soak mode (CI nightly / make sim-soak): sweep seeds 1..N.
		seeds = seeds[:0]
		for s := int64(1); s <= int64(n); s++ {
			seeds = append(seeds, s)
		}
	}
	if *seedFlag != 0 {
		seeds = []int64{*seedFlag}
	}
	for _, seed := range seeds {
		res, err := Run(seed, fullScenario())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Failed() {
			report(t, res)
		}
	}
}

// largeScenario is the cluster-scaling configuration: 32 nodes, one
// worker per node, with the generator's scaled fault budgets in play —
// up to four nodes crashed at once (their restarts cascade) and two
// independently severed link pairs. Group raises at this width go down
// the spanning fan-out tree and locates through whatever the default
// locator is, so this is where the scaling machinery meets the
// deterministic-simulation invariants.
func largeScenario() Scenario {
	return Scenario{Name: "large", Nodes: 32, Faults: true, Locks: true}
}

// TestSimLargeCluster sweeps the 32-node scenario and requires the full
// invariant set to hold, plus same-seed digest determinism with gossip
// membership and tree fan-out active. SIM_SOAK_SEEDS widens the sweep
// (CI nightly runs it at 128 nodes via SIM_LARGE_NODES as well).
func TestSimLargeCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("large-cluster simulation in -short mode")
	}
	sc := largeScenario()
	if n, _ := strconv.Atoi(os.Getenv("SIM_LARGE_NODES")); n > 0 {
		sc.Nodes = n
	}
	seeds := []int64{1, 2}
	if n, _ := strconv.Atoi(os.Getenv("SIM_SOAK_SEEDS")); n > 0 {
		seeds = seeds[:0]
		for s := int64(1); s <= int64(n); s++ {
			seeds = append(seeds, s)
		}
	}
	if *seedFlag != 0 {
		seeds = []int64{*seedFlag}
	}
	for _, seed := range seeds {
		res, err := Run(seed, sc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Failed() {
			report(t, res)
		}
	}
	// Same-seed determinism at scale: rerun the first seed and require a
	// byte-identical semantic digest.
	first, err := Run(seeds[0], sc)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Run(seeds[0], sc)
	if err != nil {
		t.Fatal(err)
	}
	if first.Digest != again.Digest {
		t.Errorf("same seed, different digests at %d nodes:\n run 1: %s\n run 2: %s\nreplay: %s",
			sc.Nodes, first.Digest, again.Digest, first.ReplayCommand())
	}
}

// TestSimCatchesInjectedBug reintroduces a known defect — the chained
// TERMINATE unlock of §4.2 is detached right after acquisition — and
// requires the orphan-lock invariant to catch it with a replayable
// seed. This is the proof the harness detects real protocol
// regressions rather than vacuously passing.
func TestSimCatchesInjectedBug(t *testing.T) {
	seed := int64(1)
	if *seedFlag != 0 {
		seed = *seedFlag
	}
	sc := Scenario{Name: "bug-chained-unlock", Ops: 12, Locks: true, Bug: BugSkipChainedUnlock}
	res, err := Run(seed, sc)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range res.Violations {
		if v.Invariant == "orphan-lock" {
			found = true
		}
	}
	if !found {
		t.Fatalf("injected chained-unlock bug was not caught; violations: %v", res.Violations)
	}
	if !strings.Contains(res.ReplayCommand(), "-seed=") {
		t.Errorf("replay command %q lacks a seed", res.ReplayCommand())
	}
	if res.Trace == "" {
		t.Error("violating run did not capture a trace")
	}
}

// durableScenario is the everything-on configuration plus WAL+snapshot
// durability and the durable-replay invariant.
func durableScenario() Scenario {
	return Scenario{Name: "durable", Faults: true, Locks: true, Durable: true}
}

// TestSimDurableRecovery sweeps seeded schedules with durability on: every
// crash freezes a WAL, every restart replays it, and the durable-replay
// invariant requires the recovered state to match a correct replay of the
// disk exactly. SIM_DUR_SEEDS widens the sweep (the acceptance run uses
// SIM_DUR_SEEDS=100).
func TestSimDurableRecovery(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if n, _ := strconv.Atoi(os.Getenv("SIM_DUR_SEEDS")); n > 0 {
		seeds = seeds[:0]
		for s := int64(1); s <= int64(n); s++ {
			seeds = append(seeds, s)
		}
	}
	if *seedFlag != 0 {
		seeds = []int64{*seedFlag}
	}
	for _, seed := range seeds {
		res, err := Run(seed, durableScenario())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Failed() {
			report(t, res)
		}
	}
}

// TestSimDurableDeterminism reruns one durable seed and requires
// byte-identical digests: WAL appends, snapshot timing and replay must
// not perturb the virtual-time schedule.
func TestSimDurableDeterminism(t *testing.T) {
	seed := int64(1)
	if *seedFlag != 0 {
		seed = *seedFlag
	}
	first, err := Run(seed, durableScenario())
	if err != nil {
		t.Fatal(err)
	}
	if first.Failed() {
		report(t, first)
	}
	again, err := Run(seed, durableScenario())
	if err != nil {
		t.Fatal(err)
	}
	if first.Digest != again.Digest {
		t.Errorf("same durable seed, different digests:\n run 1: %s\n run 2: %s\nreplay: %s",
			first.Digest, again.Digest, first.ReplayCommand())
	}
}

// TestSimCatchesDurabilityBugs injects two classic durability faults — a
// lost fsync window (the newest segment loses its last frames before the
// restart) and a stale snapshot (every segment behind the newest snapshot
// disappears) — and requires the durable-replay
// invariant to catch each within a handful of seeds. This is the proof the
// crash-restart-replay checker detects real durability regressions rather
// than vacuously passing.
func TestSimCatchesDurabilityBugs(t *testing.T) {
	bugs := map[string]Bug{
		"wal-skip-fsync":     BugWALSkipFsync,
		"wal-stale-snapshot": BugWALStaleSnapshot,
	}
	for name, bug := range bugs {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				sc := durableScenario()
				sc.Name = "bug-" + name
				sc.Bug = bug
				res, err := Run(seed, sc)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				for _, v := range res.Violations {
					if v.Invariant == "durable-replay" {
						t.Logf("seed %d caught %s: %s", seed, name, v.Detail)
						return
					}
				}
			}
			t.Fatalf("injected %s bug was not caught by seeds 1..5", name)
		})
	}
}
