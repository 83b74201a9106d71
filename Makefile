GO ?= go

.PHONY: all vet build test shuffle race flake bench bench-smoke bench-batch doctbench doctbench-pair chaos chaos-soak noisy-soak sim sim-soak recovery-soak fuzz-smoke tcp-smoke wal-smoke loc lint-imports check

all: check

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# shuffle reruns the suite twice in randomized test order: any test that
# leans on a sibling's leftover state fails here before it flakes in CI.
shuffle:
	$(GO) test -shuffle=on -count=2 ./...

# The race target runs every internal package — including the migration
# stress test (internal/core TestMigrationStressExactlyOnce), which doubles
# as the locking proof for the location cache and the sharded kernel state —
# under the race detector.
race:
	$(GO) test -race ./internal/...

# flake tallies one test's failure rate: N runs, each in its own
# `go test -count=1` process, printed as fail/total with the first failing
# output. Run it at both commits when a PR reports (or fixes) a flake.
#   make flake P=./internal/core T=TestMigrationStressExactlyOnce N=20 [RACE=-race]
P ?= ./internal/core
T ?= TestMigrationStressExactlyOnce
RACE ?=
flake:
	bash scripts/flake.sh $(P) $(T) $(N) $(RACE)

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke compiles and runs every benchmark exactly once — no timing
# fidelity, just proof that the bench harnesses (and the wire-efficiency
# counters they report) still execute — then replays the gated experiments
# against their checked-in baselines: E12/E13 delivered events/sec and the
# E13 message reduction may not fall more than 30% below baseline, E11
# wire bytes per invoke may not rise more than 30% above it, and the E16
# cluster-scaling reductions (total messages and peak per-node burst,
# tree vs unicast at 256 nodes) may not regress. E17 gates durable
# throughput (events/s with real fsync) and the crash-recovery proof
# (recovered must stay 1). E15 gates QoS tenant isolation: A's p99 under
# B's flood over A's unloaded p99 may not rise above baseline + 30%, and
# system/control sheds have a zero baseline — one shed fails the gate.
# The tolerance absorbs shared-runner noise; the regressions the gate
# exists for — losing the dispatch pool, losing send coalescing, losing
# group commit, losing DWRR isolation — cost far more than 30%.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./...
	$(GO) run ./cmd/benchtab -e e11,e12,e13,e14,e15,e16,e17 -json -gate BENCH_e11.json,BENCH_e12.json,BENCH_e13.json,BENCH_e14.json,BENCH_e15.json,BENCH_e16.json,BENCH_e17.json > /dev/null

# doctbench builds and runs the end-to-end benchmark BENCHMARK.json declares
# (bench/doctbench: simulated fabric plus real sockets between OS processes,
# with the per-layer budget) at its defaults; for one workload or a traced
# pass call the script directly: bash bench/run.sh -workload sim_closed -trace 1
doctbench:
	bash bench/run.sh

# doctbench-pair judges a claimed gain the way the benchmark's driver does:
# N alternating runs of one workload on BASE (a git ref, exported to a
# temporary directory) and on the working tree, then per side the median and
# quartiles of every end-to-end metric and the sum of failed operations.
#   make doctbench-pair BASE=HEAD~1 W=sim_closed N=10
BASE ?= HEAD
W ?= sim_closed
N ?= 10
doctbench-pair:
	bash scripts/doctbench-pair.sh $(BASE) $(W) $(N)

# bench-batch reruns just the E13 batching sweep and prints the table —
# the quick loop for tuning the coalescing knobs.
bench-batch:
	$(GO) run ./cmd/benchtab -e e13

# The chaos target drives the crash-fault-tolerance machinery (DESIGN.md
# §7) under the race detector: the core chaos suite (exactly-once delivery
# under message loss, partition-and-heal, crash recovery, bounded
# synchronous raises), the gossip failure-detector and reliable-transport
# unit tests, the doct fault-injection facade, and the doctsim chaos scenario.
# The one-way asynchronous raise rides along: it returns before delivery and
# still runs its handler exactly once under loss (core), the reliable layer's
# first transmission leaves on the sender's goroutine (in the reliable suite),
# and one goroutine's sends arrive in program order on both links.
chaos:
	$(GO) test -race -run 'TestChaos|TestRaiseAndWaitTimeout|TestAsyncRaiseReturnsBeforeDelivery' ./internal/core/
	$(GO) test -race ./internal/failure/ ./internal/reliable/
	$(GO) test -race -run 'TestReliableSendsArriveInProgramOrder' ./internal/transport/transporttest/
	$(GO) test -race -run 'TestFacade|TestScenarioChaos' ./doct/ ./cmd/doctsim/

# chaos-soak repeats the chaos suite under the race detector on the real
# clock — the only clock batching runs under, so this is where coalesced
# frames, frame-wide drops and re-batched retransmits actually soak.
# CI runs it nightly next to sim-soak.
chaos-soak:
	$(GO) test -race -count=5 -timeout 30m -run 'TestChaos' ./internal/core/

# noisy-soak repeats the E15 noisy-neighbor scenario under the race
# detector: tenant B floods at ~10x capacity while tenant A and a
# system-class stream run alongside, and every round asserts the QoS
# invariants — B sees admission rejects, A's p99 stays bounded, and no
# system/control message is ever shed. CI runs it nightly next to
# chaos-soak. NOISY_ROUNDS picks the repeat count.
NOISY_ROUNDS ?= 10
noisy-soak:
	NOISY_SOAK_ROUNDS=$(NOISY_ROUNDS) $(GO) test -race -count=1 -timeout 30m -run TestNoisyNeighborSoak -v ./internal/workload/

# sim runs the deterministic simulation suite (internal/sim): same-seed
# determinism, the default fuzz seeds, and the injected-bug detector.
# Replay one failing schedule with:  go test ./internal/sim -run TestSim -seed=N
sim:
	$(GO) test -count=1 ./internal/sim/

# sim-soak sweeps many more schedules than the default suite; CI runs it
# on a schedule rather than per push. SOAK_SEEDS picks the sweep width of
# the 8-node fuzz; the second leg reruns the large-cluster scenario at
# LARGE_NODES nodes (concurrent partitions, cascading restarts, tree
# fan-out group raises) over LARGE_SEEDS seeds.
SOAK_SEEDS ?= 25
LARGE_NODES ?= 128
LARGE_SEEDS ?= 10
sim-soak:
	SIM_SOAK_SEEDS=$(SOAK_SEEDS) $(GO) test -count=1 -timeout 60m -run TestSimFuzz -v ./internal/sim/
	SIM_LARGE_NODES=$(LARGE_NODES) SIM_SOAK_SEEDS=$(LARGE_SEEDS) $(GO) test -count=1 -timeout 60m -run TestSimLargeCluster -v ./internal/sim/

# recovery-soak sweeps the durable crash-restart-replay scenario — WAL +
# snapshots on, guaranteed crash/restart pair per schedule, the
# durable-replay invariant (recovered state must equal a correct replay
# of the on-disk log) checked at every restart — over DUR_SEEDS random
# schedules. CI runs it nightly next to sim-soak.
DUR_SEEDS ?= 100
recovery-soak:
	SIM_DUR_SEEDS=$(DUR_SEEDS) $(GO) test -count=1 -timeout 60m -run TestSimDurableRecovery -v ./internal/sim/

# tcp-smoke boots a real multi-process cluster over loopback TCP — the
# doctnode binary, one OS process per node — and proves events cross the
# wire end to end: the 3-process quickstart plus the 8-process kill -9
# chaos schedule with a mid-workload restart. This is the check that the
# transport subsystem works outside the simulator.
tcp-smoke:
	$(GO) test -count=1 -run 'TestSmokeThreeProcess|TestChaosKill9EightProcess' ./cmd/doctnode/

# wal-smoke proves durability outside the simulator: an 8-process durable
# cluster (every node on -datadir) loses its stateful node to kill -9
# mid-workload, restarts it against the same data directory, and the
# replayed state — sink log, lock tally, dedup windows — must carry the
# whole run's history. The WAL unit suite rides along.
wal-smoke:
	$(GO) test -count=1 ./internal/wal/
	$(GO) test -count=1 -run 'TestWALKill9RestartKeepsState' ./cmd/doctnode/

# fuzz-smoke gives each fuzz target a short budget on top of its
# checked-in corpus — enough to catch an obvious regression per push;
# longer fuzzing runs happen out of band.
fuzz-smoke:
	$(GO) test -fuzz FuzzDeltaRoundTrip -fuzztime 10s ./internal/thread/
	$(GO) test -fuzz FuzzReliableReorder -fuzztime 10s ./internal/reliable/
	$(GO) test -fuzz FuzzBatchRoundTrip -fuzztime 10s ./internal/batch/
	$(GO) test -fuzz FuzzGossipRoundTrip -fuzztime 10s ./internal/failure/
	$(GO) test -fuzz FuzzWALRoundTrip -fuzztime 10s ./internal/wal/
	$(GO) test -fuzz FuzzWALTornTail -fuzztime 10s ./internal/wal/
	$(GO) test -fuzz FuzzWireRoundTrip -fuzztime 10s ./internal/transport/wire/
	$(GO) test -fuzz FuzzReadFrame -fuzztime 10s ./internal/transport/tcptransport/
	$(GO) test -fuzz FuzzHello -fuzztime 10s ./internal/transport/tcptransport/

# loc prints the size figures ROADMAP tracks — non-test Go lines outside
# bench/ per package and in total, the transport layer's share, and the
# TestOptionSurface field count — so every simplicity PR quotes one command.
loc:
	bash scripts/loc.sh

# lint-imports keeps the transport seam closed: internal/reliable and
# internal/transport (the interface, the node pipeline, the codec) may not
# import a fabric, in internal/core only core.go — the default-fabric
# constructor — may import netsim, the wire codec imports neither the
# transport nor the reliable layer, and no non-test Go outside bench/ names
# a size estimate (WireSize, PayloadSize, Sizer) next to the codec.
lint-imports:
	bash scripts/lint-imports.sh

check: vet lint-imports build test shuffle race chaos sim loc
