package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/locks"
	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// chainProc is the registry name of the worker chain handler.
const chainProc = "sim.chain"

// Virtual-time protocol parameters. Small values are free: the clock
// only advances between steps, so a 10ms heartbeat costs no wall time.
const (
	simLatency    = time.Millisecond
	simHeartbeat  = 25 * time.Millisecond
	simSuspect    = 100 * time.Millisecond
	simCallTO     = 2 * time.Second
	simRaiseTO    = time.Second
	workerSlice   = 100 * time.Millisecond // spin-loop sleep quantum
	setupChunk    = 5 * time.Millisecond
	setupChunkMax = 400 // ≤2s virtual for setup convergence
	extraChunk    = 20 * time.Millisecond
	extraChunkMax = 600                   // ≤12s virtual before a step is declared stuck
	opGrace       = 50 * time.Millisecond // real time for a step to finish
	finalWindow   = 3 * time.Second       // convergence window before terminal checks
)

type simWorker struct {
	label string
	node  ids.NodeID
	tid   ids.ThreadID
}

// harness owns one simulated cluster plus the books the invariant
// checkers read. Handler callbacks write the books from kernel
// goroutines; everything shared is behind mu.
type harness struct {
	sc      Scenario
	seed    int64
	v       *vclock.Virtual
	sys     *core.System
	stop    atomic.Bool
	datadir string // per-run WAL root (Scenario.Durable), removed at close

	lockSrv ids.ObjectID
	objs    map[ids.NodeID]ids.ObjectID

	mu         sync.Mutex
	gid        ids.GroupID
	workers    []simWorker
	ready      int
	dead       map[int]bool     // worker index → lost with its node
	crashed    map[int]bool     // node (int form) → currently crashed
	runs       map[string][]int // "opNNN/label" → handler idx sequence
	lockers    map[int]ids.ThreadID
	durSnap    map[int]*core.DurableState // node → disk state captured at its crash
	tidLabel   map[ids.ThreadID]string
	handles    []*core.Handle
	lastGen    map[ids.NodeID]uint64
	outcomes   []string
	violations []Violation
}

func newHarness(seed int64, sc Scenario) (*harness, error) {
	v := vclock.NewVirtual()
	cfg := core.Config{
		Nodes:        sc.Nodes,
		Latency:      simLatency,
		CallTimeout:  simCallTO,
		RaiseTimeout: simRaiseTO,
		FT: core.FTConfig{
			Enabled:         true,
			HeartbeatPeriod: simHeartbeat,
			SuspectAfter:    simSuspect,
		},
		TraceCapacity: 8192,
		Seed:          seed,
		Clock:         v,
		Wire:          sc.Wire,
		QoS:           sc.QoS,
	}
	datadir := ""
	if sc.Durable {
		// NoFsync: an in-process "crash" cannot lose the page cache, and a
		// real fsync would drag wall-clock time into the virtual schedule.
		dir, err := os.MkdirTemp("", "repro-sim-wal-")
		if err != nil {
			return nil, err
		}
		datadir = dir
		cfg.Durability = core.DurabilityConfig{Enabled: true, Dir: dir, NoFsync: true}
		if sc.Bug == BugWALStaleSnapshot {
			// Snapshot often, so every crash finds one to fall back to.
			cfg.Durability.SnapshotEvery = 8
		}
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		if datadir != "" {
			os.RemoveAll(datadir)
		}
		return nil, err
	}
	return &harness{
		sc: sc, seed: seed, v: v, sys: sys, datadir: datadir,
		objs:     map[ids.NodeID]ids.ObjectID{},
		workers:  make([]simWorker, sc.Workers),
		dead:     map[int]bool{},
		crashed:  map[int]bool{},
		runs:     map[string][]int{},
		lockers:  map[int]ids.ThreadID{},
		durSnap:  map[int]*core.DurableState{},
		tidLabel: map[ids.ThreadID]string{},
		lastGen:  map[ids.NodeID]uint64{},
	}, nil
}

func (h *harness) close() {
	h.stop.Store(true)
	// Give spinners a chance to exit on their own wakeups; Close then
	// unblocks any straggler through the system closed channel.
	h.v.Advance(2 * workerSlice)
	h.sys.Close()
	if h.datadir != "" {
		os.RemoveAll(h.datadir)
	}
}

func workerLabel(w int) string { return fmt.Sprintf("w%d", w) }

func runKey(opID int, label string) string { return fmt.Sprintf("op%03d/%s", opID, label) }

// setup registers the handler code, creates the lock server plus one sim
// object per node, and spins up the workers (leader first: it mints the
// thread group every other worker joins).
func (h *harness) setup() error {
	if err := locks.Register(h.sys); err != nil {
		return err
	}
	if err := h.sys.RegisterProc(chainProc, h.chainHandler); err != nil {
		return err
	}
	srv, err := h.sys.CreateObject(1, locks.ServerSpec("sim"))
	if err != nil {
		return err
	}
	h.lockSrv = srv
	for n := 1; n <= h.sc.Nodes; n++ {
		oid, err := h.sys.CreateObject(ids.NodeID(n), h.spec())
		if err != nil {
			return err
		}
		h.objs[ids.NodeID(n)] = oid
	}

	if err := h.spawnWorker(0, ids.NoGroup); err != nil {
		return err
	}
	if !h.advanceUntil(func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		return h.gid != ids.NoGroup && h.ready >= 1
	}) {
		return fmt.Errorf("sim: leader worker never became ready")
	}
	h.mu.Lock()
	gid := h.gid
	h.mu.Unlock()
	for w := 1; w < h.sc.Workers; w++ {
		if err := h.spawnWorker(w, gid); err != nil {
			return err
		}
	}
	if !h.advanceUntil(func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		return h.ready == h.sc.Workers
	}) {
		return fmt.Errorf("sim: only %d of %d workers became ready", h.readyCount(), h.sc.Workers)
	}
	// Let the detectors complete a few rounds so membership starts settled.
	h.v.Advance(5 * simHeartbeat)
	return nil
}

func (h *harness) readyCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ready
}

func (h *harness) spawnWorker(w int, gid ids.GroupID) error {
	node := ids.NodeID(workerNode(w, h.sc.Nodes))
	// The slot is labelled before the spawn: spinEntry finds it by label to
	// record its thread ID, and may get there before Spawn returns.
	h.mu.Lock()
	h.workers[w] = simWorker{label: workerLabel(w), node: node}
	h.mu.Unlock()
	hd, err := h.sys.Spawn(node, h.objs[node], "spin", workerLabel(w), gid)
	if err != nil {
		return err
	}
	h.mu.Lock()
	h.handles = append(h.handles, hd)
	h.mu.Unlock()
	return nil
}

// advanceUntil advances virtual time in fixed chunks until cond holds.
// The 1ms real sleep between chunks lets kernel goroutines that need no
// more virtual time run to their next blocking point.
func (h *harness) advanceUntil(cond func() bool) bool {
	for i := 0; i < setupChunkMax; i++ {
		if cond() {
			return true
		}
		h.v.Advance(setupChunk)
		time.Sleep(time.Millisecond)
	}
	return cond()
}

// spec builds the per-node simulation object: spin is the long-lived
// worker loop, locker is the lock-protocol probe thread.
func (h *harness) spec() object.Spec {
	return object.Spec{
		Name: "simworker",
		Entries: map[string]object.Entry{
			"spin":   h.spinEntry,
			"locker": h.lockerEntry,
		},
	}
}

// spinEntry is the worker body: join (or mint) the group, stack
// ChainDepth handlers on INTERRUPT — attached 0..depth-1, so the LIFO
// walk must run them depth-1..0 with the bottom one consuming — then
// sleep in small slices until the harness stops.
func (h *harness) spinEntry(ctx object.Ctx, args []any) ([]any, error) {
	label := args[0].(string)
	if gid, ok := args[1].(ids.GroupID); ok && gid != ids.NoGroup {
		if err := ctx.JoinGroup(gid); err != nil {
			return nil, err
		}
	} else {
		gid, err := ctx.CreateGroup()
		if err != nil {
			return nil, err
		}
		h.mu.Lock()
		h.gid = gid
		h.mu.Unlock()
	}
	for idx := 0; idx < h.sc.ChainDepth; idx++ {
		mode := "propagate"
		if idx == 0 {
			mode = "consume"
		}
		err := ctx.AttachHandler(event.HandlerRef{
			Event: event.Interrupt, Kind: event.KindProc, Proc: chainProc,
			Data: map[string]string{"w": label, "idx": strconv.Itoa(idx), "mode": mode},
		})
		if err != nil {
			return nil, err
		}
	}
	h.mu.Lock()
	for w := range h.workers {
		if h.workers[w].label == label {
			h.workers[w].tid = ctx.Thread()
		}
	}
	h.tidLabel[ctx.Thread()] = label
	h.ready++
	h.mu.Unlock()
	for !h.stop.Load() {
		if err := ctx.Sleep(workerSlice); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// lockerEntry acquires a lock and then follows its mode: "clean"
// releases and exits; "hold" keeps the lock until terminated or crashed.
func (h *harness) lockerEntry(ctx object.Ctx, args []any) ([]any, error) {
	lock := args[0].(string)
	mode := args[1].(string)
	opID := args[2].(int)
	if err := locks.Acquire(ctx, h.lockSrv, lock); err != nil {
		return nil, err
	}
	if h.sc.Bug == BugSkipChainedUnlock {
		// The injected defect: drop the §4.2 chained unlock right after
		// taking the lock. A TERMINATE now kills the thread without
		// freeing the lock.
		_ = ctx.DetachHandler(event.Terminate)
	}
	h.mu.Lock()
	h.lockers[opID] = ctx.Thread()
	h.tidLabel[ctx.Thread()] = fmt.Sprintf("op%03d", opID)
	h.mu.Unlock()
	if mode == "clean" {
		if err := ctx.Sleep(2 * time.Millisecond); err != nil {
			return nil, err
		}
		if err := locks.Release(ctx, h.lockSrv, lock); err != nil {
			return nil, err
		}
		return []any{true}, nil
	}
	for !h.stop.Load() {
		if err := ctx.Sleep(workerSlice); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// chainHandler is the proc behind every worker chain link; it records
// (op, worker, link) so the exactly-once and chain-lifo checkers can
// audit the run.
func (h *harness) chainHandler(_ object.Ctx, ref event.HandlerRef, eb *event.Block) event.Verdict {
	opID := -1
	if eb != nil && eb.User != nil {
		if v, ok := eb.User["op"].(int); ok {
			opID = v
		}
	}
	idx, _ := strconv.Atoi(ref.Data["idx"])
	if opID >= 0 {
		k := runKey(opID, ref.Data["w"])
		h.mu.Lock()
		h.runs[k] = append(h.runs[k], idx)
		h.mu.Unlock()
	}
	if ref.Data["mode"] == "consume" {
		return event.VerdictResume
	}
	return event.VerdictPropagate
}

func (h *harness) violate(inv string, opID int, detail string) {
	h.mu.Lock()
	h.violations = append(h.violations, Violation{Invariant: inv, Op: opID, Detail: detail})
	h.mu.Unlock()
}

// step launches the operation on its own goroutine, advances virtual
// time by the step's fixed settle budget, and then waits for the
// operation to finish — advancing further only if it still needs
// virtual time (e.g. it is riding a timeout) — before auditing the
// invariants.
func (h *harness) step(i int, o op) {
	done := make(chan string, 1)
	go func() { done <- h.perform(i, o) }()
	h.v.Advance(o.settle)
	var out string
	extra := 0
wait:
	for {
		select {
		case out = <-done:
			break wait
		case <-time.After(opGrace):
			if extra >= extraChunkMax {
				out = "stuck"
				h.violate("op-stuck", i, o.describe()+" did not finish within the virtual budget")
				break wait
			}
			h.v.Advance(extraChunk)
			extra++
		}
	}
	h.mu.Lock()
	h.outcomes = append(h.outcomes, fmt.Sprintf("%03d %-20s -> %s", i, o.describe(), out))
	h.mu.Unlock()
	h.checkStep(i, o)
}

// perform executes one schedule step. It runs off the main goroutine
// (the main goroutine is busy advancing the clock), so any kernel call
// that needs virtual time to pass is safe here.
func (h *harness) perform(i int, o op) string {
	switch o.kind {
	case opAsync:
		w := h.workerAt(o.worker)
		err := h.sys.Raise(ids.NodeID(o.node), event.Interrupt, event.ToThread(w.tid),
			map[string]any{"op": i})
		if err != nil {
			return "err"
		}
		return "ok"
	case opSync:
		w := h.workerAt(o.worker)
		v, err := h.sys.RaiseAndWait(ids.NodeID(o.node), event.Interrupt, event.ToThread(w.tid),
			map[string]any{"op": i})
		if err != nil {
			return "err"
		}
		return v.String()
	case opGroup:
		h.mu.Lock()
		gid := h.gid
		h.mu.Unlock()
		if err := h.sys.Raise(1, event.Interrupt, event.ToGroup(gid), map[string]any{"op": i}); err != nil {
			return "err"
		}
		return "ok"
	case opLockClean:
		node := ids.NodeID(o.node)
		hd, err := h.sys.Spawn(node, h.objs[node], "locker", o.lock, "clean", i)
		if err != nil {
			return "spawn-err"
		}
		if _, err := hd.Wait(); err != nil {
			return "err"
		}
		return "released"
	case opLockTerm:
		node := ids.NodeID(o.node)
		hd, err := h.sys.Spawn(node, h.objs[node], "locker", o.lock, "hold", i)
		if err != nil {
			return "spawn-err"
		}
		tid := h.waitLocker(i)
		if tid == ids.NoThread {
			return "no-lock"
		}
		if err := h.sys.Raise(1, event.Terminate, event.ToThread(tid), nil); err != nil {
			return "term-raise-err"
		}
		_, _ = hd.Wait() // the TERMINATE default kills the holder
		return "terminated"
	case opLockCrash:
		node := ids.NodeID(o.node)
		_, err := h.sys.Spawn(node, h.objs[node], "locker", o.lock, "hold", i)
		if err != nil {
			return "spawn-err"
		}
		if tid := h.waitLocker(i); tid == ids.NoThread {
			return "no-lock"
		}
		if err := h.sys.CrashNode(node); err != nil {
			return "crash-err"
		}
		h.markCrashed(o.node)
		h.captureDurable(i, o.node)
		return "crashed"
	case opCrash:
		if err := h.sys.CrashNode(ids.NodeID(o.node)); err != nil {
			return "crash-err"
		}
		h.markCrashed(o.node)
		h.captureDurable(i, o.node)
		return "crashed"
	case opRestart:
		if err := h.sys.RestartNode(ids.NodeID(o.node)); err != nil {
			return "restart-err"
		}
		h.mu.Lock()
		delete(h.crashed, o.node)
		// A restarted node runs a fresh detector incarnation; its
		// generation counter starts over.
		delete(h.lastGen, ids.NodeID(o.node))
		h.mu.Unlock()
		h.checkDurableRecovery(i, o.node)
		return "restarted"
	case opSever:
		h.sys.CutLink(ids.NodeID(o.node), ids.NodeID(o.node2))
		h.sys.CutLink(ids.NodeID(o.node2), ids.NodeID(o.node))
		return "severed"
	case opHeal:
		h.sys.HealAll()
		return "healed"
	default:
		return "unknown"
	}
}

func (h *harness) workerAt(w int) simWorker {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.workers[w]
}

func (h *harness) markCrashed(node int) {
	h.mu.Lock()
	h.crashed[node] = true
	for w := range h.workers {
		if h.workers[w].node == ids.NodeID(node) {
			h.dead[w] = true
		}
	}
	h.mu.Unlock()
}

// captureDurable records, at the instant of a crash (the WAL is already
// closed, so the disk is frozen), the state a replay of the victim's log
// recovers: the oracle the restarted node is held against. The injected
// durability bugs strike right after the capture — the disk loses what it
// had promised to keep, and the restart replays what is left.
func (h *harness) captureDurable(opID, node int) {
	if !h.sc.Durable {
		return
	}
	ds, err := h.sys.DurableSnapshot(ids.NodeID(node))
	if err != nil {
		h.violate("durable-replay", opID, fmt.Sprintf("node %d: disk state unreadable at crash: %v", node, err))
		return
	}
	h.mu.Lock()
	h.durSnap[node] = ds
	h.mu.Unlock()

	dir := filepath.Join(h.datadir, fmt.Sprintf("node-%d", node))
	switch h.sc.Bug {
	case BugWALSkipFsync:
		err = dropTailFrames(dir, 8)
	case BugWALStaleSnapshot:
		err = dropSegmentsAfterSnapshot(dir)
	}
	if err != nil {
		h.violate("durable-replay", opID, fmt.Sprintf("node %d: disk fault injection failed: %v", node, err))
	}
}

// checkDurableRecovery diffs what the restarted node actually recovered
// against the crash-time capture; any non-empty diff is a durable-replay
// violation (lines lost by recovery are -prefixed, invented ones +).
func (h *harness) checkDurableRecovery(opID, node int) {
	if !h.sc.Durable {
		return
	}
	h.mu.Lock()
	want := h.durSnap[node]
	delete(h.durSnap, node)
	h.mu.Unlock()
	if want == nil {
		return // crash was never observed (crash-err path)
	}
	got, err := h.sys.LastRecovered(ids.NodeID(node))
	if err != nil || got == nil {
		h.violate("durable-replay", opID, fmt.Sprintf("node %d: recovered state unreadable: %v", node, err))
		return
	}
	if diff := want.Diff(got); len(diff) != 0 {
		h.violate("durable-replay", opID,
			fmt.Sprintf("node %d recovery diverges from disk: %s", node, strings.Join(diff, " | ")))
	}
}

// waitLocker polls (in real time, while the main goroutine advances the
// clock) until the op's locker thread reports it holds the lock.
func (h *harness) waitLocker(opID int) ids.ThreadID {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		h.mu.Lock()
		tid := h.lockers[opID]
		h.mu.Unlock()
		if tid != ids.NoThread {
			return tid
		}
		time.Sleep(500 * time.Microsecond)
	}
	return ids.NoThread
}

// checkStep audits the invariants that must hold after every step.
func (h *harness) checkStep(i int, o op) {
	h.checkChains(i)
	h.checkGens(i)
	if o.quiet {
		switch o.kind {
		case opAsync, opSync:
			h.checkComplete(i, []int{o.worker})
		case opGroup:
			h.checkComplete(i, h.aliveWorkerIdx())
		}
	}
}

func (h *harness) aliveWorkerIdx() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []int
	for w := range h.workers {
		if !h.dead[w] {
			out = append(out, w)
		}
	}
	return out
}

// checkChains audits every recorded delivery: no handler link may run
// twice for one (op, worker) delivery, and the links must run in LIFO
// attachment order depth-1, depth-2, …, ending at the consuming link 0.
func (h *harness) checkChains(atOp int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	top := h.sc.ChainDepth - 1
	for k, seq := range h.runs {
		for j, idx := range seq {
			want := top - (j % h.sc.ChainDepth)
			if idx != want {
				if j > 0 && idx == seq[j-1] {
					h.violations = append(h.violations, Violation{
						Invariant: "exactly-once", Op: atOp,
						Detail: fmt.Sprintf("%s: link %d ran twice (sequence %v)", k, idx, seq),
					})
				} else {
					h.violations = append(h.violations, Violation{
						Invariant: "chain-lifo", Op: atOp,
						Detail: fmt.Sprintf("%s: link %d ran out of order, want %d (sequence %v)", k, idx, want, seq),
					})
				}
				return
			}
		}
		if len(seq) > h.sc.ChainDepth {
			h.violations = append(h.violations, Violation{
				Invariant: "exactly-once", Op: atOp,
				Detail: fmt.Sprintf("%s: delivered %d handler runs for a chain of %d", k, len(seq), h.sc.ChainDepth),
			})
			return
		}
	}
}

// checkComplete requires a quiet-window delivery to have walked the full
// chain on every listed worker by the end of its own step.
func (h *harness) checkComplete(opID int, ws []int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, w := range ws {
		k := runKey(opID, workerLabel(w))
		if len(h.runs[k]) != h.sc.ChainDepth {
			h.violations = append(h.violations, Violation{
				Invariant: "completeness", Op: opID,
				Detail: fmt.Sprintf("%s: got %d of %d handler runs in a fault-free window", k, len(h.runs[k]), h.sc.ChainDepth),
			})
		}
	}
}

// checkGens asserts each live detector's membership generation is
// monotone. Crashed nodes are skipped; restarts reset the floor.
func (h *harness) checkGens(atOp int) {
	h.mu.Lock()
	crashed := make(map[int]bool, len(h.crashed))
	for n := range h.crashed {
		crashed[n] = true
	}
	h.mu.Unlock()
	for n := 1; n <= h.sc.Nodes; n++ {
		if crashed[n] {
			continue
		}
		m, err := h.sys.MembershipAt(ids.NodeID(n))
		if err != nil {
			continue
		}
		h.mu.Lock()
		if last, ok := h.lastGen[ids.NodeID(n)]; ok && m.Gen < last {
			h.violations = append(h.violations, Violation{
				Invariant: "membership-gen", Op: atOp,
				Detail: fmt.Sprintf("node %d generation went backwards: %d -> %d", n, last, m.Gen),
			})
		}
		h.lastGen[ids.NodeID(n)] = m.Gen
		h.mu.Unlock()
	}
}

// finalPhase heals every fault, restarts every crashed node, gives the
// cluster a long convergence window, and audits the terminal state.
func (h *harness) finalPhase(nOps int) {
	h.sys.HealAll()
	h.mu.Lock()
	var down []int
	for n := range h.crashed {
		down = append(down, n)
	}
	h.mu.Unlock()
	sort.Ints(down)
	for _, n := range down {
		if err := h.sys.RestartNode(ids.NodeID(n)); err == nil {
			h.mu.Lock()
			delete(h.crashed, n)
			delete(h.lastGen, ids.NodeID(n))
			h.mu.Unlock()
			h.checkDurableRecovery(-1, n)
		}
	}
	h.v.Advance(finalWindow)

	h.checkChains(-1)
	h.checkGens(-1)
	h.checkOrphanLocks()
	h.checkConverge()
	h.checkQoSShed()
	_ = nOps
}

// checkQoSShed is the §15 safety net: admission control may shed tenant
// work under overload, but a shed system- or control-class message would
// mean lost protocol traffic or an unkillable thread. The per-class shed
// counters must read zero at the end of every schedule (trivially so
// with QoS off, where the counters never exist).
func (h *harness) checkQoSShed() {
	snap := h.sys.Metrics().Snapshot()
	for _, cls := range []transport.Class{transport.ClassSystem, transport.ClassControl} {
		if n := snap[metrics.DispatchQShed(cls.Name())]; n != 0 {
			h.violate("qos-shed", -1, fmt.Sprintf("%d %s-class messages shed by admission", n, cls.Name()))
		}
	}
}

// checkOrphanLocks is the §4.2 safety net: after full convergence no
// lock may still be held by a thread that no longer exists — either the
// chained TERMINATE unlock or the crash-recovery sweep must have freed
// it.
func (h *harness) checkOrphanLocks() {
	obj, err := h.sys.LookupObject(h.lockSrv)
	if err != nil {
		h.violate("orphan-lock", -1, fmt.Sprintf("lock server unreadable: %v", err))
		return
	}
	for name, tid := range locks.HeldLocks(obj.SnapshotKV()) {
		hd := h.sys.HandleOf(tid)
		dead := hd == nil
		if hd != nil {
			select {
			case <-hd.Done():
				dead = true
			default:
			}
		}
		if dead {
			h.mu.Lock()
			label := h.tidLabel[tid]
			h.mu.Unlock()
			h.violate("orphan-lock", -1,
				fmt.Sprintf("lock %s still held by terminated thread %s", name, label))
		}
	}
}

// checkConverge requires every node's detector view to agree the whole
// cluster is alive once all faults are healed.
func (h *harness) checkConverge() {
	for n := 1; n <= h.sc.Nodes; n++ {
		m, err := h.sys.MembershipAt(ids.NodeID(n))
		if err != nil {
			h.violate("membership-converge", -1, fmt.Sprintf("node %d view unreadable: %v", n, err))
			continue
		}
		if len(m.Suspected) != 0 || len(m.Alive) != h.sc.Nodes {
			h.violate("membership-converge", -1,
				fmt.Sprintf("node %d sees alive=%d suspected=%d after heal, want alive=%d suspected=0",
					n, len(m.Alive), len(m.Suspected), h.sc.Nodes))
		}
	}
}
