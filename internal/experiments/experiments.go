// Package experiments regenerates every table of EXPERIMENTS.md: the
// paper's §5.3 addressing matrix (its only table) plus the quantified
// design-claim experiments E2–E9 described in DESIGN.md. Each Run function
// builds fresh systems, drives the workload, reads the metric counters and
// returns a formatted Table; cmd/benchtab prints them and the root
// bench_test.go wraps them in testing.B benchmarks.
package experiments

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/locate"
	"repro/internal/metrics"
	"repro/internal/object"
)

// Table is one experiment's output.
type Table struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// waitLong bounds experiment waits.
const waitLong = 30 * time.Second

// wireOverride, when non-nil, replaces the wire configuration of every
// system mustSystem boots. The differential codec test uses it to rerun the
// E1–E9 scenarios under the legacy full-snapshot configuration and assert
// the optimized wire changes no observable protocol behavior.
var wireOverride *core.WireConfig

// seedOverride, when non-zero, seeds the fabric of every system mustSystem
// boots. benchtab's -seed flag sets it so a whole experiment sweep can be
// rerun under a different (but still reproducible) jitter/drop schedule.
var seedOverride int64

// SetSeed overrides the fabric seed for subsequently booted experiment
// systems; zero restores the netsim default.
func SetSeed(seed int64) { seedOverride = seed }

func mustSystem(cfg core.Config) *core.System {
	if wireOverride != nil {
		cfg.Wire = *wireOverride
	}
	if seedOverride != 0 && cfg.Seed == 0 {
		cfg.Seed = seedOverride
	}
	if cfg.CallTimeout == 0 {
		cfg.CallTimeout = 10 * time.Second
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: boot: %v", err))
	}
	return sys
}

func itoa(n int) string   { return strconv.Itoa(n) }
func i64(n int64) string  { return strconv.FormatInt(n, 10) }
func f2(f float64) string { return strconv.FormatFloat(f, 'f', 2, 64) }
func usec(d time.Duration) string {
	return strconv.FormatFloat(float64(d.Microseconds()), 'f', 0, 64) + "us"
}

// sleeperSpec parks a thread until terminated, announcing its tid.
func sleeperSpec(started chan<- ids.ThreadID) object.Spec {
	return object.Spec{
		Name: "sleeper",
		Entries: map[string]object.Entry{
			"sleep": func(ctx object.Ctx, _ []any) ([]any, error) {
				if started != nil {
					started <- ctx.Thread()
				}
				return nil, ctx.Sleep(time.Hour)
			},
		},
	}
}

// RunE1 reproduces the paper's §5.3 table: the six raise calls, their
// recipient classes, and whether the raiser blocks until a handler
// resumes it. Every cell is measured, not asserted.
func RunE1() Table {
	t := Table{
		ID:    "E1",
		Title: "raise/raise_and_wait addressing matrix (paper §5.3, Table 1)",
		Headers: []string{
			"call", "recipient of event e", "raiser blocked", "recipients reached",
		},
	}

	// A system with one sleeping target thread, a 3-member group and a
	// passive object with an INTERRUPT handler.
	sys := mustSystem(core.Config{Nodes: 3})
	defer sys.Close()
	if err := sys.RegisterProc("e1.noop", func(_ object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
		return event.VerdictResume
	}); err != nil {
		panic(err)
	}

	started := make(chan ids.ThreadID, 8)
	gidCh := make(chan ids.GroupID, 1)
	var workerObj ids.ObjectID
	spec := object.Spec{
		Name: "member",
		Entries: map[string]object.Entry{
			"root": func(ctx object.Ctx, _ []any) ([]any, error) {
				if err := ctx.RegisterEvent("E1EV"); err != nil {
					return nil, err
				}
				gid, err := ctx.CreateGroup()
				if err != nil {
					return nil, err
				}
				if err := ctx.AttachHandler(event.HandlerRef{Event: "E1EV", Kind: event.KindProc, Proc: "e1.noop"}); err != nil {
					return nil, err
				}
				gidCh <- gid
				for i := 0; i < 2; i++ {
					if _, err := ctx.InvokeAsync(workerObj, "wait"); err != nil {
						return nil, err
					}
				}
				started <- ctx.Thread()
				return nil, ctx.Sleep(time.Hour)
			},
			"wait": func(ctx object.Ctx, _ []any) ([]any, error) {
				started <- ctx.Thread()
				return nil, ctx.Sleep(time.Hour)
			},
		},
	}
	var err error
	workerObj, err = sys.CreateObject(1, spec)
	if err != nil {
		panic(err)
	}
	if _, err := sys.Spawn(1, workerObj, "root"); err != nil {
		panic(err)
	}
	gid := <-gidCh
	var rootTID ids.ThreadID
	for i := 0; i < 3; i++ {
		tid := <-started
		if tid.Seq() == 1 {
			rootTID = tid
		}
	}
	time.Sleep(30 * time.Millisecond)

	obj, err := sys.CreateObject(2, object.Spec{
		Name: "passive",
		Handlers: map[event.Name]object.Handler{
			event.Interrupt: func(_ object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
				return event.VerdictResume
			},
		},
	})
	if err != nil {
		panic(err)
	}

	delivered := func(before metrics.Snapshot) int64 {
		// Deliveries are asynchronous for raise; settle briefly.
		deadline := time.Now().Add(waitLong)
		for {
			d := sys.Metrics().Snapshot().Diff(before).Get(metrics.CtrEventDelivered)
			if d > 0 || time.Now().After(deadline) {
				time.Sleep(20 * time.Millisecond)
				return sys.Metrics().Snapshot().Diff(before).Get(metrics.CtrEventDelivered)
			}
			time.Sleep(time.Millisecond)
		}
	}

	addRow := func(call, recipient string, blocked bool, reached int64) {
		t.Rows = append(t.Rows, []string{call, recipient, fmt.Sprintf("%v", blocked), i64(reached)})
	}

	// raise(e, tid)
	before := sys.Metrics().Snapshot()
	if err := sys.Raise(3, "E1EV", event.ToThread(rootTID), nil); err != nil {
		panic(err)
	}
	addRow("raise(e,tid)", "Thread tid", false, delivered(before))

	// raise(e, gtid)
	before = sys.Metrics().Snapshot()
	if err := sys.Raise(3, "E1EV", event.ToGroup(gid), nil); err != nil {
		panic(err)
	}
	addRow("raise(e,gtid)", "Threads in group gtid", false, delivered(before))

	// raise(e, oid)
	before = sys.Metrics().Snapshot()
	if err := sys.Raise(3, event.Interrupt, event.ToObject(obj), nil); err != nil {
		panic(err)
	}
	addRow("raise(e,oid)", "Object oid", false, delivered(before))

	// raise_and_wait(e, tid): returns only after the handler ran, so the
	// delivered counter moved by the time the call returns.
	before = sys.Metrics().Snapshot()
	if _, err := sys.RaiseAndWait(3, "E1EV", event.ToThread(rootTID), nil); err != nil {
		panic(err)
	}
	d := sys.Metrics().Snapshot().Diff(before).Get(metrics.CtrEventDelivered)
	addRow("raise_and_wait(e,tid)", "Thread tid, synchronously", d >= 1, d)

	// raise_and_wait(e, gtid)
	before = sys.Metrics().Snapshot()
	if _, err := sys.RaiseAndWait(3, "E1EV", event.ToGroup(gid), nil); err != nil {
		panic(err)
	}
	d = sys.Metrics().Snapshot().Diff(before).Get(metrics.CtrEventDelivered)
	addRow("raise_and_wait(e,gtid)", "Threads of group gtid, synchronously", d >= 3, d)

	// raise_and_wait(e, oid)
	before = sys.Metrics().Snapshot()
	if _, err := sys.RaiseAndWait(3, event.Interrupt, event.ToObject(obj), nil); err != nil {
		panic(err)
	}
	d = sys.Metrics().Snapshot().Diff(before).Get(metrics.CtrEventDelivered)
	addRow("raise_and_wait(e,oid)", "Object oid, synchronously", d >= 1, d)

	t.Notes = append(t.Notes,
		"raiser blocked = the call returned only after handler completion (measured via the delivered counter)",
		"group rows reach 3 recipients: root + 2 asynchronously spawned members")
	return t
}

// RunE2 measures thread-location cost for the three §7.1 strategies — plus
// their location-cache wrappings — as a function of cluster size n and
// invocation path depth d. Each delivery is measured twice: cold (first
// contact, the cache empty) and warm (the thread has not moved since); the
// warm column is where the cache earns its keep, locating with zero remote
// probes.
func RunE2(clusterSizes, depths []int) Table {
	t := Table{
		ID:    "E2",
		Title: "thread location cost (probes per delivery) — paper §7.1",
		Headers: []string{
			"strategy", "n nodes", "path depth", "remote probes", "msgs/delivery",
			"warm probes", "cache h/m/s",
		},
	}
	if len(clusterSizes) == 0 {
		clusterSizes = []int{4, 8, 16, 32}
	}
	if len(depths) == 0 {
		depths = []int{1, 2, 4, 8}
	}
	// Factories, not instances: a Cache carries per-system state (the
	// tid → node map), so every system boot needs a fresh strategy value.
	type strat struct {
		name string
		mk   func() locate.Strategy
	}
	strategies := []strat{
		{"broadcast", func() locate.Strategy { return locate.Broadcast{} }},
		{"path-follow", func() locate.Strategy { return locate.PathFollow{} }},
		{"multicast", func() locate.Strategy { return locate.Multicast{} }},
		{"cached+broadcast", func() locate.Strategy { return locate.NewCache(locate.Broadcast{}, 0) }},
		{"cached+path-follow", func() locate.Strategy { return locate.NewCache(locate.PathFollow{}, 0) }},
		{"cached+multicast", func() locate.Strategy { return locate.NewCache(locate.Multicast{}, 0) }},
	}
	for _, st := range strategies {
		for _, n := range clusterSizes {
			for _, d := range depths {
				if d >= n {
					continue
				}
				cold, msgs, warm, hms := locateCost(st.mk, n, d)
				t.Rows = append(t.Rows, []string{
					st.name, itoa(n), itoa(d), i64(cold), i64(msgs), i64(warm), hms,
				})
			}
		}
	}
	t.Notes = append(t.Notes,
		"broadcast grows with n; path-follow grows with d; multicast is flat (claim of §7.1)",
		"msgs/delivery includes probe replies and the delivery post itself (cold delivery)",
		"warm probes = remote probes for a second delivery to the unmoved thread; 0 for cached strategies",
		"cache h/m/s = location-cache hit/miss/stale counters over both deliveries ('-' when uncached)")
	return t
}

// locateCost builds an n-node cluster, walks a thread through d hops, and
// measures the remote probes and messages of event deliveries raised from a
// node that never hosted the thread: one cold (first contact) and one warm
// (the thread has not moved since, so a location cache answers without
// probing). The thread is then terminated outside the measured window.
func locateCost(mk func() locate.Strategy, n, d int) (cold, msgs, warm int64, cacheHMS string) {
	s := mk()
	sys := mustSystem(core.Config{Nodes: n, Locator: s})
	defer sys.Close()
	if err := sys.RegisterProc("e2.noop", func(_ object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
		return event.VerdictResume
	}); err != nil {
		panic(err)
	}

	started := make(chan ids.ThreadID, 1)
	// Build a chain of objects on nodes 2..d+1; the deepest attaches a
	// no-op handler for the measured event and sleeps.
	var prev ids.ObjectID
	for i := d; i >= 1; i-- {
		node := ids.NodeID(i + 1)
		var spec object.Spec
		if i == d {
			spec = object.Spec{
				Name: "deepest",
				Entries: map[string]object.Entry{
					"fwd": func(ctx object.Ctx, _ []any) ([]any, error) {
						if err := ctx.RegisterEvent("E2EV"); err != nil {
							return nil, err
						}
						if err := ctx.AttachHandler(event.HandlerRef{Event: "E2EV", Kind: event.KindProc, Proc: "e2.noop"}); err != nil {
							return nil, err
						}
						started <- ctx.Thread()
						return nil, ctx.Sleep(time.Hour)
					},
				},
			}
		} else {
			next := prev
			spec = object.Spec{
				Name: "hop",
				Entries: map[string]object.Entry{
					"fwd": func(ctx object.Ctx, _ []any) ([]any, error) {
						return ctx.Invoke(next, "fwd")
					},
				},
			}
		}
		oid, err := sys.CreateObject(node, spec)
		if err != nil {
			panic(err)
		}
		prev = oid
	}
	h, err := sys.Spawn(1, prev, "fwd")
	if err != nil {
		panic(err)
	}
	<-started
	time.Sleep(20 * time.Millisecond)

	// Raise from the last node, which has never seen the thread.
	raiser := ids.NodeID(n)
	before := sys.Metrics().Snapshot()
	if err := sys.Raise(raiser, "E2EV", event.ToThread(h.TID()), nil); err != nil {
		panic(err)
	}
	time.Sleep(20 * time.Millisecond)
	coldDiff := sys.Metrics().Snapshot().Diff(before)
	cold = coldDiff.Get(metrics.CtrLocateProbe)
	msgs = coldDiff.Get(metrics.CtrMsgSent)

	warmBefore := sys.Metrics().Snapshot()
	if err := sys.Raise(raiser, "E2EV", event.ToThread(h.TID()), nil); err != nil {
		panic(err)
	}
	time.Sleep(20 * time.Millisecond)
	warm = sys.Metrics().Snapshot().Diff(warmBefore).Get(metrics.CtrLocateProbe)

	if _, cached := s.(*locate.Cache); cached {
		full := sys.Metrics().Snapshot().Diff(before)
		cacheHMS = fmt.Sprintf("%d/%d/%d",
			full.Get(metrics.CtrLocateCacheHit),
			full.Get(metrics.CtrLocateCacheMiss),
			full.Get(metrics.CtrLocateCacheStale))
	} else {
		cacheHMS = "-"
	}

	// Tear down deterministically, outside the measured window.
	if err := sys.Raise(raiser, event.Terminate, event.ToThread(h.TID()), nil); err != nil {
		panic(err)
	}
	if _, err := h.WaitTimeout(waitLong); err == nil {
		panic("thread survived terminate")
	}
	return cold, msgs, warm, cacheHMS
}

// RunE3 measures object event handling under the two §4.3 policies:
// spawn-per-event vs one master handler thread.
func RunE3(eventCounts []int) Table {
	t := Table{
		ID:    "E3",
		Title: "object-event handler policy: master thread vs spawn-per-event — paper §4.3",
		Headers: []string{
			"policy", "events", "threads created", "ns/event",
		},
	}
	if len(eventCounts) == 0 {
		eventCounts = []int{100, 1000}
	}
	for _, policy := range []object.HandlerPolicy{object.SpawnPerEvent, object.MasterThread} {
		for _, n := range eventCounts {
			created, perEvent := handlerPolicyCost(policy, n)
			t.Rows = append(t.Rows, []string{
				policy.String(), itoa(n), i64(created), i64(perEvent.Nanoseconds()),
			})
		}
	}
	t.Notes = append(t.Notes,
		"§4.3: a master handler thread 'eliminates thread-creation costs'")
	return t
}

func handlerPolicyCost(policy object.HandlerPolicy, n int) (created int64, perEvent time.Duration) {
	sys := mustSystem(core.Config{Nodes: 1})
	defer sys.Close()
	oid, err := sys.CreateObject(1, object.Spec{
		Name:   "target",
		Policy: policy,
		Handlers: map[event.Name]object.Handler{
			event.Interrupt: func(_ object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
				return event.VerdictResume
			},
		},
	})
	if err != nil {
		panic(err)
	}
	before := sys.Metrics().Snapshot()
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := sys.RaiseAndWait(1, event.Interrupt, event.ToObject(oid), nil); err != nil {
			panic(err)
		}
	}
	elapsed := time.Since(start)
	diff := sys.Metrics().Snapshot().Diff(before)
	return diff.Get(metrics.CtrThreadCreated), elapsed / time.Duration(n)
}

// RunE4 measures handler chaining: delivery cost vs chain depth, and the
// §4.2 lock-cleanup scenario cost vs lock count.
func RunE4(depths []int) Table {
	t := Table{
		ID:    "E4",
		Title: "handler chaining: walk cost vs depth — paper §4.2",
		Headers: []string{
			"chain depth", "links walked", "ns/delivery",
		},
	}
	if len(depths) == 0 {
		depths = []int{1, 4, 16, 64}
	}
	for _, c := range depths {
		links, per := chainCost(c)
		t.Rows = append(t.Rows, []string{itoa(c), i64(links), i64(per.Nanoseconds())})
	}
	t.Notes = append(t.Notes, "all handlers propagate; walk cost is linear in depth")
	return t
}

func chainCost(depth int) (links int64, perDelivery time.Duration) {
	sys := mustSystem(core.Config{Nodes: 1})
	defer sys.Close()
	if err := sys.RegisterProc("e4.prop", func(_ object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
		return event.VerdictPropagate
	}); err != nil {
		panic(err)
	}
	started := make(chan ids.ThreadID, 1)
	oid, err := sys.CreateObject(1, object.Spec{
		Name: "chained",
		Entries: map[string]object.Entry{
			"run": func(ctx object.Ctx, _ []any) ([]any, error) {
				if err := ctx.RegisterEvent("E4EV"); err != nil {
					return nil, err
				}
				for i := 0; i < depth; i++ {
					if err := ctx.AttachHandler(event.HandlerRef{Event: "E4EV", Kind: event.KindProc, Proc: "e4.prop"}); err != nil {
						return nil, err
					}
				}
				started <- ctx.Thread()
				return nil, ctx.Sleep(time.Hour)
			},
		},
	})
	if err != nil {
		panic(err)
	}
	h, err := sys.Spawn(1, oid, "run")
	if err != nil {
		panic(err)
	}
	tid := <-started
	time.Sleep(10 * time.Millisecond)

	const rounds = 50
	before := sys.Metrics().Snapshot()
	start := time.Now()
	for i := 0; i < rounds; i++ {
		// Propagating chains end at the default (ignore): the sync raise
		// reports unhandled, which is the expected outcome here.
		if _, err := sys.RaiseAndWait(1, "E4EV", event.ToThread(tid), nil); err != nil && !errors.Is(err, core.ErrUnhandledSync) {
			panic(err)
		}
	}
	elapsed := time.Since(start)
	_ = h
	diff := sys.Metrics().Snapshot().Diff(before)
	return diff.Get(metrics.CtrChainLinksWalked) / rounds, elapsed / rounds
}
