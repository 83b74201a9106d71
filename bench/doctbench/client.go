package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/object"
)

// phase is the run's shared clock: clients poll it to learn when the
// measured window opens and closes.
type phase struct {
	ws, we  atomic.Int64 // measured window, wall-clock ns; 0 until scheduled
	sliceNs int64
	stop    atomic.Bool
	start   chan struct{} // closed when every client is ready: load begins
	abort   chan struct{} // closed to abandon a set-up before load begins
}

func newPhase(sliceNs int64) *phase {
	return &phase{sliceNs: sliceNs, start: make(chan struct{}), abort: make(chan struct{})}
}

// slice reports which slice of the measured window the wall-clock instant w
// falls in, or -1 outside it.
func (p *phase) slice(w int64) int {
	ws := p.ws.Load()
	if ws == 0 || w < ws || w >= p.we.Load() {
		return -1
	}
	return int((w - ws) / p.sliceNs)
}

// samples is an append-only series of durations tagged with their slice.
type samples struct {
	ns    []int64
	slice []uint8
}

func (s *samples) add(ns int64, slice int) {
	s.ns = append(s.ns, ns)
	s.slice = append(s.slice, uint8(slice))
}

func (s *samples) reserve(n int) {
	s.ns = make([]int64, 0, n)
	s.slice = make([]uint8, 0, n)
}

// tally counts a client's successes per target over its whole life, for the
// exactly-once checks against the handler side.
type tally struct {
	obj, async, echo [maxNodes + 1]int64
	thread           []int64
	group            int64
}

// client is one load-generating DO/CT thread: closed-loop clients and the
// sim_open prober run loop, open-loop issuers run issue.
type client struct {
	c    *cluster
	ph   *phase
	node ids.NodeID
	plan []op
	in   *inputs

	serial bool // wait for each raise_async's handler before the next operation

	ready chan error
	done  chan struct{}

	lat       [nKinds]samples // measured-window latencies, completion order
	call      samples         // raise_async: time blocked inside Raise
	late      []int64         // open loop: issue time − due time
	queueMax  int             // open loop: deepest backlog of due events seen
	ok        tally
	attempted int64 // operations completed (or failed) inside the window
	failed    int64
	failedAll int64    // failures over the whole run, for the exactly-once tolerance
	echoBad   int64    // invoke replies that differed from their argument, whole run
	failures  []string // first few failures, for the report
}

func newClient(c *cluster, ph *phase, node ids.NodeID, plan []op, in *inputs) *client {
	cl := &client{c: c, ph: ph, node: node, plan: plan, in: in, ready: make(chan error, 1), done: make(chan struct{})}
	cl.ok.thread = make([]int64, len(c.threads))
	return cl
}

// spawn starts the client as a DO/CT thread on its node running body.
func (cl *client) spawn(driver ids.ObjectID, body string) error {
	_, err := cl.c.hosts[0].sys.Spawn(cl.node, driver, body, cl)
	return err
}

// driverSpec is the object client threads are rooted in: its entries are
// the benchmark's own loops.
func driverSpec() object.Spec {
	entry := func(f func(*client, object.Ctx)) object.Entry {
		return func(ctx object.Ctx, args []any) ([]any, error) {
			cl := args[0].(*client)
			defer close(cl.done)
			f(cl, ctx)
			return nil, nil
		}
	}
	return object.Spec{Name: "bench-driver", Entries: map[string]object.Entry{
		"loop":  entry((*client).loop),
		"issue": entry((*client).issue),
	}}
}

// do performs one operation and checks its output.
func (cl *client) do(ctx object.Ctx, o op, t0 time.Time) error {
	tg := cl.c.targets[o.target]
	switch o.kind {
	case kRaiseObj:
		return ctx.RaiseAndWait(event.Interrupt, event.ToObject(tg.Obj), nil)
	case kRaiseThread:
		return ctx.RaiseAndWait(evChain, event.ToThread(cl.c.threads[o.thread]), nil)
	case kInvoke:
		arg := cl.in.payloads[o.payload]
		res, err := ctx.Invoke(tg.Echo, "echo", arg)
		if err != nil {
			return err
		}
		if got, _ := res[0].([]byte); len(res) != 1 || !bytes.Equal(got, arg) {
			return errEcho
		}
		return nil
	case kRaiseGroup:
		return ctx.RaiseAndWait(evGroup, event.ToGroup(cl.c.group), nil)
	case kRaiseAsync:
		return ctx.Raise(event.Interrupt, event.ToObject(tg.Async), map[string]any{"due": t0.UnixNano()})
	}
	return fmt.Errorf("unknown op kind %d", o.kind)
}

var errEcho = errors.New("invoke reply differs from its argument")

// count records a success against its target.
func (cl *client) count(o op) {
	switch o.kind {
	case kRaiseObj:
		cl.ok.obj[o.target]++
	case kRaiseThread:
		cl.ok.thread[o.thread]++
	case kInvoke:
		cl.ok.echo[o.target]++
	case kRaiseGroup:
		cl.ok.group++
	case kRaiseAsync:
		cl.ok.async[o.target]++
	}
}

func (cl *client) fail(o op, err error) {
	cl.failed++
	if len(cl.failures) < 4 {
		cl.failures = append(cl.failures, fmt.Sprintf("%s from %v: %v", kindNames[o.kind], cl.node, err))
	}
}

// warm completes one operation of every kind against every target the
// client will use, retrying while the cluster is still coming up.
func (cl *client) warm(ctx object.Ctx) error {
	ops := cl.plan
	if cl.c.spec.open {
		// The prober's plan has no raise_async; the issuers' targets are
		// warmed here.
		for n := 1; n <= cl.c.spec.nodes; n++ {
			ops = append(ops[:len(ops):len(ops)], op{kind: kRaiseAsync, target: ids.NodeID(n)})
		}
	}
	seen := map[op]bool{}
	for _, o := range ops {
		// Reduce the op to what names its target.
		key := op{kind: o.kind}
		switch o.kind {
		case kRaiseThread:
			key.thread = o.thread
		case kRaiseGroup:
		default:
			key.target = o.target
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		for deadline := time.Now().Add(callTimeout); ; {
			err := cl.do(ctx, o, time.Now())
			if err == nil {
				cl.count(o)
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("warming %s: %w", kindNames[o.kind], err)
			}
			select {
			case <-cl.ph.abort:
				return errors.New("set-up abandoned")
			case <-time.After(time.Millisecond):
			}
		}
	}
	return nil
}

// await reports readiness and blocks until load begins; false = abandoned.
func (cl *client) await(err error) bool {
	cl.ready <- err
	if err != nil {
		return false
	}
	select {
	case <-cl.ph.start:
		return true
	case <-cl.ph.abort:
		return false
	}
}

// loop is the closed loop: the next operation starts when the previous one
// returns.
func (cl *client) loop(ctx object.Ctx) {
	if !cl.await(cl.warm(ctx)) {
		return
	}
	tc := cl.c.tap
	if cl.c.spec.open {
		tc = nil // concurrent load: messages cannot be attributed to one operation
	}
	for i := 0; !cl.ph.stop.Load(); i++ {
		o := cl.plan[i%len(cl.plan)]
		if tc != nil {
			tc.beginOp(kindNames[o.kind])
		}
		t0 := time.Now()
		err := cl.do(ctx, o, t0)
		if err != nil {
			cl.failedAll++
			if errors.Is(err, errEcho) {
				cl.echoBad++
			}
		} else {
			cl.count(o)
			if cl.serial && o.kind == kRaiseAsync {
				cl.awaitHandler()
			}
		}
		t1 := time.Now()
		if tc != nil {
			tc.endOp()
		}
		s := cl.ph.slice(t1.UnixNano())
		if s < 0 {
			continue
		}
		cl.attempted++
		if err != nil {
			cl.fail(o, err)
			continue
		}
		d := t1.Sub(t0).Nanoseconds()
		if o.kind == kRaiseAsync {
			// The caller-blocked clock; due → handler return is taken at
			// the handler.
			cl.call.add(d, s)
		} else {
			cl.lat[o.kind].add(d, s)
		}
	}
}

// awaitHandler blocks until every raise_async this client has had accepted
// was handled. Only the traced pass (one client, every System in this
// process) uses it, to make an asynchronous raise one bounded span.
func (cl *client) awaitHandler() {
	var want int64
	for _, n := range cl.ok.async {
		want += n
	}
	for deadline := time.Now().Add(callTimeout); time.Now().Before(deadline); runtime.Gosched() {
		var got int64
		for n := range cl.c.sink.async {
			got += cl.c.sink.async[n].Load()
		}
		if got >= want {
			return
		}
	}
}

// openLoop is the schedule the issuer pool shares.
type openLoop struct {
	events []openEvent
	next   atomic.Int64
	t0     atomic.Int64 // wall ns of schedule time zero; set when load begins
	mu     sync.Mutex
	missed int64 // events due inside the window never issued
}

// issue is one open-loop issuer: take the next scheduled event, wait until
// it is due, raise it. Latency is counted from the due time at the handler;
// here only the caller-blocked time and the generator's lateness are taken.
func (cl *client) issue(ctx object.Ctx) {
	if !cl.await(nil) {
		return
	}
	ol := cl.c.open
	others := cl.c.spec.targetNodes(cl.node)
	t0 := ol.t0.Load()
	for {
		i := int(ol.next.Add(1)) - 1
		if i >= len(ol.events) {
			return
		}
		ev := ol.events[i]
		due := t0 + ev.due
		if cl.ph.stop.Load() {
			if cl.ph.slice(due) >= 0 {
				ol.mu.Lock()
				ol.missed++
				ol.mu.Unlock()
			}
			continue
		}
		if d := due - time.Now().UnixNano(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		o := op{kind: kRaiseAsync, target: others[ev.shift]}
		start := time.Now()
		err := ctx.Raise(event.Interrupt, event.ToObject(cl.c.targets[o.target].Async), map[string]any{"due": due})
		end := time.Now()
		if err != nil {
			cl.failedAll++
		} else {
			cl.count(o)
		}
		s := cl.ph.slice(due)
		if s < 0 {
			continue
		}
		cl.attempted++
		if err != nil {
			cl.fail(o, err)
			continue
		}
		cl.call.add(end.Sub(start).Nanoseconds(), s)
		cl.late = append(cl.late, start.UnixNano()-due)
		// Backlog: events already due when this one was issued.
		rel := start.UnixNano() - t0
		if q := sort.Search(len(ol.events)-i, func(j int) bool { return ol.events[i+j].due > rel }) - 1; q > cl.queueMax {
			cl.queueMax = q
		}
	}
}
