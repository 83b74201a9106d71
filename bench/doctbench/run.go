package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/ids"
	"repro/internal/metrics"
)

// runOpts shapes one run of one workload.
type runOpts struct {
	seed    int64
	window  time.Duration // measured window
	warmup  time.Duration // discarded load before the window
	setups  int           // set-ups timed; all but the last are torn down again
	clients int           // closed-loop clients
	inproc  bool          // host every System in this process (tcp_closed's node too)
	tap     bool          // put the tap between kernel and transport; needs inproc
	serial  bool          // clients wait for each raise_async's handler
}

// run is everything one run leaves behind for the metric code.
type run struct {
	spec    *workloadSpec
	opts    runOpts
	c       *cluster
	clients []*client
	setupS  []float64      // seconds per set-up
	edges   []procSnap     // cumulative state of all processes at every slice edge
	final   procSnap       // after the drain, with the raise_async samples
	loadS   float64        // warm-up + window + drain, wall clock
	checks  []string       // output checks that failed
	win     *windowSamples // the samples regrouped by slice, built on first use
}

const (
	sliceLen   = time.Second // the window is cut into slices; metrics are medians over them
	drainLimit = 5 * time.Second
	openGrace  = 250 * time.Millisecond
)

// snapshot returns the cumulative state of every process of the workload.
func (c *cluster) snapshot(mem bool) (procSnap, error) {
	ps := snapProcess(c.hosts, c.sink, mem, false)
	if c.child != nil {
		cs, err := c.child.snap(mem)
		if err != nil {
			return ps, err
		}
		ps.add(cs)
	}
	return ps, nil
}

// setUp boots the topology and starts the clients, which each complete one
// operation of every kind before reporting ready. It returns when the
// cluster is ready for load.
func setUp(spec *workloadSpec, o runOpts, in *inputs, nodes []ids.NodeID, ph *phase) (*cluster, []*client, error) {
	// Room for every raise_async of the run: the whole schedule, or a closed
	// loop's fastest plausible rate.
	asyncCap := len(in.schedule) + 20000*int(o.window.Seconds()+5)
	c, err := boot(spec, o.inproc, o.tap, asyncCap)
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*cluster, []*client, error) {
		close(ph.abort)
		c.close()
		return nil, nil, err
	}
	sys := c.hosts[0].sys
	drivers := map[ids.NodeID]ids.ObjectID{}
	driverOn := func(n ids.NodeID) (ids.ObjectID, error) {
		if d, ok := drivers[n]; ok {
			return d, nil
		}
		d, err := sys.CreateObject(n, driverSpec())
		drivers[n] = d
		return d, err
	}
	var clients []*client
	for i, n := range nodes {
		d, err := driverOn(n)
		if err != nil {
			return fail(err)
		}
		cl := newClient(c, ph, n, in.plans[i], in)
		cl.serial = o.serial
		if err := cl.spawn(d, "loop"); err != nil {
			return fail(err)
		}
		clients = append(clients, cl)
	}
	if spec.open {
		c.open = &openLoop{events: in.schedule}
		for i := 0; i < openIssuers; i++ {
			n := ids.NodeID(1 + i%spec.nodes)
			d, err := driverOn(n)
			if err != nil {
				return fail(err)
			}
			cl := newClient(c, ph, n, nil, in)
			if err := cl.spawn(d, "issue"); err != nil {
				return fail(err)
			}
			clients = append(clients, cl)
		}
	}
	for _, cl := range clients {
		if err := <-cl.ready; err != nil {
			return fail(err)
		}
	}
	// Membership converged: every local detector sees every node alive.
	for deadline := time.Now().Add(callTimeout); ; time.Sleep(time.Millisecond) {
		err := converged(c)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fail(err)
		}
	}
	return c, clients, nil
}

// converged reports whether every in-process failure detector sees the whole
// cluster alive.
func converged(c *cluster) error {
	for _, h := range c.hosts {
		for _, n := range h.nodes {
			m, err := h.sys.MembershipAt(n)
			if err != nil {
				return err
			}
			if len(m.Suspected) != 0 || len(m.Alive) != c.spec.nodes {
				return fmt.Errorf("membership at %v has not converged: %+v", n, m)
			}
		}
	}
	return nil
}

// execute performs one run: timed set-ups, warm-up, the measured window cut
// into slices, the drain, and the output checks.
func execute(spec *workloadSpec, o runOpts) (*run, error) {
	// The window is whole slices: an operation completing in a ragged end
	// would belong to no slice.
	if o.window > sliceLen {
		o.window = o.window.Truncate(sliceLen)
	}
	r := &run{spec: spec, opts: o}
	nodes := spec.closedClients(o.clients)
	kinds := allKinds
	if spec.open {
		nodes = []ids.NodeID{1} // the prober
		kinds = syncKinds
	}
	horizon := (o.warmup + o.window + time.Second).Seconds()
	in := generate(spec, o.seed, nodes, kinds, horizon)

	var ph *phase
	for k := 0; k < o.setups; k++ {
		ph = newPhase(min(sliceLen, o.window).Nanoseconds())
		t := time.Now()
		c, clients, err := setUp(spec, o, in, nodes, ph)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setupS = append(r.setupS, time.Since(t).Seconds())
		if k < o.setups-1 {
			close(ph.abort)
			for _, cl := range clients {
				<-cl.done
			}
			if err := c.close(); err != nil {
				return nil, err
			}
			continue
		}
		r.c, r.clients = c, clients
	}
	c := r.c
	defer func() {
		if err := c.close(); err != nil {
			r.checks = append(r.checks, "node process: "+err.Error())
		}
	}()

	// Sample buffers are sized before the clock starts so that recording a
	// sample does not allocate inside the window: for the fastest kind a
	// client can complete (a local invoke) and for an issuer's share of the
	// schedule, with room to spare.
	perKind := int(4000 * o.window.Seconds())
	if spec.nodes == 1 {
		perKind = int(60000 * o.window.Seconds())
	}
	for _, cl := range r.clients {
		if cl.plan == nil {
			cl.call.reserve(2 * len(in.schedule) / openIssuers)
			cl.late = make([]int64, 0, 2*len(in.schedule)/openIssuers)
			continue
		}
		cl.call.reserve(perKind)
		for k := range cl.lat {
			cl.lat[k].reserve(perKind)
		}
	}
	runtime.GC()

	loadStart := time.Now()
	ws := loadStart.Add(o.warmup)
	we := ws.Add(o.window)
	ph.ws.Store(ws.UnixNano())
	ph.we.Store(we.UnixNano())
	if c.open != nil {
		c.open.t0.Store(loadStart.UnixNano())
	}
	close(ph.start)

	slices := int(o.window.Nanoseconds() / ph.sliceNs)
	for i := 0; i <= slices; i++ {
		time.Sleep(time.Until(ws.Add(time.Duration(int64(i) * ph.sliceNs))))
		if c.tap != nil {
			c.tap.on.Store(i < slices)
		}
		ps, err := c.snapshot(i == 0 || i == slices)
		if err != nil {
			return nil, err
		}
		r.edges = append(r.edges, ps)
	}
	if c.open != nil {
		// Events due just before the window closed may still be queued behind
		// a late generator; they are issued (and timed from their due time),
		// not abandoned. Only a backlog deeper than this counts as failure.
		time.Sleep(openGrace)
	}
	ph.stop.Store(true)
	for _, cl := range r.clients {
		select {
		case <-cl.done:
		case <-time.After(2 * callTimeout):
			return nil, fmt.Errorf("a client did not stop within %v of the window closing", 2*callTimeout)
		}
	}

	// Drain: every raise_async that was accepted must reach its handler.
	asyncOK := r.asyncAccepted()
	for deadline := time.Now().Add(drainLimit); ; time.Sleep(5 * time.Millisecond) {
		ps, err := c.snapshot(false)
		if err != nil {
			return nil, err
		}
		if sumCounts(ps.Sink.Async) >= asyncOK || time.Now().After(deadline) {
			break
		}
	}
	r.final = snapProcess(c.hosts, c.sink, true, true)
	if c.child != nil {
		if err := c.child.quit(); err != nil {
			r.checks = append(r.checks, err.Error())
		} else {
			r.final.add(*c.child.final)
		}
	}
	r.loadS = time.Since(loadStart).Seconds()
	r.check()
	return r, nil
}

// check runs the output checks over the whole run (warm-up and drain
// included): they compare what the clients saw succeed with what the
// handlers counted.
func (r *run) check() {
	bad := func(format string, a ...any) { r.checks = append(r.checks, fmt.Sprintf(format, a...)) }
	var ok tally
	ok.thread = make([]int64, len(r.c.threads))
	var failed, echoBad int64 // over the whole run, not only the window
	for _, cl := range r.clients {
		failed += cl.failedAll
		echoBad += cl.echoBad
		for n := range ok.obj {
			ok.obj[n] += cl.ok.obj[n]
			ok.async[n] += cl.ok.async[n]
			ok.echo[n] += cl.ok.echo[n]
		}
		for i, n := range cl.ok.thread {
			ok.thread[i] += n
		}
		ok.group += cl.ok.group
	}
	if echoBad != 0 {
		bad("invoke: %d replies differed from their argument", echoBad)
	}
	// Exactly-once: a handler ran once per operation that succeeded. An
	// operation that failed may or may not have run its handler, so with
	// failures the count may exceed the successes by at most that many.
	exact := func(what string, ran, succeeded int64) {
		if ran < succeeded || ran > succeeded+failed {
			bad("%s: handler ran %d times for %d successful operations", what, ran, succeeded)
		}
	}
	s := r.final.Sink
	for n := 1; n <= maxNodes; n++ {
		exact(fmt.Sprintf("raise_obj at node %d", n), s.Obj[uint32(n)], ok.obj[n])
		exact(fmt.Sprintf("raise_async at node %d", n), s.Async[uint32(n)], ok.async[n])
		exact(fmt.Sprintf("invoke at node %d", n), s.Echo[uint32(n)], ok.echo[n])
	}
	var threadOK int64
	for i, tid := range r.c.threads {
		exact(fmt.Sprintf("raise_thread at %v (consuming link)", tid), s.Consume[uint64(tid)], ok.thread[i])
		threadOK += ok.thread[i]
	}
	// raise_thread walks exactly 8 links: 7 propagate for every one consumed.
	if lo, hi := (chainDepth-1)*threadOK, (chainDepth-1)*(threadOK+failed); s.Prop < lo || s.Prop > hi {
		bad("raise_thread: %d propagating links ran for %d deliveries, want %d each", s.Prop, threadOK, chainDepth-1)
	}
	// raise_group: one release per member, so every member ran once per raise.
	if len(r.c.members) != groupSize {
		bad("raise_group: group has %d members, want %d", len(r.c.members), groupSize)
	}
	for _, m := range r.c.members {
		exact(fmt.Sprintf("raise_group member %v", m), s.Member[uint64(m)], ok.group)
	}
	ctr := r.final.Counters
	if n := ctr[metrics.CtrRelDeadLetter]; n != 0 {
		bad("rel.deadletter = %d, want 0", n)
	}
	for _, class := range []string{"system", "control"} {
		if n := ctr[metrics.DispatchQShed(class)]; n != 0 {
			bad("%s = %d, want 0", metrics.DispatchQShed(class), n)
		}
	}
	if r.c.tap != nil {
		if n := r.c.tap.desync.Load(); n != 0 {
			bad("tap: %d sends did not match a handler entry (per-pair FIFO lost)", n)
		}
	}
}

// asyncAccepted counts the raise_async operations whose Raise returned nil,
// over the whole run.
func (r *run) asyncAccepted() (n int64) {
	for _, cl := range r.clients {
		for _, ok := range cl.ok.async {
			n += ok
		}
	}
	return n
}

// attempted and failed count operations inside the measured window. An
// open-loop event scheduled in the window but never issued, and a
// raise_async accepted but never handled, count as failed.
func (r *run) attempted() (attempted, failed int64) {
	for _, cl := range r.clients {
		attempted += cl.attempted
		failed += cl.failed
	}
	if r.c.open != nil {
		attempted += r.c.open.missed
		failed += r.c.open.missed
	}
	if lost := r.asyncAccepted() - sumCounts(r.final.Sink.Async); lost > 0 {
		failed += lost
	}
	return attempted, failed
}
