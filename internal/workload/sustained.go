package workload

// Sustained-load driver behind experiment E12: offers an open-loop mix of
// one-way raises and request/response invokes to a netsim fabric and
// reports delivered events/sec plus handler-completion latency percentiles.
//
// The driver deliberately measures the fabric's dispatch pipeline itself
// rather than the full kernel stack: netsim handlers run inline on the
// dispatch goroutines (the kernel's RPC layer hands requests off to fresh
// goroutines, which hides head-of-line blocking), so a handler class that
// sleeps — standing in for user-written handlers that touch objects or wait
// on I/O — directly stalls its node's dispatcher. That is exactly the
// contention netsim's DispatchWorkers exists to relieve, and exactly what
// E12 quantifies.

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/transport"
)

// TenantSpec is one tenant's offered load in a multi-tenant run (E15):
// an open-loop stream of one-way raises riding the tenant's QoS class.
type TenantSpec struct {
	// Name labels the tenant in results ("A", "B").
	Name string
	// Class is the dispatch class the tenant's events ride. Its weight
	// comes from SustainedConfig.QoS.Weights.
	Class transport.Class
	// OfferedPerNode is the tenant's open-loop target per generator node,
	// in events/sec.
	OfferedPerNode int
}

// TenantResult is one tenant's slice of a multi-tenant measurement.
type TenantResult struct {
	Name      string
	Class     transport.Class
	Offered   int64 // events the tenant's generators sent
	Rejected  int64 // sends refused by QoS admission (ErrBackpressure)
	Completed int64
	// Completion-latency percentiles for this tenant alone.
	P50, P95, P99 time.Duration
}

// SustainedConfig parameterizes one sustained-load run.
type SustainedConfig struct {
	// Nodes is the cluster size; every node both generates and handles
	// events. Zero picks 8.
	Nodes int
	// Workers is netsim.Config.DispatchWorkers: dispatch goroutines per
	// node, inbox sharded by sender. Zero picks 1 (the classic serial
	// pipeline — the baseline).
	Workers int
	// Duration is the generation window. Zero picks 1s.
	Duration time.Duration
	// OfferedPerNode is the open-loop target each generator offers, in
	// events/sec, spread uniformly over the other nodes. Zero picks 12000.
	// When a destination's inbox shard fills, the generator blocks (the
	// fabric applies backpressure), so the offered rate is a ceiling.
	OfferedPerNode int
	// InvokeFrac is the fraction of events that are request/response
	// invokes (completion = response received back at the caller); the rest
	// are one-way raises (completion = handler returned). Negative picks
	// 0.25.
	InvokeFrac float64
	// SlowFrac is the fraction of events handled by the slow handler
	// class, which sleeps SlowDelay inline on the dispatch goroutine.
	// Negative picks 0.5.
	SlowFrac float64
	// SlowDelay is the slow class's inline handler delay. Zero picks 1ms.
	SlowDelay time.Duration
	// Latency is the fabric's simulated one-way latency (default 0:
	// immediate handoff, so the dispatch pipeline is what's measured).
	Latency time.Duration
	// QueueDepth is the per-shard inbox capacity. Zero picks netsim's
	// default.
	QueueDepth int
	// Seed seeds the per-generator randomness (destination, class and kind
	// draws). Zero picks 1.
	Seed int64
	// Batch is passed through to netsim.Config.Batch: per-link send
	// coalescing (DESIGN.md §11). Zero value = batching off, so existing
	// measurements (E12) are unchanged.
	Batch netsim.BatchConfig
	// QoS is passed through to netsim.Config.QoS: classful dispatch with
	// weighted fair queueing and admission control (DESIGN.md §15). Zero
	// value = FIFO dispatch, unchanged.
	QoS transport.QoSConfig
	// Tenants switches the driver into multi-tenant mode (E15): instead of
	// the single mixed raise/invoke stream above, each tenant runs its own
	// open-loop generator per node, sending one-way raises stamped with
	// the tenant's class. OfferedPerNode/InvokeFrac above are ignored;
	// SlowFrac/SlowDelay still shape the handler cost. Nil keeps the
	// legacy single-stream behavior exactly.
	Tenants []TenantSpec
	// SystemPerNode adds a background stream of ClassSystem raises (fast
	// handler class) per node per second in multi-tenant mode, so a run
	// can assert the system class is never queued behind or shed for
	// tenant floods. Zero adds none.
	SystemPerNode int
}

func (c *SustainedConfig) fillDefaults() {
	if c.Nodes <= 1 {
		c.Nodes = 8
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.OfferedPerNode <= 0 {
		c.OfferedPerNode = 12000
	}
	if c.InvokeFrac < 0 {
		c.InvokeFrac = 0.25
	}
	if c.SlowFrac < 0 {
		c.SlowFrac = 0.5
	}
	if c.SlowDelay <= 0 {
		c.SlowDelay = time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// SustainedResult is one run's measurement.
type SustainedResult struct {
	Config    SustainedConfig
	Completed int64         // events completed (raises handled + invoke responses received)
	Offered   int64         // events the generators actually sent
	Shed      int64         // invoke responses dropped on a full responder outbox
	Elapsed   time.Duration // generation window plus drain, wall clock
	// EventsPerSec is Completed over Elapsed: the pipeline's delivered
	// throughput under the offered load.
	EventsPerSec float64
	// Handler-completion latency percentiles: send-to-handler-return for
	// raises, full round trip for invokes. Queueing on every hop included.
	P50, P95, P99 time.Duration
	// Metrics is the fabric's final counter snapshot (net.msg.sent,
	// batch.frames, ...), taken after Close so all pending flushes have
	// landed.
	Metrics metrics.Snapshot
	// Tenants holds the per-tenant slices of a multi-tenant run, in
	// SustainedConfig.Tenants order; empty for legacy runs.
	Tenants []TenantResult
	// SysShed counts system- and control-class messages shed by QoS
	// admission: the dispatch.q.system.shed + dispatch.q.control.shed
	// counters, which the qdisc guarantees stay zero.
	SysShed int64
}

// Wire kinds of the sustained workload.
const (
	kindRaise = "wl.raise"
	kindReq   = "wl.invoke.req"
	kindResp  = "wl.invoke.resp"
)

// sustainedPayload is one workload event. T0 is the sender's send timestamp
// (UnixNano) and rides through request and response unchanged, so the
// completion latency includes queueing on every hop.
type sustainedPayload struct {
	T0   int64
	Slow bool
}

// sustainedSize is the Message.Size of one workload event: it has no wire
// codec (it only ever crosses netsim), so it is charged like a small kernel
// message — the unit E15's DWRR quantum and E13's net KB are stated in.
const sustainedSize = 32

// latRecorder accumulates completion latencies for one node, so concurrent
// dispatch workers on different nodes never contend on one lock.
type latRecorder struct {
	mu  sync.Mutex
	lat []int64 // nanoseconds
}

func (r *latRecorder) record(ns int64) {
	r.mu.Lock()
	r.lat = append(r.lat, ns)
	r.mu.Unlock()
}

// splitmix returns a lock-free deterministic splitmix64 stream seeded by
// (seed, stream) — one per generator goroutine.
func splitmix(seed int64, stream uint64) func() uint64 {
	rng := uint64(seed)*0x9E3779B97F4A7C15 + stream
	return func() uint64 {
		rng += 0x9E3779B97F4A7C15
		z := rng
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
}

func frac(u uint64) float64 { return float64(u>>11) / (1 << 53) }

// RunSustained drives one sustained-load measurement and reports the
// result.
func RunSustained(cfg SustainedConfig) (SustainedResult, error) {
	cfg.fillDefaults()
	fab := netsim.New(netsim.Config{
		Latency:         cfg.Latency,
		QueueDepth:      cfg.QueueDepth,
		Seed:            cfg.Seed,
		DispatchWorkers: cfg.Workers,
		Batch:           cfg.Batch,
		QoS:             cfg.QoS,
	})
	// classIdx maps a message's class back to its tenant slot; tenantRecs
	// is per tenant per node so dispatch workers on different nodes never
	// share a lock.
	classIdx := make(map[transport.Class]int, len(cfg.Tenants))
	tenantRecs := make([][]*latRecorder, len(cfg.Tenants))
	tenantCompleted := make([]*atomic.Int64, len(cfg.Tenants))
	for ti, ts := range cfg.Tenants {
		classIdx[ts.Class] = ti
		tenantRecs[ti] = make([]*latRecorder, cfg.Nodes+1)
		for i := 1; i <= cfg.Nodes; i++ {
			tenantRecs[ti][i] = &latRecorder{}
		}
		tenantCompleted[ti] = &atomic.Int64{}
	}
	recs := make([]*latRecorder, cfg.Nodes+1) // 1-based by node ID
	var completed, respShed atomic.Int64
	var respWg sync.WaitGroup
	outboxes := make([]chan netsim.Message, cfg.Nodes+1)
	for i := 1; i <= cfg.Nodes; i++ {
		node := ids.NodeID(i)
		rec := &latRecorder{}
		recs[i] = rec
		// Invoke responses leave through a per-node responder goroutine,
		// never inline from the handler: a handler that blocks on a full
		// destination shard would hold its own dispatcher while the peer's
		// dispatcher blocks symmetrically — distributed deadlock. The
		// outbox sheds on overflow instead (a full transmit queue drops).
		outbox := make(chan netsim.Message, 4096)
		outboxes[i] = outbox
		respWg.Add(1)
		go func() {
			defer respWg.Done()
			for m := range outbox {
				if err := fab.Send(m); err != nil {
					if errors.Is(err, netsim.ErrBackpressure) {
						respShed.Add(1) // QoS rejected the response: shed
						continue
					}
					return // fabric closed: teardown
				}
			}
		}()
		handler := func(m netsim.Message) {
			p := m.Payload.(*sustainedPayload)
			switch m.Kind {
			case kindRaise:
				if p.Slow {
					time.Sleep(cfg.SlowDelay)
				}
				lat := time.Now().UnixNano() - p.T0
				if ti, ok := classIdx[m.Class]; ok {
					tenantRecs[ti][node].record(lat)
					tenantCompleted[ti].Add(1)
				}
				rec.record(lat)
				completed.Add(1)
			case kindReq:
				if p.Slow {
					time.Sleep(cfg.SlowDelay)
				}
				select {
				case outbox <- netsim.Message{From: node, To: m.From, Kind: kindResp, Payload: p, Size: sustainedSize}:
				default:
					respShed.Add(1)
				}
			case kindResp:
				// Round trip complete, back at the original caller.
				rec.record(time.Now().UnixNano() - p.T0)
				completed.Add(1)
			}
		}
		if err := fab.Attach(node, handler); err != nil {
			return SustainedResult{}, err
		}
	}
	fab.Start()

	// Open-loop generators pacing sends in ~2ms batches so the pacing
	// timer is off the per-event path.
	const batchEvery = 2 * time.Millisecond
	perBatchOf := func(rate int) int {
		pb := int(float64(rate) * batchEvery.Seconds())
		if pb < 1 {
			pb = 1
		}
		return pb
	}
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	var offered atomic.Int64
	tenantOffered := make([]*atomic.Int64, len(cfg.Tenants))
	tenantRejected := make([]*atomic.Int64, len(cfg.Tenants))
	for ti := range cfg.Tenants {
		tenantOffered[ti] = &atomic.Int64{}
		tenantRejected[ti] = &atomic.Int64{}
	}
	var wg sync.WaitGroup
	// generate runs one open-loop stream from node: raises of class cls at
	// rate ev/s, counting sends into offCtr and QoS admission rejects into
	// rejCtr (nil = a reject tears the stream down like any send error).
	generate := func(node ids.NodeID, stream uint64, rate int, cls transport.Class, offCtr, rejCtr *atomic.Int64, slowFrac, invokeFrac float64) {
		defer wg.Done()
		next := splitmix(cfg.Seed, stream)
		perBatch := perBatchOf(rate)
		for time.Now().Before(deadline) {
			for b := 0; b < perBatch; b++ {
				// Uniform over the other nodes: draw from the n-1
				// non-self slots and shift past self.
				dest := ids.NodeID(1 + next()%uint64(cfg.Nodes-1))
				if dest >= node {
					dest++
				}
				p := &sustainedPayload{T0: time.Now().UnixNano(), Slow: frac(next()) < slowFrac}
				kind := kindRaise
				if frac(next()) < invokeFrac {
					kind = kindReq
				}
				err := fab.Send(netsim.Message{From: node, To: dest, Kind: kind, Payload: p, Size: sustainedSize, Class: cls})
				if err != nil {
					if rejCtr != nil && errors.Is(err, netsim.ErrBackpressure) {
						rejCtr.Add(1)
						continue
					}
					return
				}
				if offCtr != nil {
					offCtr.Add(1)
				}
				offered.Add(1)
			}
			time.Sleep(batchEvery)
		}
	}
	for i := 1; i <= cfg.Nodes; i++ {
		node := ids.NodeID(i)
		if len(cfg.Tenants) == 0 {
			wg.Add(1)
			go generate(node, uint64(node), cfg.OfferedPerNode, transport.ClassDefault, nil, nil, cfg.SlowFrac, cfg.InvokeFrac)
			continue
		}
		// Multi-tenant: one generator per (node, tenant), raises only,
		// plus the optional background system stream (fast class — it
		// stands in for kernel protocol traffic).
		for ti, ts := range cfg.Tenants {
			wg.Add(1)
			go generate(node, uint64(node)*256+uint64(ti), ts.OfferedPerNode, ts.Class,
				tenantOffered[ti], tenantRejected[ti], cfg.SlowFrac, 0)
		}
		if cfg.SystemPerNode > 0 {
			wg.Add(1)
			go generate(node, uint64(node)*256+255, cfg.SystemPerNode, transport.ClassSystem, nil, nil, 0, 0)
		}
	}
	wg.Wait()

	// Drain grace: let in-flight events and invoke responses complete, but
	// never wait out a saturated baseline's whole backlog — the baseline
	// row's point is that the backlog exists. The grace is charged to
	// Elapsed, so it cannot inflate EventsPerSec.
	time.Sleep(cfg.SlowDelay*4 + 50*time.Millisecond)
	elapsed := time.Since(start)
	// Stop dispatch before closing the outboxes: handlers cannot run after
	// Close returns, so nothing sends on a closed outbox.
	fab.Close(context.Background())
	snap := fab.Metrics().Snapshot()
	for _, ob := range outboxes[1:] {
		close(ob)
	}
	respWg.Wait()

	percentiles := func(all []int64) (p50, p95, p99 time.Duration) {
		if len(all) == 0 {
			return 0, 0, 0
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		pct := func(p float64) time.Duration {
			return time.Duration(all[int(p*float64(len(all)-1))])
		}
		return pct(0.50), pct(0.95), pct(0.99)
	}
	var all []int64
	for _, r := range recs[1:] {
		r.mu.Lock()
		all = append(all, r.lat...)
		r.mu.Unlock()
	}
	res := SustainedResult{
		Config:    cfg,
		Completed: completed.Load(),
		Offered:   offered.Load(),
		Shed:      respShed.Load(),
		Elapsed:   elapsed,
		Metrics:   snap,
		SysShed: snap[metrics.DispatchQShed(transport.ClassSystem.Name())] +
			snap[metrics.DispatchQShed(transport.ClassControl.Name())],
	}
	res.EventsPerSec = float64(res.Completed) / elapsed.Seconds()
	res.P50, res.P95, res.P99 = percentiles(all)
	for ti, ts := range cfg.Tenants {
		var lat []int64
		for _, r := range tenantRecs[ti][1:] {
			r.mu.Lock()
			lat = append(lat, r.lat...)
			r.mu.Unlock()
		}
		tr := TenantResult{
			Name:      ts.Name,
			Class:     ts.Class,
			Offered:   tenantOffered[ti].Load(),
			Rejected:  tenantRejected[ti].Load(),
			Completed: tenantCompleted[ti].Load(),
		}
		tr.P50, tr.P95, tr.P99 = percentiles(lat)
		res.Tenants = append(res.Tenants, tr)
	}
	return res, nil
}
