package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
)

// perLayerDefs are the traced pass's metrics, named <layer>.<metric> after
// the package under internal/ they measure. Three sources: T = the tap on
// the transport seam, C = registry counter deltas over the window ÷
// operations, I = isolated calls to the layer's exported functions. A layer
// that does no work on a workload reads 0 there.
var perLayerDefs = []metricDef{
	{"core.allocs_per_op", "count", "lower", 0},              // C: heap allocations per operation (runtime.MemStats; includes the harness's own few)
	{"core.bytes_per_op", "B", "lower", 0},                   // C: heap bytes allocated per operation
	{"core.self_us_per_op", "us", "lower", 0},                // T: operation span − union of its message spans (send entry → handler return); 0 under concurrent load
	{"core.handle_us", "us", "lower", 0},                     // T: mean call of the receiving kernel's transport Handler, per message
	{"core.goroutines_per_op", "count", "lower", 0},          // C: thread.goroutine.created per operation
	{"core.chain_links_per_op", "count", "lower", 0},         // C: handler.chain.links per operation
	{"core.master_served_share", "ratio", "higher", 0},       // C: object events served by a master thread ÷ (those + handler goroutines created)
	{"event.chain_walk_ns", "ns", "lower", 0},                // I: Chain.For on a depth-8 chain
	{"event.block_clone_ns", "ns", "lower", 0},               // I: Block.Clone with state and a 2-key user map
	{"thread.diff_ns", "ns", "lower", 0},                     // I: DiffAttrs of an 8-link snapshot against one with a pushed handler and a rewritten slot
	{"thread.apply_ns", "ns", "lower", 0},                    // I: Delta.Apply of that delta
	{"thread.delta_bytes", "B", "lower", 0},                  // I: wire-encoded size of that delta
	{"thread.full_snapshot_share", "ratio", "lower", 0},      // C: attr.full.sent ÷ (full + delta)
	{"attrcache.hit_ratio", "ratio", "higher", 0},            // C: attr.cache.hit ÷ (hit + miss)
	{"locate.probes_per_op", "count", "lower", 0},            // C: thread.locate.probe per operation
	{"locate.locate_ns", "ns", "lower", 0},                   // I: PathFollow.Locate over one forwarding pointer on a stub Env
	{"reliable.send_ns", "ns", "lower", 0},                   // I: Endpoint.Send over a loop-back SendFunc
	{"reliable.handle_ns", "ns", "lower", 0},                 // I: Endpoint.Handle of a fresh data envelope
	{"reliable.standalone_acks_per_op", "count", "lower", 0}, // C: rel.ack.standalone per operation
	{"reliable.piggyback_share", "ratio", "higher", 0},       // C: rel.ack.piggyback ÷ (piggyback + standalone)
	{"reliable.retries_per_kop", "count", "lower", 0},        // C: rel.retry per 1000 operations
	{"reliable.deadletters", "count", "lower", 0},            // C: rel.deadletter over the window (must be 0)
	{"batch.append_ns_1", "ns", "lower", 0},                  // I: AppendFrame, 1 record of 96 bytes
	{"batch.append_ns_32", "ns", "lower", 0},                 // I: AppendFrame, 32 records
	{"batch.decode_ns_1", "ns", "lower", 0},                  // I: DecodeFrame, 1 record
	{"batch.decode_ns_32", "ns", "lower", 0},                 // I: DecodeFrame, 32 records
	{"netsim.send_ns", "ns", "lower", 0},                     // T: mean inner Fabric.Send call
	{"netsim.transit_p50_us", "us", "lower", 0},              // T: send entry → handler entry (coalescing wait + queue wait + dispatch)
	{"netsim.transit_p99_us", "us", "lower", 0},              // T
	{"netsim.msgs_per_op", "count", "lower", 0},              // C: net.msg.sent per operation
	{"netsim.recs_per_frame", "count", "higher", 0},          // C: batch.recs ÷ batch.frames
	{"netsim.solo_share", "ratio", "higher", 0},              // C: batch.solo ÷ (solo + recs): messages that left an idle link bare
	{"netsim.timer_flush_share", "ratio", "lower", 0},        // C: batch.flush.timer ÷ batch.frames: frames that waited out the flush window
	{"wire.encode_ns_per_msg", "ns", "lower", 0},             // I: EncodeValue on payloads captured by the tap
	{"wire.decode_ns_per_msg", "ns", "lower", 0},             // I: DecodeValue on them
	{"wire.bytes_per_msg", "B", "lower", 0},                  // I: their mean encoded size
	{"wire.allocs_per_msg", "count", "lower", 0},             // I: allocations per encode+decode
	{"transport.bytes_per_op", "B", "lower", 0},              // C: net.msg.bytes per operation of the untapped single-client run (estimated bytes on netsim, socket bytes on TCP)
	{"cpu_us_per_op", "us", "lower", 0},                      // C: user+system CPU per operation of the untapped single-client run
	{"qdisc.offer_pop_ns", "ns", "lower", 0},                 // I: Queue.Offer + TryPop under E15's QoS config
	{"qdisc.sheds", "count", "lower", 0},                     // C: dispatch.q.*.shed over the window (QoS is off: must be 0)
	{"tcptransport.send_ns", "ns", "lower", 0},               // T: mean inner Transport.Send call (enqueue on the link)
	{"tcptransport.transit_p50_us", "us", "lower", 0},        // T: send entry → handler entry (encode, socket, decode, dispatch)
	{"tcptransport.transit_p99_us", "us", "lower", 0},        // T
	{"tcptransport.msgs_per_frame", "count", "higher", 0},    // C: messages per socket write (frames = frame-overhead bytes ÷ 5)
	{"tcptransport.bytes_per_msg", "B", "lower", 0},          // C: net.msg.bytes ÷ net.msg.sent, socket bytes
	{"wal.append_ns", "ns", "lower", 0},                      // I: Log.Append, 128-byte records, 4 concurrent appenders
	{"wal.sync_us", "us", "lower", 0},                        // I: Log.Sync after each append, real fsync
	{"wal.records_per_sync", "count", "higher", 0},           // I: records completed per sync interval (throughput × sync time)
	{"failure.msgs_per_s", "1/s", "lower", 0},                // C: failure-detector messages (k.fd.gossip, k.fd.hb) per second
	{"failure.bytes_per_s", "B/s", "lower", 0},               // C: their bytes per second
	{"gen.late_p99_us", "us", "lower", 0},                    // harness: open loop, issue time − due time
	{"gen.queue_max", "count", "lower", 0},                   // harness: open loop, deepest backlog of due events
	{"trace.overhead_share", "ratio", "lower", 0},            // harness: 1 − tapped ÷ untapped ops_per_s, same single client
}

const (
	overheadLimit = 0.15 // a tapped run this much slower (or faster) than the untapped one is flagged
	lateLimit     = 0.10 // … as is a generator running later than this share of raise_async_p50_us
)

// windowDelta is a run's counter and allocator movement over its measured
// window, with the operations completed in it.
type windowDelta struct {
	ops      float64
	seconds  float64
	counters map[string]int64
	mallocs  float64
	bytes    float64
}

func (r *run) delta() windowDelta {
	w := r.window()
	first, last := r.edges[0], r.edges[len(r.edges)-1]
	d := windowDelta{
		seconds:  r.opts.window.Seconds(),
		counters: metrics.Snapshot(last.Counters).Diff(first.Counters),
		mallocs:  float64(last.Mallocs - first.Mallocs),
		bytes:    float64(last.AllocBytes - first.AllocBytes),
	}
	for _, n := range w.ops {
		d.ops += float64(n)
	}
	return d
}

func (d windowDelta) get(name string) float64 { return float64(d.counters[name]) }

// prefixSum adds every counter whose name starts with prefix (and, if given,
// ends with suffix).
func (d windowDelta) prefixSum(prefix, suffix string) (sum float64) {
	for k, v := range d.counters {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
			sum += float64(v)
		}
	}
	return sum
}

// tracedPass produces a workload's per-layer metrics: an untapped reference
// run for a quarter of the window (counters, allocations, the generator's
// own health), then a tapped run of the same single client for the rest
// (spans), then the isolated calls.
func (b *bench) tracedPass(spec *workloadSpec, seed int64) (*result, error) {
	// Whole seconds while the window allows, so that slices stay 1 s long.
	refWin := (b.window / 4).Truncate(time.Second)
	if refWin == 0 {
		refWin = b.window / 4
	}
	opts := runOpts{seed: seed, window: refWin, warmup: b.tracedWarmup, setups: 1, clients: 1, inproc: true, serial: true}
	ref, err := execute(spec, opts)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	opts.window, opts.tap = b.window-refWin, true
	tr, err := execute(spec, opts)
	if err != nil {
		return nil, fmt.Errorf("tapped run: %w", err)
	}
	res := &result{Workload: spec.name, Seed: seed, Traced: true, SetupS: append(ref.setupS, tr.setupS...), LoadS: ref.loadS + tr.loadS}
	res.close(ref)
	res.close(tr)

	refE2E, trE2E := ref.endToEnd(), tr.endToEnd()
	m := map[string]metric{}
	for _, d := range perLayerDefs {
		m[d.name] = metric{Unit: d.unit}
	}
	set := func(name string, v float64, n int) { m[name] = metric{Value: v, Unit: m[name].Unit, N: n} }

	// C: counters of the untapped run.
	d := ref.delta()
	n := int(d.ops)
	set("core.allocs_per_op", ratio(d.mallocs, d.ops), n)
	set("core.bytes_per_op", ratio(d.bytes, d.ops), n)
	set("core.goroutines_per_op", ratio(d.get(metrics.CtrThreadCreated), d.ops), n)
	set("core.chain_links_per_op", ratio(d.get(metrics.CtrChainLinksWalked), d.ops), n)
	set("core.master_served_share", ratio(d.get(metrics.CtrMasterServed), d.get(metrics.CtrMasterServed)+d.get(metrics.CtrThreadCreated)), n)
	set("thread.full_snapshot_share", ratio(d.get(metrics.CtrAttrFullSent), d.get(metrics.CtrAttrFullSent)+d.get(metrics.CtrAttrDeltaSent)), n)
	set("attrcache.hit_ratio", ratio(d.get(metrics.CtrAttrCacheHit), d.get(metrics.CtrAttrCacheHit)+d.get(metrics.CtrAttrCacheMiss)), n)
	set("locate.probes_per_op", ratio(d.get(metrics.CtrLocateProbe), d.ops), n)
	piggy, alone := d.get(metrics.CtrRelAckPiggyback), d.get(metrics.CtrRelAckStandalone)
	set("reliable.standalone_acks_per_op", ratio(alone, d.ops), n)
	set("reliable.piggyback_share", ratio(piggy, piggy+alone), n)
	set("reliable.retries_per_kop", 1000*ratio(d.get(metrics.CtrRelRetry), d.ops), n)
	set("reliable.deadletters", d.get(metrics.CtrRelDeadLetter), n)
	set("qdisc.sheds", d.prefixSum(metrics.DispatchQPrefix, ".shed"), n)
	m["transport.bytes_per_op"] = metric{Value: ratio(d.get(metrics.CtrMsgBytes), d.ops), Unit: "B", N: n, Note: spec.bytesNote()}
	set("cpu_us_per_op", refE2E["cpu_us_per_op"].Value, n)
	fdMsgs := d.get(metrics.KindMsgs("k.fd.gossip")) + d.get(metrics.KindMsgs("k.fd.hb"))
	fdBytes := d.get(metrics.KindBytes("k.fd.gossip")) + d.get(metrics.KindBytes("k.fd.hb"))
	set("failure.msgs_per_s", fdMsgs/d.seconds, int(fdMsgs))
	set("failure.bytes_per_s", fdBytes/d.seconds, int(fdMsgs))
	sent := d.get(metrics.CtrMsgSent)
	layer := "netsim"
	switch {
	case spec.tcp:
		layer = "tcptransport"
		// net.msg.bytes is every byte written to a socket; the per-kind
		// counters hold the record footprints. The rest is frame overhead:
		// a 4-byte length prefix and a 1-byte record count per write.
		frames := (d.get(metrics.CtrMsgBytes) - d.prefixSum(metrics.KindBytesPrefix, "")) / 5
		set("tcptransport.msgs_per_frame", ratio(sent, frames), int(frames))
		set("tcptransport.bytes_per_msg", ratio(d.get(metrics.CtrMsgBytes), sent), int(sent))
	case spec.nodes > 1:
		frames, recs, solo := d.get(metrics.CtrBatchFrames), d.get(metrics.CtrBatchRecs), d.get(metrics.CtrBatchSolo)
		set("netsim.msgs_per_op", ratio(sent, d.ops), int(sent))
		set("netsim.recs_per_frame", ratio(recs, frames), int(frames))
		set("netsim.solo_share", ratio(solo, solo+recs), int(solo+recs))
		set("netsim.timer_flush_share", ratio(d.get(metrics.CtrBatchFlushTimer), frames), int(frames))
	}

	// T: the tap of the tapped run.
	tc := tr.c.tap
	tc.mu.Lock()
	if !spec.open {
		set("core.self_us_per_op", meanInt64(tc.selfNs)/1e3, len(tc.selfNs))
	}
	set("core.handle_us", meanInt64(tc.handleNs)/1e3, len(tc.handleNs))
	if spec.nodes > 1 {
		slices.Sort(tc.transitNs)
		set(layer+".send_ns", meanInt64(tc.sendNs), len(tc.sendNs))
		set(layer+".transit_p50_us", percentile(tc.transitNs, 0.50)/1e3, len(tc.transitNs))
		set(layer+".transit_p99_us", percentile(tc.transitNs, 0.99)/1e3, len(tc.transitNs))
	}
	kinds := make([]string, 0, len(tc.byKind))
	for k := range tc.byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var byKind []string
	for _, k := range kinds {
		byKind = append(byKind, fmt.Sprintf("%s %.1f us ×%d", k, float64(tc.byKind[k].ns)/float64(tc.byKind[k].n)/1e3, tc.byKind[k].n))
	}
	m["core.handle_us"] = metric{Value: m["core.handle_us"].Value, Unit: "us", N: len(tc.handleNs), Note: strings.Join(byKind, "; ")}
	captures := tc.captures
	tc.mu.Unlock()

	// Harness health.
	late, queueMax := ref.generator()
	set("gen.late_p99_us", percentile(late, 0.99)/1e3, len(late))
	set("gen.queue_max", float64(queueMax), len(late))
	overhead := 1 - ratio(trE2E["ops_per_s"].Value, refE2E["ops_per_s"].Value)
	set("trace.overhead_share", overhead, trE2E["ops_per_s"].N)
	if overhead > overheadLimit || overhead < -overheadLimit {
		res.Flags = append(res.Flags, fmt.Sprintf("tapped run's ops_per_s differs from the untapped run's by %.0f%% (limit %.0f%%): the tap is intrusive here, or its fabric drifted from the one core.NewSystem builds",
			100*overhead, 100*overheadLimit))
	}
	res.Flags = append(res.Flags, ref.generatorFlags(refE2E)...)

	// I: isolated calls.
	if b.fixed == nil {
		if b.fixed, err = isolated(b.outDir); err != nil {
			return nil, fmt.Errorf("isolated layer calls: %w", err)
		}
	}
	wireCodec, err := isolatedWire(captures)
	if err != nil {
		return nil, fmt.Errorf("isolated wire codec calls: %w", err)
	}
	for _, iso := range []map[string]metric{b.fixed, wireCodec} {
		for k, v := range iso {
			set(k, v.Value, v.N)
		}
	}

	res.Metrics = m
	res.SpanFile = filepath.Join(b.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", spec.name, seed))
	if err := tc.writeSpans(res.SpanFile); err != nil {
		return nil, err
	}
	return res, nil
}

// generator returns the open loop's lateness samples (sorted) and deepest
// backlog; both empty for a closed loop.
func (r *run) generator() (late []int64, queueMax int) {
	for _, cl := range r.clients {
		late = append(late, cl.late...)
		queueMax = max(queueMax, cl.queueMax)
	}
	slices.Sort(late)
	return late, queueMax
}

// generatorFlags flags an open-loop run whose generator ran late enough to
// put its own delay into the latencies.
func (r *run) generatorFlags(m map[string]metric) []string {
	late, _ := r.generator()
	if len(late) == 0 {
		return nil
	}
	p99, p50 := percentile(late, 0.99)/1e3, m["raise_async_p50_us"].Value
	if p99 > lateLimit*p50 {
		return []string{fmt.Sprintf("open-loop generator ran late: gen.late_p99_us %.0f is above %.0f%% of raise_async_p50_us %.0f", p99, 100*lateLimit, p50)}
	}
	return nil
}
