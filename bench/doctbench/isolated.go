package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/locate"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/reliable"
	"repro/internal/thread"
	"repro/internal/transport"
	"repro/internal/transport/qdisc"
	"repro/internal/transport/wire"
	"repro/internal/wal"
)

// Isolated calls: each layer's exported functions timed on their own, so a
// per-layer number exists even for layers no workload isolates (and for
// qdisc and wal, which no workload here reaches at all).

// sinkhole keeps results alive so the compiler cannot drop a timed call.
var sinkhole any

// perCall times n calls of f in five batches and returns the median batch's
// mean in ns: a batch that was preempted or met a GC cycle does not count.
func perCall(n int, f func()) float64 {
	f() // first call pays for lazy initialisation
	const batches = 5
	per := max(1, n/batches)
	means := make([]float64, batches)
	for b := range means {
		t := time.Now()
		for i := 0; i < per; i++ {
			f()
		}
		means[b] = float64(time.Since(t).Nanoseconds()) / float64(per)
	}
	return median(means)
}

// chainOf builds a LIFO chain of depth links for name under two links of
// another event, as a thread that attached handlers for several events has.
func chainOf(name event.Name, depth int) *event.Chain {
	c := &event.Chain{}
	c.Push(event.HandlerRef{Event: event.Terminate, Kind: event.KindProc, Proc: "cleanup"})
	for i := 0; i < depth; i++ {
		c.Push(event.HandlerRef{Event: name, Kind: event.KindProc, Proc: procPropagate})
	}
	c.Push(event.HandlerRef{Event: event.Timer, Kind: event.KindProc, Proc: "tick"})
	return c
}

// stubEnv answers locate probes for one thread that left node 1 for node 2.
type stubEnv struct{ reg *metrics.Registry }

func (stubEnv) Self() ids.NodeID    { return 3 }
func (stubEnv) Nodes() []ids.NodeID { return []ids.NodeID{1, 2, 3, 4} }
func (stubEnv) Probe(node ids.NodeID, _ ids.ThreadID) (locate.ProbeResult, error) {
	if node == 1 {
		return locate.ProbeResult{Known: true, Next: 2}, nil
	}
	return locate.ProbeResult{Known: true, Here: true}, nil
}
func (stubEnv) GroupMembers(ids.ThreadID) []ids.NodeID { return nil }
func (e stubEnv) Metrics() *metrics.Registry           { return e.reg }

// isolated runs every isolated timing that does not depend on the workload.
// scratch is where the WAL may write.
func isolated(scratch string) (map[string]metric, error) {
	out := map[string]metric{}
	put := func(name string, v float64, n int) { out[name] = metric{Value: v, N: n} }

	// event
	chain := chainOf(evChain, chainDepth)
	put("event.chain_walk_ns", perCall(20000, func() { sinkhole = chain.For(evChain) }), 20000)
	eb := &event.Block{
		Name: evGroup, Target: event.ToThread(ids.NewThreadID(1, 1)), Sync: true,
		State: &event.ThreadState{Thread: ids.NewThreadID(1, 1), Node: 1, Entry: "park", Blocked: "sleep"},
		User:  map[string]any{"due": int64(1), "src": 2},
	}
	put("event.block_clone_ns", perCall(20000, func() { sinkhole = eb.Clone() }), 20000)

	// thread: the attribute delta codec
	base := thread.NewAttributes(ids.NewThreadID(1, 1))
	base.Handlers = chainOf(evChain, chainDepth)
	base.Timers = []thread.TimerSpec{{Event: event.Timer, Period: time.Second}}
	base.PerThread["a"], base.PerThread["b"] = make([]byte, 32), make([]byte, 32)
	base.Version = 7
	cur := base.Clone()
	cur.Handlers.Push(event.HandlerRef{Event: event.Interrupt, Kind: event.KindProc, Proc: procConsume})
	cur.PerThread["b"] = []byte("rewritten")
	var d *thread.Delta
	put("thread.diff_ns", perCall(10000, func() { d = thread.DiffAttrs(base, cur) }), 10000)
	put("thread.apply_ns", perCall(10000, func() { sinkhole = d.Apply(base) }), 10000)
	size, err := wire.EncodedSize(d)
	if err != nil {
		return nil, err
	}
	put("thread.delta_bytes", float64(size), 1)

	// locate
	env := stubEnv{reg: metrics.NewRegistry()}
	tid := ids.NewThreadID(1, 9)
	put("locate.locate_ns", perCall(20000, func() {
		if n, err := (locate.PathFollow{}).Locate(env, tid); err != nil || n != 2 {
			panic(fmt.Sprintf("isolated locate: %v %v", n, err))
		}
	}), 20000)

	// reliable
	send, handle := isolatedReliable(2000)
	put("reliable.send_ns", send, 2000)
	put("reliable.handle_ns", handle, 2000)

	// batch
	for _, n := range []int{1, 32} {
		recs := make([]batch.WireRec, n)
		for i := range recs {
			recs[i] = batch.WireRec{Kind: reliable.KindData, Body: make([]byte, 96)}
		}
		buf := make([]byte, 0, batch.EncodedSize(recs))
		put(fmt.Sprintf("batch.append_ns_%d", n), perCall(20000, func() { buf = batch.AppendFrame(buf[:0], recs) }), 20000)
		dst := make([]batch.WireRec, 0, n)
		put(fmt.Sprintf("batch.decode_ns_%d", n), perCall(20000, func() {
			if dst, err = batch.DecodeFrame(dst[:0], buf); err != nil {
				panic(err)
			}
		}), 20000)
	}

	// qdisc, under the QoS configuration of experiment E15
	qos := transport.QoSConfig{Enabled: true, Weights: map[transport.Class]int{1: 8, 2: 1}, Depth: 256, Quantum: 32}
	q := qdisc.New(&qos, qos.Depth, metrics.NewRegistry(), nil)
	msg := transport.Message{From: 1, To: 2, Kind: reliable.KindData, Size: 96, Class: 1}
	put("qdisc.offer_pop_ns", perCall(20000, func() {
		q.Offer(msg)
		sinkhole, _ = q.TryPop()
	}), 20000)

	// wal
	if err := isolatedWAL(scratch, put); err != nil {
		return nil, err
	}
	return out, nil
}

// isolatedWire times the wire codec on the payloads the tap captured on this
// workload (none on local_closed).
func isolatedWire(captures []capture) (map[string]metric, error) {
	out := map[string]metric{}
	if len(captures) == 0 {
		return out, nil
	}
	vals := make([]any, len(captures))
	var bytes float64
	for i, c := range captures {
		v, err := wire.DecodeValue(c.enc)
		if err != nil {
			return nil, fmt.Errorf("captured %s payload does not decode: %w", c.kind, err)
		}
		vals[i] = v
		bytes += float64(len(c.enc))
	}
	const rounds = 40
	per := float64(len(captures))
	n := rounds * len(captures)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	buf := make([]byte, 0, 4096)
	enc := perCall(rounds, func() {
		for _, v := range vals {
			buf, _ = wire.AppendValue(buf[:0], v) // decoded a moment ago: encodable
		}
	})
	dec := perCall(rounds, func() {
		for _, c := range captures {
			sinkhole, _ = wire.DecodeValue(c.enc)
		}
	})
	runtime.ReadMemStats(&ms1)
	out["wire.encode_ns_per_msg"] = metric{Value: enc / per, N: n}
	out["wire.decode_ns_per_msg"] = metric{Value: dec / per, N: n}
	out["wire.bytes_per_msg"] = metric{Value: bytes / per, N: len(captures)}
	out["wire.allocs_per_msg"] = metric{Value: float64(ms1.Mallocs-ms0.Mallocs) / ((rounds + 1) * per), N: n}
	return out, nil
}

// isolatedReliable wires two endpoints back to back and times Send on one
// and Handle of the resulting data envelope on the other, one envelope in
// flight at a time; it returns the medians.
func isolatedReliable(n int) (sendNs, handleNs float64) {
	var a, b *reliable.Endpoint
	handled := make(chan int64, 1)
	deliver := func(ids.NodeID, string, any) {}
	a = reliable.New(reliable.Config{}, 1, func(m netsim.Message) error {
		t := time.Now()
		b.Handle(m)
		if d := time.Since(t).Nanoseconds(); m.Kind == reliable.KindData {
			select {
			case handled <- d:
			default: // a retransmission nobody is waiting for
			}
		}
		return nil
	}, deliver, nil)
	b = reliable.New(reliable.Config{}, 2, func(m netsim.Message) error { a.Handle(m); return nil }, deliver, nil)
	payload := make([]byte, payloadLen)
	sends, handles := make([]float64, 0, n), make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		_ = a.Send(2, "rpc.req", payload) // errors only once closed
		sends = append(sends, float64(time.Since(t).Nanoseconds()))
		select {
		case d := <-handled:
			handles = append(handles, float64(d))
		case <-time.After(time.Second):
		}
	}
	a.Close()
	b.Close()
	return median(sends), median(handles)
}

// isolatedWAL times Append and Sync with real fsync under four concurrent
// appenders of 128-byte records.
func isolatedWAL(scratch string, put func(string, float64, int)) error {
	dir, err := os.MkdirTemp(scratch, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	const appenders, rounds = 4, 25
	var (
		wg               sync.WaitGroup
		appendNs, syncNs atomic.Int64
		firstErr         atomic.Value
	)
	rec := make([]byte, 128)
	t := time.Now()
	for i := 0; i < appenders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				t0 := time.Now()
				_, err := log.Append(1, rec)
				t1 := time.Now()
				if err == nil {
					err = log.Sync()
				}
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				appendNs.Add(t1.Sub(t0).Nanoseconds())
				syncNs.Add(time.Since(t1).Nanoseconds())
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(t)
	if err := log.Close(); err != nil {
		return err
	}
	if err, _ := firstErr.Load().(error); err != nil {
		return err
	}
	const n = appenders * rounds
	meanSync := float64(syncNs.Load()) / n
	put("wal.append_ns", float64(appendNs.Load())/n, n)
	put("wal.sync_us", meanSync/1e3, n)
	put("wal.records_per_sync", n*meanSync/float64(elapsed.Nanoseconds()), n)
	return nil
}
