package netsim

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/testutil"
	"repro/internal/vclock"
)

// Batching must not reorder a (sender, receiver) pair's messages, whatever
// mix of bare sends, size flushes and timer flushes carries them: every
// post for a link happens under the link lock, and a frame rides the same
// sender-keyed inbox shard as a bare message.
func TestBatchFIFOAcrossFrames(t *testing.T) {
	const (
		senders   = 2
		perSender = 400
		receiver  = ids.NodeID(9)
	)
	var (
		mu       sync.Mutex
		bySender = make(map[ids.NodeID][]int)
	)
	f := New(Config{
		DispatchWorkers: 4,
		Batch:           BatchConfig{Enabled: true, MaxMsgs: 4, FlushInterval: time.Millisecond},
	})
	h := func(m Message) {
		mu.Lock()
		bySender[m.From] = append(bySender[m.From], m.Payload.(int))
		mu.Unlock()
	}
	if err := f.Attach(receiver, h); err != nil {
		t.Fatalf("Attach receiver: %v", err)
	}
	for s := 1; s <= senders; s++ {
		if err := f.Attach(ids.NodeID(s), nil); err != nil {
			t.Fatalf("Attach sender %d: %v", s, err)
		}
	}
	f.Start()
	defer f.Close(context.Background())

	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		wg.Add(1)
		go func(from ids.NodeID) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := f.Send(Message{From: from, To: receiver, Kind: "seq", Payload: i}); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
				if i%16 == 0 {
					// Periodic pauses past the flush window mix all three
					// departure paths: bare sends, size flushes, timer flushes.
					time.Sleep(1200 * time.Microsecond)
				}
			}
		}(ids.NodeID(s))
	}
	wg.Wait()
	testutil.WaitFor(t, "all batched messages delivered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		total := 0
		for _, seq := range bySender {
			total += len(seq)
		}
		return total == senders*perSender
	})

	mu.Lock()
	defer mu.Unlock()
	for from, seq := range bySender {
		for i, v := range seq {
			if v != i {
				t.Fatalf("sender %v: delivery %d carried payload %d — per-pair FIFO violated across batch boundaries", from, i, v)
			}
		}
	}
	snap := f.Metrics().Snapshot()
	if snap.Get(metrics.CtrBatchFrames) == 0 {
		t.Fatal("no batch frames shipped: the test never exercised coalescing")
	}
	if snap.Get(metrics.CtrBatchSolo) == 0 {
		t.Fatal("no bare sends: the test never exercised the idle-link path")
	}
}

// A virtual clock forces batching off no matter what the config asks for:
// the simulation digest depends on per-message delivery, and flush timers
// would interleave with protocol timers in the virtual heap.
func TestBatchForcedOffUnderVirtualClock(t *testing.T) {
	v := vclock.NewVirtual()
	f := New(Config{Batch: BatchConfig{Enabled: true}, Clock: v})
	defer f.Close(context.Background())
	if f.Batching() {
		t.Fatal("batching stayed on under a virtual clock")
	}
	if err := f.Attach(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Attach(2, func(Message) {}); err != nil {
		t.Fatal(err)
	}
	f.Start()
	const n = 20
	for i := 0; i < n; i++ {
		if err := f.Send(Message{From: 1, To: 2, Kind: "seq", Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	snap := f.Metrics().Snapshot()
	if got := snap.Get(metrics.CtrMsgSent); got != n {
		t.Fatalf("net.msg.sent = %d under virtual clock, want %d (one per message)", got, n)
	}
	if got := snap.Get(metrics.CtrBatchFrames); got != 0 {
		t.Fatalf("batch.frames = %d under virtual clock, want 0", got)
	}

	real := New(Config{Batch: BatchConfig{Enabled: true}})
	defer real.Close(context.Background())
	if !real.Batching() {
		t.Fatal("batching off under a real clock despite Enabled")
	}
}

// A hot link's burst must collapse into far fewer physical messages, with
// every logical message accounted for as either a frame record or a bare
// send.
func TestBatchCoalescesUnderLoad(t *testing.T) {
	const n = 300
	var delivered atomic.Int64
	f := New(Config{Batch: BatchConfig{Enabled: true}})
	if err := f.Attach(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Attach(2, func(Message) { delivered.Add(1) }); err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Close(context.Background())
	for i := 0; i < n; i++ {
		if err := f.Send(Message{From: 1, To: 2, Kind: "burst", Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	testutil.WaitFor(t, "burst delivered", func() bool { return delivered.Load() == n })

	snap := f.Metrics().Snapshot()
	sent := snap.Get(metrics.CtrMsgSent)
	if sent >= n/3 {
		t.Fatalf("net.msg.sent = %d for %d logical messages, want < %d (coalescing never engaged)", sent, n, n/3)
	}
	recs := snap.Get(metrics.CtrBatchRecs)
	solo := snap.Get(metrics.CtrBatchSolo)
	if recs+solo != n {
		t.Fatalf("batch.recs (%d) + batch.solo (%d) = %d, want %d: logical messages lost or double-counted", recs, solo, recs+solo, n)
	}
	if frames := snap.Get(metrics.CtrBatchFrames); frames+solo != sent {
		t.Fatalf("batch.frames (%d) + batch.solo (%d) != net.msg.sent (%d)", frames, solo, sent)
	}
}

// The coalescing path must not allocate per message once the link and its
// frame are warm: the whole point of batching is to make the sustained hot
// path cheaper, and a per-send allocation would hand the savings back to
// the collector.
func TestBatchSendZeroAllocs(t *testing.T) {
	f := New(Config{Batch: BatchConfig{
		Enabled:       true,
		MaxMsgs:       1 << 20, // never flush during the measurement
		MaxBytes:      1 << 30,
		FlushInterval: time.Hour,
	}})
	if err := f.Attach(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Attach(2, func(Message) {}); err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Close(context.Background())
	payload := []byte("hot-path")
	m := Message{From: 1, To: 2, Kind: "invoke.req", Payload: payload, Size: len(payload)}
	// Warm: the first send ships bare, the second creates the link's frame
	// and arms its timer; the rest grow the record slice well past what the
	// measurement appends, so no growth realloc lands in the measured runs.
	for i := 0; i < 5000; i++ {
		if err := f.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := f.Send(m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("batched Send allocates %.1f objects/op on the warm path, want 0", allocs)
	}
}

type riderPayload int

func (riderPayload) RidesOnly() {}

// A batch.Rider (the reliable layer's standalone ack) ships bare when
// nothing is pending and does not count as a departure — the message after
// it still finds the link idle — and joins a pending frame when there is
// one. Counts, not times: the window is an hour, the frame flushes on size.
func TestBatchRiderDoesNotOpenWindow(t *testing.T) {
	var (
		mu  sync.Mutex
		got []any
	)
	f := New(Config{Batch: BatchConfig{Enabled: true, MaxMsgs: 2, FlushInterval: time.Hour}})
	if err := f.Attach(1, nil); err != nil {
		t.Fatal(err)
	}
	h := func(m Message) {
		mu.Lock()
		got = append(got, m.Payload)
		mu.Unlock()
	}
	if err := f.Attach(2, h); err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Close(context.Background())

	sent := []any{
		riderPayload(1), // idle link: bare, window untouched
		"d1",            // still idle: bare, opens the window
		riderPayload(2), // window open, nothing pending: bare all the same
		"d2",            // inside the window: starts a frame
		riderPayload(3), // rides the frame and fills it
	}
	for _, p := range sent {
		if err := f.Send(Message{From: 1, To: 2, Kind: "k", Payload: p}); err != nil {
			t.Fatal(err)
		}
	}
	testutil.WaitFor(t, "all five delivered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == len(sent)
	})
	mu.Lock()
	defer mu.Unlock()
	for i := range sent {
		if got[i] != sent[i] {
			t.Fatalf("delivery %d = %v, want %v (order %v)", i, got[i], sent[i], got)
		}
	}
	snap := f.Metrics().Snapshot()
	if solo, frames, recs := snap.Get(metrics.CtrBatchSolo), snap.Get(metrics.CtrBatchFrames), snap.Get(metrics.CtrBatchRecs); solo != 3 || frames != 1 || recs != 2 {
		t.Fatalf("batch.solo %d, batch.frames %d, batch.recs %d; want 3, 1, 2", solo, frames, recs)
	}
}
