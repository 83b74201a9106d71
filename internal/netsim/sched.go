package netsim

import (
	"container/heap"
	"time"

	"repro/internal/vclock"
)

// The fabric used to spawn one timer goroutine per delayed message, which
// meant a node fanning out a broadcast on a high-latency fabric paid one
// goroutine (and one runtime timer) per destination, and Send had to
// wg.Add after dropping the fabric lock — racing Close's wg.Wait. All
// delayed traffic now flows through a single scheduler goroutine driving a
// timer heap ordered by (deliverAt, seq): one timer total, messages with
// equal latency keep FIFO order per the sequence number, and the goroutine
// is registered with the pipeline once, in Start.

// delayedMsg is one in-flight message waiting out its simulated latency.
type delayedMsg struct {
	at  time.Time
	seq uint64
	m   Message
}

// delayHeap orders delayed messages by delivery time, then submission
// order, so constant-latency traffic stays FIFO per node pair.
type delayHeap []*delayedMsg

func (h delayHeap) Len() int { return len(h) }
func (h delayHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h delayHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *delayHeap) Push(x any) { *h = append(*h, x.(*delayedMsg)) }
func (h *delayHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// enqueueDelayed adds m to the timer heap and nudges the scheduler. Under
// a virtual clock the fabric's own heap is bypassed: each delayed message
// becomes one virtual timer, which unifies the two schedulers — the
// virtual clock's (deadline, seq) heap plays exactly the role this file's
// delayHeap plays for the machine clock, so delivery order is identical
// and the simulation driver sees every in-flight message as a pending
// timer it can advance over.
func (f *Fabric) enqueueDelayed(m Message, delay time.Duration) {
	if _, ok := f.clk.(*vclock.Virtual); ok {
		f.clk.AfterFunc(delay, func() { f.Deliver(m) })
		return
	}
	f.schedMu.Lock()
	f.schedSeq++
	heap.Push(&f.schedHeap, &delayedMsg{at: f.clk.Now().Add(delay), seq: f.schedSeq, m: m})
	f.schedMu.Unlock()
	select {
	case f.schedWake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// schedule is the fabric's single delayed-delivery goroutine. It sleeps
// until the earliest queued message is due (or a new message arrives with
// an earlier deadline), delivers everything due, and repeats until Close.
func (f *Fabric) schedule() {
	timer := f.clk.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		wait := f.deliverDue()
		if wait < 0 {
			// Heap empty: sleep until a Send queues something.
			select {
			case <-f.Done():
				return
			case <-f.schedWake:
			}
			continue
		}
		timer.Reset(wait)
		select {
		case <-f.Done():
			timer.Stop()
			return
		case <-f.schedWake:
			// New message — it may be due earlier than the current head.
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		case <-timer.C:
		}
	}
}

// deliverDue hands every due message to its destination inbox in heap
// order and returns the wait until the next one (negative if none queued).
func (f *Fabric) deliverDue() time.Duration {
	for {
		f.schedMu.Lock()
		if len(f.schedHeap) == 0 {
			f.schedMu.Unlock()
			return -1
		}
		head := f.schedHeap[0]
		now := f.clk.Now()
		if wait := head.at.Sub(now); wait > 0 {
			f.schedMu.Unlock()
			return wait
		}
		heap.Pop(&f.schedHeap)
		f.schedMu.Unlock()
		// Delivery can block on a full inbox; do it outside the heap lock
		// so Sends keep queueing. Close unblocks it. A QoS reject here is a
		// silent shed, already counted.
		f.Deliver(head.m)
	}
}
