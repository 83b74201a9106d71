// Package qdisc implements the per-shard QoS queueing discipline shared by
// internal/netsim and internal/transport/tcptransport (DESIGN.md §15):
// strict-priority system/control queues on top of deficit-weighted
// round-robin (DWRR) scheduling across tenant classes, with bounded
// tenant admission and weight-ordered overload shedding.
//
// Invariants:
//   - system/control messages are always admitted (their queues are
//     unbounded — kernel traffic is self-limiting) and always pop before
//     any tenant work;
//   - tenant classes share one Depth budget per shard. When it is full, an
//     incoming message may evict the head of the lowest-weight backlogged
//     tenant class, but only if that victim's weight is strictly lower
//     than its own; otherwise the incoming message itself is rejected
//     (Offer returns false → transport.ErrBackpressure at the sender);
//   - among backlogged tenant classes, service is proportional to weight:
//     each round a class is credited Quantum×weight bytes of deficit and
//     drains until the head message costs more than its remaining deficit.
//
// A Queue has exactly one consumer (the shard's dispatch goroutine); Offer
// may be called from any number of producers. The steady-state Offer/Pop
// path is zero-alloc: per-class state and metric handles are interned on
// first touch and ring buffers stop growing once sized to the backlog.
package qdisc

import (
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/transport"
)

// classQ is one class's ring buffer plus its DWRR state and interned
// metric handles.
type classQ struct {
	class  transport.Class
	weight int

	buf  []transport.Message
	head int
	n    int

	deficit int  // DWRR byte credit carried across rounds
	fresh   bool // head-of-active visit should credit a new quantum
	active  bool // currently in Queue.active (backlogged)

	depth *atomic.Int64 // dispatch.q.<class>.depth gauge
	enq   *atomic.Int64 // dispatch.q.<class>.enq
	shed  *atomic.Int64 // dispatch.q.<class>.shed
}

func (c *classQ) push(m transport.Message) {
	if c.n == len(c.buf) {
		grown := make([]transport.Message, max(8, 2*len(c.buf)))
		for i := 0; i < c.n; i++ {
			grown[i] = c.buf[(c.head+i)%len(c.buf)]
		}
		c.buf, c.head = grown, 0
	}
	c.buf[(c.head+c.n)%len(c.buf)] = m
	c.n++
}

func (c *classQ) pop() transport.Message {
	m := c.buf[c.head]
	c.buf[c.head] = transport.Message{}
	c.head = (c.head + 1) % len(c.buf)
	c.n--
	return m
}

func (c *classQ) peek() transport.Message { return c.buf[c.head] }

// Queue is one dispatch shard's class-aware queue. Construct with New;
// the zero value is not usable.
type Queue struct {
	mu      sync.Mutex
	notify  chan struct{} // cap 1; wakes the single consumer
	depth   int           // shared tenant budget
	quantum int
	cfg     *transport.QoSConfig
	onShed  func(transport.Message)

	sys    *classQ      // ClassSystem, unbounded, strict priority
	ctl    *classQ      // ClassControl, unbounded, next priority
	tenant [254]*classQ // tenant classes 0..253, interned lazily
	active []*classQ    // backlogged tenant classes, DWRR order
	used   int          // total queued tenant messages
	reg    *metrics.Registry
}

// New builds a shard queue for cfg. depth is the resolved tenant budget
// (must be > 0). onShed, if non-nil, is called — under the queue lock, so
// it must not re-enter the Queue — once for every queued message evicted
// by a heavier class; admission rejections are reported to the producer
// via Offer's return instead.
func New(cfg *transport.QoSConfig, depth int, reg *metrics.Registry, onShed func(transport.Message)) *Queue {
	quantum := cfg.Quantum
	if quantum <= 0 {
		quantum = transport.DefaultQuantum
	}
	q := &Queue{
		notify:  make(chan struct{}, 1),
		depth:   depth,
		quantum: quantum,
		cfg:     cfg,
		onShed:  onShed,
		reg:     reg,
	}
	q.sys = q.newClass(transport.ClassSystem)
	q.ctl = q.newClass(transport.ClassControl)
	return q
}

// NewShard is New typed as transport.PipelineConfig.NewQueue wants it.
func NewShard(cfg *transport.QoSConfig, depth int, reg *metrics.Registry, onShed func(transport.Message)) transport.ClassQueue {
	return New(cfg, depth, reg, onShed)
}

func (q *Queue) newClass(c transport.Class) *classQ {
	name := c.Name()
	return &classQ{
		class:  c,
		weight: q.cfg.WeightOf(c),
		depth:  q.reg.Counter(metrics.DispatchQDepth(name)),
		enq:    q.reg.Counter(metrics.DispatchQEnq(name)),
		shed:   q.reg.Counter(metrics.DispatchQShed(name)),
	}
}

// classFor interns the tenant classQ for c. Caller holds q.mu.
func (q *Queue) classFor(c transport.Class) *classQ {
	if cq := q.tenant[c]; cq != nil {
		return cq
	}
	cq := q.newClass(c)
	q.tenant[c] = cq
	return cq
}

// wake nudges the consumer without blocking.
func (q *Queue) wake() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// Offer submits m for dispatch. It returns false when tenant admission
// rejects the message (budget full and no strictly-lighter victim to
// evict); system/control messages are always accepted.
func (q *Queue) Offer(m transport.Message) bool {
	q.mu.Lock()
	switch m.Class {
	case transport.ClassSystem:
		q.sys.push(m)
		q.sys.enq.Add(1)
		q.sys.depth.Add(1)
		q.mu.Unlock()
		q.wake()
		return true
	case transport.ClassControl:
		q.ctl.push(m)
		q.ctl.enq.Add(1)
		q.ctl.depth.Add(1)
		q.mu.Unlock()
		q.wake()
		return true
	}
	c := q.classFor(m.Class)
	if q.used >= q.depth {
		v := q.lightestBacklogged()
		if v == nil || v.weight >= c.weight {
			c.shed.Add(1)
			q.mu.Unlock()
			return false
		}
		vm := v.pop()
		q.used--
		v.shed.Add(1)
		v.depth.Add(-1)
		if v.n == 0 {
			q.deactivate(v)
		}
		if q.onShed != nil {
			q.onShed(vm)
		}
	}
	c.push(m)
	q.used++
	c.enq.Add(1)
	c.depth.Add(1)
	if !c.active {
		c.active = true
		c.fresh = true
		q.active = append(q.active, c)
	}
	q.mu.Unlock()
	q.wake()
	return true
}

// lightestBacklogged returns the backlogged tenant class with the lowest
// weight (nil if none). Caller holds q.mu.
func (q *Queue) lightestBacklogged() *classQ {
	var v *classQ
	for _, c := range q.active {
		if v == nil || c.weight < v.weight {
			v = c
		}
	}
	return v
}

// deactivate removes c from the active rotation and resets its DWRR
// state. Caller holds q.mu.
func (q *Queue) deactivate(c *classQ) {
	for i, a := range q.active {
		if a == c {
			copy(q.active[i:], q.active[i+1:])
			q.active[len(q.active)-1] = nil
			q.active = q.active[:len(q.active)-1]
			break
		}
	}
	c.active = false
	c.fresh = true
	c.deficit = 0
}

func msgCost(m transport.Message) int {
	if m.Size > 0 {
		return m.Size
	}
	return 1
}

// popLocked applies the scheduling policy: system, then control, then
// DWRR over backlogged tenant classes. Caller holds q.mu.
func (q *Queue) popLocked() (transport.Message, bool) {
	if q.sys.n > 0 {
		q.sys.depth.Add(-1)
		return q.sys.pop(), true
	}
	if q.ctl.n > 0 {
		q.ctl.depth.Add(-1)
		return q.ctl.pop(), true
	}
	for len(q.active) > 0 {
		c := q.active[0]
		if c.fresh {
			c.deficit += q.quantum * c.weight
			c.fresh = false
		}
		if cost := msgCost(c.peek()); c.deficit >= cost {
			m := c.pop()
			c.deficit -= cost
			c.depth.Add(-1)
			q.used--
			if c.n == 0 {
				q.deactivate(c)
			}
			return m, true
		}
		// Deficit exhausted for this round: rotate to the back, keeping
		// the remaining credit, and mark the next visit as a new round.
		copy(q.active, q.active[1:])
		q.active[len(q.active)-1] = c
		c.fresh = true
	}
	return transport.Message{}, false
}

// Pop blocks until a message is schedulable or done closes. The second
// return is false only on done. Pop must be called from a single consumer
// goroutine.
func (q *Queue) Pop(done <-chan struct{}) (transport.Message, bool) {
	for {
		q.mu.Lock()
		m, ok := q.popLocked()
		q.mu.Unlock()
		if ok {
			return m, true
		}
		select {
		case <-q.notify:
		case <-done:
			return transport.Message{}, false
		}
	}
}

// TryPop dequeues without blocking; ok is false when nothing is queued.
func (q *Queue) TryPop() (transport.Message, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.popLocked()
}

// Len returns the total number of queued messages across all classes.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.sys.n + q.ctl.n + q.used
}
