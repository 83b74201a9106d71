package dsm

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/ids"
	"repro/internal/metrics"
)

// loopback wires managers together directly, counting calls per kind.
type loopback struct {
	mu       sync.Mutex
	managers map[ids.NodeID]*Manager
	calls    map[string]int
	// intercept, when set, stands between a call and its service: serve
	// runs the request at the callee, and the hook decides when.
	intercept func(caller, to ids.NodeID, kind string, serve func() (any, error)) (any, error)
}

func newLoopback() *loopback {
	return &loopback{
		managers: make(map[ids.NodeID]*Manager),
		calls:    make(map[string]int),
	}
}

// peer is the per-node view of the loopback.
type peer struct {
	lb   *loopback
	node ids.NodeID
}

func (p *peer) Call(to ids.NodeID, kind string, req any) (any, error) {
	p.lb.mu.Lock()
	p.lb.calls[kind]++
	m, ok := p.lb.managers[to]
	intercept := p.lb.intercept
	p.lb.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("loopback: no manager at %v", to)
	}
	serve := func() (any, error) { return m.HandleRequest(kind, req) }
	if intercept != nil {
		return intercept(p.node, to, kind, serve)
	}
	return serve()
}

func (lb *loopback) callCount(kind string) int {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.calls[kind]
}

// cluster builds n managers with a shared loopback transport.
func cluster(t *testing.T, n, pageSize int) (*loopback, []*Manager) {
	t.Helper()
	lb := newLoopback()
	mgrs := make([]*Manager, n)
	for i := 0; i < n; i++ {
		node := ids.NodeID(i + 1)
		m := NewManager(Config{
			Node:      node,
			PageSize:  pageSize,
			Transport: &peer{lb: lb, node: node},
			Metrics:   metrics.NewRegistry(),
		})
		lb.managers[node] = m
		mgrs[i] = m
	}
	return lb, mgrs
}

func TestCreateSegmentValidation(t *testing.T) {
	_, mgrs := cluster(t, 2, 64)
	if _, err := mgrs[0].CreateSegment(ids.NewSegmentID(2, 1), 128, false); err == nil {
		t.Error("CreateSegment for foreign home succeeded")
	}
	if _, err := mgrs[0].CreateSegment(ids.NewSegmentID(1, 1), 0, false); err == nil {
		t.Error("CreateSegment with size 0 succeeded")
	}
	seg := ids.NewSegmentID(1, 2)
	if _, err := mgrs[0].CreateSegment(seg, 128, false); err != nil {
		t.Fatal(err)
	}
	if _, err := mgrs[0].CreateSegment(seg, 128, false); err == nil {
		t.Error("duplicate CreateSegment succeeded")
	}
}

func TestMetaPages(t *testing.T) {
	cases := []struct {
		size, pageSize, want int
	}{
		{100, 64, 2},
		{128, 64, 2},
		{129, 64, 3},
		{1, 64, 1},
	}
	for _, tc := range cases {
		m := Meta{Size: tc.size, PageSize: tc.pageSize}
		if got := m.Pages(); got != tc.want {
			t.Errorf("Pages(size=%d,ps=%d) = %d, want %d", tc.size, tc.pageSize, got, tc.want)
		}
	}
}

func TestLocalReadWrite(t *testing.T) {
	_, mgrs := cluster(t, 1, 64)
	seg := ids.NewSegmentID(1, 1)
	if _, err := mgrs[0].CreateSegment(seg, 256, false); err != nil {
		t.Fatal(err)
	}
	data := []byte("hello dsm world")
	if err := mgrs[0].Write(seg, 10, data); err != nil {
		t.Fatal(err)
	}
	got, err := mgrs[0].Read(seg, 10, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Read = %q, want %q", got, data)
	}
}

func TestReadSpanningPages(t *testing.T) {
	_, mgrs := cluster(t, 1, 16)
	seg := ids.NewSegmentID(1, 1)
	if _, err := mgrs[0].CreateSegment(seg, 64, false); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 50)
	for i := range data {
		data[i] = byte(i)
	}
	if err := mgrs[0].Write(seg, 5, data); err != nil {
		t.Fatal(err)
	}
	got, err := mgrs[0].Read(seg, 5, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("cross-page Read mismatch")
	}
}

func TestOutOfRange(t *testing.T) {
	_, mgrs := cluster(t, 1, 64)
	seg := ids.NewSegmentID(1, 1)
	if _, err := mgrs[0].CreateSegment(seg, 100, false); err != nil {
		t.Fatal(err)
	}
	if _, err := mgrs[0].Read(seg, 90, 20); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Read past end err = %v, want ErrOutOfRange", err)
	}
	if _, err := mgrs[0].Read(seg, -1, 5); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("negative Read err = %v", err)
	}
	if err := mgrs[0].Write(seg, 95, make([]byte, 10)); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Write past end err = %v, want ErrOutOfRange", err)
	}
}

func TestUnknownSegment(t *testing.T) {
	_, mgrs := cluster(t, 1, 64)
	if _, err := mgrs[0].Read(ids.NewSegmentID(1, 9), 0, 1); !errors.Is(err, ErrUnknownSegment) {
		t.Errorf("err = %v, want ErrUnknownSegment", err)
	}
}

func TestRemoteReadFetchesFromHome(t *testing.T) {
	lb, mgrs := cluster(t, 2, 64)
	seg := ids.NewSegmentID(1, 1)
	if _, err := mgrs[0].CreateSegment(seg, 128, false); err != nil {
		t.Fatal(err)
	}
	if err := mgrs[0].Write(seg, 0, []byte("remote")); err != nil {
		t.Fatal(err)
	}
	got, err := mgrs[1].Read(seg, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "remote" {
		t.Fatalf("remote Read = %q", got)
	}
	if lb.callCount(MsgMeta) != 1 {
		t.Errorf("meta calls = %d, want 1", lb.callCount(MsgMeta))
	}
	if lb.callCount(MsgRead) != 1 {
		t.Errorf("read calls = %d, want 1", lb.callCount(MsgRead))
	}

	// Second read hits the local cache: no more protocol traffic.
	before := lb.callCount(MsgRead)
	if _, err := mgrs[1].Read(seg, 0, 6); err != nil {
		t.Fatal(err)
	}
	if lb.callCount(MsgRead) != before {
		t.Error("cached read went to the network")
	}
}

func TestWriteInvalidatesReaders(t *testing.T) {
	lb, mgrs := cluster(t, 3, 64)
	seg := ids.NewSegmentID(1, 1)
	if _, err := mgrs[0].CreateSegment(seg, 64, false); err != nil {
		t.Fatal(err)
	}
	if err := mgrs[0].Write(seg, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	// Nodes 2 and 3 read, acquiring shared copies.
	for _, m := range mgrs[1:] {
		if got, err := m.Read(seg, 0, 1); err != nil || got[0] != 1 {
			t.Fatalf("Read = %v, %v", got, err)
		}
	}
	// Node 2 writes: node 3's copy must be invalidated.
	if err := mgrs[1].Write(seg, 0, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if lb.callCount(MsgInv) == 0 {
		t.Error("no invalidations sent on write fault")
	}
	if got, err := mgrs[2].Read(seg, 0, 1); err != nil || got[0] != 2 {
		t.Fatalf("node3 read stale data: %v, %v", got, err)
	}
	if got, err := mgrs[0].Read(seg, 0, 1); err != nil || got[0] != 2 {
		t.Fatalf("home read stale data: %v, %v", got, err)
	}
}

func TestOwnershipMigratesToWriter(t *testing.T) {
	lb, mgrs := cluster(t, 2, 64)
	seg := ids.NewSegmentID(1, 1)
	if _, err := mgrs[0].CreateSegment(seg, 64, false); err != nil {
		t.Fatal(err)
	}
	if err := mgrs[1].Write(seg, 0, []byte{7}); err != nil {
		t.Fatal(err)
	}
	// Node 2 now owns the page exclusively: further writes are local.
	before := lb.callCount(MsgWrite)
	for i := 0; i < 10; i++ {
		if err := mgrs[1].Write(seg, 1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if lb.callCount(MsgWrite) != before {
		t.Error("exclusive owner still write-faulting to home")
	}
	// Home reading must pull the page back from the new owner.
	got, err := mgrs[0].Read(seg, 0, 1)
	if err != nil || got[0] != 7 {
		t.Fatalf("home Read = %v, %v", got, err)
	}
	if lb.callCount(MsgDegrade) == 0 {
		t.Error("home read did not degrade the remote owner")
	}
}

func TestSharedUpgradeNeedsNoData(t *testing.T) {
	lb, mgrs := cluster(t, 2, 64)
	seg := ids.NewSegmentID(1, 1)
	if _, err := mgrs[0].CreateSegment(seg, 64, false); err != nil {
		t.Fatal(err)
	}
	if err := mgrs[0].Write(seg, 0, []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	if _, err := mgrs[1].Read(seg, 0, 4); err != nil {
		t.Fatal(err)
	}
	// Node 2 holds a shared copy; upgrading to write must preserve the
	// rest of the page.
	if err := mgrs[1].Write(seg, 0, []byte{'X'}); err != nil {
		t.Fatal(err)
	}
	got, err := mgrs[1].Read(seg, 0, 4)
	if err != nil || string(got) != "Xbcd" {
		t.Fatalf("after upgrade, Read = %q, %v", got, err)
	}
	if got, err := mgrs[0].Read(seg, 0, 4); err != nil || string(got) != "Xbcd" {
		t.Fatalf("home sees %q, %v", got, err)
	}
	_ = lb
}

func TestSequentialConsistencySingleWriter(t *testing.T) {
	// With a single writer and many readers, every reader eventually sees
	// the final value and never sees values out of order going backwards
	// after a fresh fault.
	_, mgrs := cluster(t, 4, 64)
	seg := ids.NewSegmentID(1, 1)
	if _, err := mgrs[0].CreateSegment(seg, 64, false); err != nil {
		t.Fatal(err)
	}
	for v := byte(1); v <= 20; v++ {
		if err := mgrs[0].Write(seg, 0, []byte{v}); err != nil {
			t.Fatal(err)
		}
		for _, m := range mgrs[1:] {
			got, err := m.Read(seg, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != v {
				t.Fatalf("reader saw %d after writer stored %d", got[0], v)
			}
		}
	}
}

func TestConcurrentWritersDistinctPages(t *testing.T) {
	_, mgrs := cluster(t, 4, 64)
	seg := ids.NewSegmentID(1, 1)
	if _, err := mgrs[0].CreateSegment(seg, 64*4, false); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i, m := range mgrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			off := i * 64
			for v := 0; v < 50; v++ {
				if err := m.Write(seg, off, []byte{byte(v)}); err != nil {
					t.Errorf("Write: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := range mgrs {
		got, err := mgrs[0].Read(seg, i*64, 1)
		if err != nil || got[0] != 49 {
			t.Fatalf("page %d final = %v, %v", i, got, err)
		}
	}
}

func TestConcurrentWritersSamePageNoLostFinalState(t *testing.T) {
	_, mgrs := cluster(t, 3, 64)
	seg := ids.NewSegmentID(1, 1)
	if _, err := mgrs[0].CreateSegment(seg, 64, false); err != nil {
		t.Fatal(err)
	}
	// Each manager writes to its own byte of a single page, concurrently.
	var wg sync.WaitGroup
	for i, m := range mgrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := 1; v <= 30; v++ {
				if err := m.Write(seg, i, []byte{byte(v)}); err != nil {
					t.Errorf("Write: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, err := mgrs[1].Read(seg, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 30 {
			t.Fatalf("byte %d = %d, want 30 (lost update under contention)", i, b)
		}
	}
}

// condWaiting reports whether some goroutine is parked in sync.Cond.Wait.
func condWaiting() bool {
	buf := make([]byte, 1<<16)
	return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("sync.(*Cond).Wait"))
}

// The home commits a write grant and unlocks the page's directory entry
// before the new owner has the page, so the next writer's take can reach
// the new owner first. Here node 3's grant is parked in the transport while
// node 2 faults on the same page: the take must wait for the grant, and
// both writes must survive. (It used to fail "take of page 0 not held at
// node3", losing node 2's write.)
func TestTakeWaitsForGrantInFlight(t *testing.T) {
	lb, mgrs := cluster(t, 3, 64)
	seg := ids.NewSegmentID(1, 1)
	if _, err := mgrs[0].CreateSegment(seg, 64, false); err != nil {
		t.Fatal(err)
	}
	parked := make(chan struct{})
	release := make(chan struct{})
	var parkOnce, releaseOnce sync.Once
	lb.intercept = func(caller, to ids.NodeID, kind string, serve func() (any, error)) (any, error) {
		switch {
		case caller == 3 && kind == MsgWrite:
			reply, err := serve()
			parkOnce.Do(func() { close(parked) })
			<-release
			return reply, err
		case to == 3 && kind == MsgTake:
			// Let the grant through only once the take has been answered
			// or is waiting for it — never before it has looked.
			type result struct {
				reply any
				err   error
			}
			done := make(chan result, 1)
			go func() {
				reply, err := serve()
				done <- result{reply, err}
			}()
			for {
				select {
				case r := <-done:
					releaseOnce.Do(func() { close(release) })
					return r.reply, r.err
				default:
				}
				if condWaiting() {
					releaseOnce.Do(func() { close(release) })
				}
				runtime.Gosched()
			}
		}
		return serve()
	}

	wrote3 := make(chan error, 1)
	go func() { wrote3 <- mgrs[2].Write(seg, 0, []byte{3}) }()
	<-parked
	if err := mgrs[1].Write(seg, 1, []byte{2}); err != nil {
		t.Fatalf("node 2's write while node 3's grant is in flight: %v", err)
	}
	if err := <-wrote3; err != nil {
		t.Fatalf("node 3's write: %v", err)
	}
	got, err := mgrs[0].Read(seg, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 2 {
		t.Fatalf("bytes = %v, want [3 2] (a write was lost)", got)
	}
}

func TestUserPagedFaultGoesToPager(t *testing.T) {
	_, mgrs := cluster(t, 2, 64)
	seg := ids.NewSegmentID(1, 1)
	if _, err := mgrs[0].CreateSegment(seg, 128, true); err != nil {
		t.Fatal(err)
	}
	var faults []int
	mgrs[0].SetUserFaultHandler(func(s ids.SegmentID, page int, write bool) ([]byte, error) {
		faults = append(faults, page)
		data := make([]byte, 64)
		data[0] = byte(100 + page)
		return data, nil
	})
	got, err := mgrs[0].Read(seg, 0, 1)
	if err != nil || got[0] != 100 {
		t.Fatalf("Read = %v, %v", got, err)
	}
	got, err = mgrs[0].Read(seg, 64, 1)
	if err != nil || got[0] != 101 {
		t.Fatalf("Read page1 = %v, %v", got, err)
	}
	if len(faults) != 2 {
		t.Fatalf("pager saw %v faults, want [0 1]", faults)
	}
	// Cached after install: no further faults.
	if _, err := mgrs[0].Read(seg, 0, 1); err != nil {
		t.Fatal(err)
	}
	if len(faults) != 2 {
		t.Fatal("cached user page refaulted")
	}
}

func TestUserPagedNoPager(t *testing.T) {
	_, mgrs := cluster(t, 1, 64)
	seg := ids.NewSegmentID(1, 1)
	if _, err := mgrs[0].CreateSegment(seg, 64, true); err != nil {
		t.Fatal(err)
	}
	if _, err := mgrs[0].Read(seg, 0, 1); !errors.Is(err, ErrNoPager) {
		t.Fatalf("err = %v, want ErrNoPager", err)
	}
}

func TestInstallAndDropPage(t *testing.T) {
	_, mgrs := cluster(t, 2, 64)
	seg := ids.NewSegmentID(1, 1)
	if _, err := mgrs[0].CreateSegment(seg, 64, true); err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 64)
	page[0] = 42
	if err := mgrs[0].InstallPage(seg, 0, page); err != nil {
		t.Fatal(err)
	}
	got, ok := mgrs[0].CachedPage(seg, 0)
	if !ok || got[0] != 42 {
		t.Fatalf("CachedPage = %v, %v", got, ok)
	}
	// Reads served from the installed page with no pager.
	if v, err := mgrs[0].Read(seg, 0, 1); err != nil || v[0] != 42 {
		t.Fatalf("Read = %v, %v", v, err)
	}
	if err := mgrs[0].DropPage(seg, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := mgrs[0].CachedPage(seg, 0); ok {
		t.Fatal("page cached after DropPage")
	}
}

func TestInstallPageOnKernelSegmentFails(t *testing.T) {
	_, mgrs := cluster(t, 1, 64)
	seg := ids.NewSegmentID(1, 1)
	if _, err := mgrs[0].CreateSegment(seg, 64, false); err != nil {
		t.Fatal(err)
	}
	if err := mgrs[0].InstallPage(seg, 0, make([]byte, 64)); err == nil {
		t.Fatal("InstallPage on kernel segment succeeded")
	}
	if err := mgrs[0].DropPage(seg, 0); err != nil {
		t.Fatal(err) // DropPage is allowed anywhere
	}
}

func TestHandleRequestBadPayloads(t *testing.T) {
	_, mgrs := cluster(t, 1, 64)
	for _, kind := range []string{MsgMeta, MsgRead, MsgWrite, MsgDegrade, MsgTake, MsgInv} {
		if _, err := mgrs[0].HandleRequest(kind, "garbage"); !errors.Is(err, ErrBadRequest) {
			t.Errorf("HandleRequest(%s, garbage) err = %v, want ErrBadRequest", kind, err)
		}
	}
	if _, err := mgrs[0].HandleRequest("nope", nil); !errors.Is(err, ErrBadRequest) {
		t.Errorf("unknown kind err = %v, want ErrBadRequest", err)
	}
}

func TestFaultCountersAdvance(t *testing.T) {
	lb, mgrs := cluster(t, 2, 64)
	seg := ids.NewSegmentID(1, 1)
	if _, err := mgrs[0].CreateSegment(seg, 64, false); err != nil {
		t.Fatal(err)
	}
	_ = lb
	reg2 := metrics.NewRegistry()
	// Rebuild node 2 with a fresh registry to count its faults precisely.
	m2 := NewManager(Config{Node: 2, PageSize: 64, Transport: &peer{lb: lb, node: 2}, Metrics: reg2})
	lb.mu.Lock()
	lb.managers[2] = m2
	lb.mu.Unlock()

	if _, err := m2.Read(seg, 0, 1); err != nil {
		t.Fatal(err)
	}
	if got := reg2.Get(metrics.CtrPageFault); got != 1 {
		t.Errorf("fault counter = %d, want 1", got)
	}
}

// Property: writing arbitrary data at arbitrary offsets then reading it
// back returns exactly what was written (single node).
func TestWriteReadRoundTripProperty(t *testing.T) {
	_, mgrs := cluster(t, 1, 32)
	seg := ids.NewSegmentID(1, 1)
	const size = 1024
	if _, err := mgrs[0].CreateSegment(seg, size, false); err != nil {
		t.Fatal(err)
	}
	f := func(off uint16, data []byte) bool {
		o := int(off) % size
		if o+len(data) > size {
			if len(data) > size {
				data = data[:size]
			}
			o = size - len(data)
		}
		if err := mgrs[0].Write(seg, o, data); err != nil {
			return false
		}
		got, err := mgrs[0].Read(seg, o, len(data))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWriteUpgradeRelinquishesRemoteOwner(t *testing.T) {
	// Build the state where the writer already holds a shared copy and the
	// owner is a third (remote) node: the directory must make that owner
	// relinquish without a data transfer.
	lb, mgrs := cluster(t, 3, 64)
	seg := ids.NewSegmentID(1, 1)
	if _, err := mgrs[0].CreateSegment(seg, 64, false); err != nil {
		t.Fatal(err)
	}
	// Node 2 writes: ownership moves to node 2.
	if err := mgrs[1].Write(seg, 0, []byte{5}); err != nil {
		t.Fatal(err)
	}
	// Node 3 reads: shared copy at node 3, owner still node 2.
	if got, err := mgrs[2].Read(seg, 0, 1); err != nil || got[0] != 5 {
		t.Fatalf("read = %v, %v", got, err)
	}
	// Node 3 writes: it has a current shared copy, so no data transfer is
	// needed, but node 2 (owner) must drop its copy.
	invBefore := lb.callCount(MsgInv)
	if err := mgrs[2].Write(seg, 0, []byte{6}); err != nil {
		t.Fatal(err)
	}
	if lb.callCount(MsgInv) <= invBefore {
		t.Error("owner was not told to relinquish")
	}
	// Everyone converges on the new value.
	for i, m := range mgrs {
		if got, err := m.Read(seg, 0, 1); err != nil || got[0] != 6 {
			t.Fatalf("node %d sees %v, %v", i+1, got, err)
		}
	}
}

func TestManagerAccessors(t *testing.T) {
	_, mgrs := cluster(t, 2, 64)
	if mgrs[0].Node() != 1 {
		t.Errorf("Node() = %v", mgrs[0].Node())
	}
	seg := ids.NewSegmentID(1, 1)
	if _, err := mgrs[0].CreateSegment(seg, 100, false); err != nil {
		t.Fatal(err)
	}
	meta, err := mgrs[1].Meta(seg) // remote fetch
	if err != nil || meta.Size != 100 || meta.PageSize != 64 {
		t.Fatalf("Meta = %+v, %v", meta, err)
	}
}
