package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/transport/tcptransport"
)

// E14 — the cross-transport byte check (DESIGN.md §12). Both links charge
// a message what the wire codec writes for it; E14 runs the two canonical
// workloads over netsim and over real loopback TCP sockets — one System per
// node, every cross-node message through the binary wire codec — where
// net.msg.bytes counts record footprints plus the frame's record count. The
// payload bytes are the same figure on both, so the ×sim column is the
// price of TCP's per-record header and nothing else.

// e14Ops is the default per-workload operation count.
const e14Ops = 200

// RunE14 measures both workloads over both fabrics and reports the real
// TCP cost per operation next to the simulator's.
func RunE14(ops int) Table {
	if ops == 0 {
		ops = e14Ops
	}
	t := Table{
		ID:    "E14",
		Title: "real TCP wire bytes vs simulated bytes, one codec (DESIGN.md §12)",
		Headers: []string{
			"workload", "ops", "msgs", "wire B/op", "sim B/op", "×sim",
		},
	}
	for _, w := range []string{"invoke", "raise"} {
		realB, msgs, err := E14Cell(w, ops, true)
		if err != nil {
			panic(err)
		}
		simB, _, err := E14Cell(w, ops, false)
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{
			w, itoa(ops), i64(msgs), i64(realB / int64(ops)), i64(simB / int64(ops)),
			fmt.Sprintf("%.2f", float64(realB)/float64(simB)),
		})
	}
	t.Notes = append(t.Notes,
		"2 nodes, FT off; invoke = 200 synchronous no-op round trips node 1 → node 2, raise = 200 async interrupts at a remote sink, one one-way message each.",
		"wire B boots one System per node over loopback sockets (internal/transport/tcptransport); sim B is netsim on the identical workload. Both charge wire.EncodedSize(payload) per message.",
		"the residual is framing: a TCP record adds its kind, From/To/Class varints and two length prefixes (~14 B here); a netsim message adds its kind and one prefix only when it rides a coalesced frame (~10 B: about half of the invoke messages, nearly every one-way raise).",
	)
	return t
}

// E14Cell runs one workload over one fabric and returns total fabric
// bytes and messages. Exported so the acceptance test can check the
// residual directly.
func E14Cell(workload string, ops int, tcp bool) (bytes, msgs int64, err error) {
	var (
		systems map[ids.NodeID]*core.System
		regs    []*metrics.Registry
	)
	if tcp {
		systems, regs, err = bootE14TCP(2)
		if err != nil {
			return 0, 0, err
		}
	} else {
		sys := mustSystem(core.Config{Nodes: 2})
		systems = map[ids.NodeID]*core.System{1: sys, 2: sys}
		regs = []*metrics.Registry{sys.Metrics()}
	}
	defer func() {
		seen := map[*core.System]bool{}
		for _, s := range systems {
			if !seen[s] {
				seen[s] = true
				s.Close()
			}
		}
	}()

	var handled atomic.Int64
	target, err := systems[2].CreateObject(2, object.Spec{
		Name: "e14-target",
		Entries: map[string]object.Entry{
			"noop": func(_ object.Ctx, _ []any) ([]any, error) { return nil, nil },
		},
		Handlers: map[event.Name]object.Handler{
			event.Interrupt: func(_ object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
				handled.Add(1)
				return event.VerdictResume
			},
		},
	})
	if err != nil {
		return 0, 0, err
	}

	before := make([]metrics.Snapshot, len(regs))
	for i, r := range regs {
		before[i] = r.Snapshot()
	}

	switch workload {
	case "invoke":
		driver, err := systems[1].CreateObject(1, object.Spec{
			Name: "e14-driver",
			Entries: map[string]object.Entry{
				"run": func(ctx object.Ctx, _ []any) ([]any, error) {
					for i := 0; i < ops; i++ {
						if _, err := ctx.Invoke(target, "noop"); err != nil {
							return nil, err
						}
					}
					return nil, nil
				},
			},
		})
		if err != nil {
			return 0, 0, err
		}
		h, err := systems[1].Spawn(1, driver, "run")
		if err != nil {
			return 0, 0, err
		}
		if _, err := h.WaitTimeout(waitLong); err != nil {
			return 0, 0, err
		}
	case "raise":
		for i := 0; i < ops; i++ {
			if err := systems[1].Raise(1, event.Interrupt, event.ToObject(target), nil); err != nil {
				return 0, 0, err
			}
		}
		deadline := time.Now().Add(waitLong)
		for handled.Load() < int64(ops) {
			if time.Now().After(deadline) {
				return 0, 0, fmt.Errorf("e14 raise: %d/%d handled before timeout", handled.Load(), ops)
			}
			time.Sleep(time.Millisecond)
		}
	default:
		return 0, 0, fmt.Errorf("e14: unknown workload %q", workload)
	}

	for i, r := range regs {
		diff := r.Snapshot().Diff(before[i])
		bytes += diff.Get(metrics.CtrMsgBytes)
		msgs += diff.Get(metrics.CtrMsgSent)
	}
	return bytes, msgs, nil
}

// bootE14TCP builds an n-node cluster of Systems joined by real loopback
// TCP transports, each system sharing one registry with its transport so
// fabric and kernel counters land in the same place.
func bootE14TCP(n int) (map[ids.NodeID]*core.System, []*metrics.Registry, error) {
	trs := make(map[ids.NodeID]*tcptransport.Transport, n)
	addrs := make(map[ids.NodeID]string, n)
	regs := make([]*metrics.Registry, 0, n)
	for i := 1; i <= n; i++ {
		node := ids.NodeID(i)
		reg := metrics.NewRegistry()
		tr, err := tcptransport.New(tcptransport.Config{Listen: "127.0.0.1:0", Metrics: reg})
		if err != nil {
			return nil, nil, err
		}
		trs[node] = tr
		addrs[node] = tr.Addr()
		regs = append(regs, reg)
	}
	systems := make(map[ids.NodeID]*core.System, n)
	for i := 1; i <= n; i++ {
		node := ids.NodeID(i)
		if err := trs[node].SetPeers(addrs); err != nil {
			return nil, nil, err
		}
		sys, err := core.NewSystem(core.Config{
			Nodes:       n,
			LocalNodes:  []ids.NodeID{node},
			Transport:   trs[node],
			Metrics:     regs[i-1],
			CallTimeout: waitLong,
		})
		if err != nil {
			return nil, nil, err
		}
		systems[node] = sys
	}
	return systems, regs, nil
}
