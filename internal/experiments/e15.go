package experiments

import (
	"time"

	"repro/internal/transport"
	"repro/internal/workload"
)

// E15 — multi-tenant QoS isolation under a noisy neighbor (DESIGN.md §15).
// Tenant A offers a modest event rate; tenant B floods at roughly 10x the
// pipeline's capacity. With FIFO dispatch, B's backlog sits in front of
// every A event and A's tail latency explodes. With QoS dispatch — classful
// DWRR (A weighted 8, B weighted 1), bounded tenant admission and
// lowest-weight-first shedding — A's p99 stays within a small factor of its
// unloaded p99 while B absorbs the rejections, and the background system
// stream is never shed.
//
// The gate rides two columns: "p99 ratio" (A's p99 under the flood over
// A's unloaded p99, QoS on; lower is better) and "sys shed" (system/control
// messages shed, which the qdisc guarantees to be zero — a zero baseline
// makes any nonzero value a hard failure).

// e15Tenants is the fixed tenant mix: A at 500 ev/s/node on class 1
// (weight 8), B at 40k ev/s/node on class 2 (weight 1) — ~10x what the
// 4-worker/1ms-slow-handler pipeline absorbs.
func e15Tenants() []workload.TenantSpec {
	return []workload.TenantSpec{
		{Name: "A", Class: 1, OfferedPerNode: 500},
		{Name: "B", Class: 2, OfferedPerNode: 40000},
	}
}

func e15QoS() transport.QoSConfig {
	return transport.QoSConfig{
		Enabled: true,
		Weights: map[transport.Class]int{1: 8, 2: 1},
		Depth:   256,
		// One workload event costs 32 units (its Message.Size), so a 32-unit
		// quantum serves B one event per DWRR round while A's weight lets
		// it clear eight — with 1ms slow handlers, A waits at most ~1ms of
		// B occupancy per round instead of the default quantum's ~32ms.
		Quantum: 32,
	}
}

func e15Cell(d time.Duration, qos bool, tenants []workload.TenantSpec) workload.SustainedResult {
	cfg := workload.SustainedConfig{
		Nodes:         4,
		Workers:       4,
		Duration:      d,
		SlowFrac:      0.5,
		SlowDelay:     time.Millisecond,
		Tenants:       tenants,
		SystemPerNode: 500,
	}
	if qos {
		cfg.QoS = e15QoS()
	}
	res, err := workload.RunSustained(cfg)
	if err != nil {
		panic(err)
	}
	return res
}

// RunE15 measures tenant A's latency unloaded, under B's flood with FIFO
// dispatch, and under the same flood with QoS dispatch. Zero duration
// picks 600ms per cell.
func RunE15(d time.Duration) Table {
	if d <= 0 {
		d = 600 * time.Millisecond
	}
	t := Table{
		ID:    "E15",
		Title: "multi-tenant QoS isolation: tenant A p99 under tenant B's 10x flood (DESIGN.md §15)",
		Headers: []string{
			"scenario", "A offered ev/s", "A events/s", "A p50", "A p99",
			"B rejected", "sys shed", "p99 ratio",
		},
	}
	aRow := func(scenario string, res workload.SustainedResult) []string {
		a := res.Tenants[0]
		row := []string{
			scenario,
			i64(int64(float64(a.Offered) / res.Elapsed.Seconds())),
			i64(int64(float64(a.Completed) / res.Elapsed.Seconds())),
			msec(a.P50), msec(a.P99),
		}
		if len(res.Tenants) > 1 {
			row = append(row, i64(res.Tenants[1].Rejected))
		} else {
			row = append(row, "-")
		}
		return append(row, i64(res.SysShed))
	}

	alone := e15Cell(d, true, e15Tenants()[:1])
	t.Rows = append(t.Rows, aRow("A alone (qos)", alone))

	fifo := e15Cell(d, false, e15Tenants())
	t.Rows = append(t.Rows, aRow("A+B flood (fifo)", fifo))

	qos := e15Cell(d, true, e15Tenants())
	ratio := 0.0
	if alone.Tenants[0].P99 > 0 {
		ratio = float64(qos.Tenants[0].P99) / float64(alone.Tenants[0].P99)
	}
	t.Rows = append(t.Rows, append(aRow("A+B flood (qos)", qos), f2(ratio)))

	t.Notes = append(t.Notes,
		"4 nodes, 4 dispatch workers, 50% of events hit a 1ms slow handler: capacity ~8k ev/s/node inbound.",
		"tenant A offers 500 ev/s/node on class 1 (weight 8); tenant B floods 40k ev/s/node on class 2 (weight 1); 500 ev/s/node of ClassSystem raises ride behind them.",
		"fifo row: QoS off — B's backlog head-of-line-blocks A in the shared shard queues (and blocks both generators).",
		"qos row: classful DWRR + bounded admission — B is rejected/shed at admission (B rejected), A's p99 stays near unloaded.",
		"p99 ratio = A's p99 with QoS under the flood over A's unloaded p99 (only the qos row carries it; gated, lower is better).",
		"sys shed counts system/control-class messages shed by admission; the qdisc guarantees zero, so the gate is a hard floor.",
	)
	return t
}
