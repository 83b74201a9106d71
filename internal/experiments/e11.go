package experiments

import (
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/object"
)

// E11 — wire-efficiency fast path (DESIGN.md §8). The §3.1 design decision
// that attributes travel with the thread is priced per hop: the paper's
// literal protocol ships the full attribute snapshot both ways on every
// remote invocation. E11 measures what delta attribute propagation buys
// against that reference on an identical workload.

// e11Invokes is the remote round-trip count per attribute-codec cell.
const e11Invokes = 200

// RunE11 measures remote invocation wire cost vs. handler-chain depth under
// the full-snapshot codec (the seed's behavior, Wire.FullAttrs) and the
// delta codec (the default): one caller on node 1 invoking a no-op entry on
// node 2 with a chain of proc handlers riding its thread attributes.
func RunE11(depths []int) Table {
	if len(depths) == 0 {
		depths = []int{0, 8, 64}
	}
	t := Table{
		ID:    "E11",
		Title: "delta attribute propagation: wire bytes per remote invocation (DESIGN.md §8)",
		Headers: []string{
			"chain", "codec", "invokes", "wire B/invoke",
			"full snaps", "deltas", "resyncs", "cache hits",
		},
	}
	for _, depth := range depths {
		for _, full := range []bool{true, false} {
			t.Rows = append(t.Rows, runE11Cell(depth, full))
		}
	}
	t.Notes = append(t.Notes,
		"2 nodes, FT off; the caller pushes <chain> proc handlers, then runs 200 invoke round trips.",
		"full codec reships every handler ref both ways per hop; delta ships unchanged attributes as a ~40-byte stub.",
		"full snaps counts snapshot sends (both codecs fall back to one on a receiver cache miss → resync).",
	)
	return t
}

func runE11Cell(depth int, full bool) []string {
	sys := mustSystem(core.Config{Nodes: 2, Wire: core.WireConfig{FullAttrs: full}})
	defer sys.Close()
	if err := sys.RegisterProc("noop", func(_ object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
		return event.VerdictResume
	}); err != nil {
		panic(err)
	}
	target, err := sys.CreateObject(2, object.Spec{
		Name: "e11-target",
		Entries: map[string]object.Entry{
			"noop": func(_ object.Ctx, _ []any) ([]any, error) { return nil, nil },
		},
	})
	if err != nil {
		panic(err)
	}
	driver, err := sys.CreateObject(1, object.Spec{
		Name: "e11-driver",
		Entries: map[string]object.Entry{
			"run": func(ctx object.Ctx, _ []any) ([]any, error) {
				if err := ctx.RegisterEvent("PAD"); err != nil {
					return nil, err
				}
				for i := 0; i < depth; i++ {
					if err := ctx.AttachHandler(event.HandlerRef{Event: "PAD", Kind: event.KindProc, Proc: "noop"}); err != nil {
						return nil, err
					}
				}
				for i := 0; i < e11Invokes; i++ {
					if _, err := ctx.Invoke(target, "noop"); err != nil {
						return nil, err
					}
				}
				return nil, nil
			},
		},
	})
	if err != nil {
		panic(err)
	}
	before := sys.Metrics().Snapshot()
	h, err := sys.Spawn(1, driver, "run")
	if err != nil {
		panic(err)
	}
	if _, err := h.WaitTimeout(waitLong); err != nil {
		panic(err)
	}
	diff := sys.Metrics().Snapshot().Diff(before)
	codec := "delta"
	if full {
		codec = "full"
	}
	return []string{
		itoa(depth), codec, itoa(e11Invokes),
		i64(diff.Get(metrics.CtrMsgBytes) / e11Invokes),
		i64(diff.Get(metrics.CtrAttrFullSent)), i64(diff.Get(metrics.CtrAttrDeltaSent)),
		i64(diff.Get(metrics.CtrAttrResync)), i64(diff.Get(metrics.CtrAttrCacheHit)),
	}
}
