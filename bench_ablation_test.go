// Ablation benchmarks for the design choices DESIGN.md calls out: the cost
// of attributes travelling with threads (vs. their size), surrogate vs
// checkpoint delivery, location strategies at the kernel level, and the
// full application protocols.
package repro

import (
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/experiments"
	"repro/internal/ids"
	"repro/internal/locate"
	"repro/internal/locks"
	"repro/internal/object"
)

// BenchmarkAttrsTravel measures how the handler-chain length (attributes
// travel on every hop, §3.1) affects remote invocation cost, under the
// delta codec (the default) and the legacy full-snapshot codec.
func BenchmarkAttrsTravel(b *testing.B) {
	for _, codec := range []string{"delta", "full"} {
		for _, depth := range []int{0, 8, 64} {
			depth := depth
			b.Run("codec="+codec+"/chain="+strconv.Itoa(depth), func(b *testing.B) {
				sys := benchSystem(b, core.Config{
					Nodes: 2,
					Wire:  core.WireConfig{FullAttrs: codec == "full"},
				})
				if err := sys.RegisterProc("noop", func(_ object.Ctx, _ event.HandlerRef, _ *event.Block) event.Verdict {
					return event.VerdictResume
				}); err != nil {
					b.Fatal(err)
				}
				target, err := sys.CreateObject(2, object.Spec{
					Name: "t",
					Entries: map[string]object.Entry{
						"noop": func(_ object.Ctx, _ []any) ([]any, error) { return nil, nil },
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				driver, err := sys.CreateObject(1, object.Spec{
					Name: "d",
					Entries: map[string]object.Entry{
						"run": func(ctx object.Ctx, args []any) ([]any, error) {
							n, _ := args[0].(int)
							if err := ctx.RegisterEvent("PAD"); err != nil {
								return nil, err
							}
							for i := 0; i < depth; i++ {
								if err := ctx.AttachHandler(event.HandlerRef{Event: "PAD", Kind: event.KindProc, Proc: "noop"}); err != nil {
									return nil, err
								}
							}
							for i := 0; i < n; i++ {
								if _, err := ctx.Invoke(target, "noop"); err != nil {
									return nil, err
								}
							}
							return nil, nil
						},
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				h, err := sys.Spawn(1, driver, "run", b.N)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := h.WaitTimeout(10 * time.Minute); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				bytes := sys.Metrics().Get("net.msg.bytes")
				b.ReportMetric(float64(bytes)/float64(b.N), "wire-B/invoke")
			})
		}
	}
}

// BenchmarkLocateKernel measures one full locate at the kernel level per
// strategy, with the thread four hops from its root.
func BenchmarkLocateKernel(b *testing.B) {
	cases := []struct {
		name string
		s    locate.Strategy
	}{
		{"broadcast", locate.Broadcast{}},
		{"path-follow", locate.PathFollow{}},
		{"multicast", locate.Multicast{}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			sys := benchSystem(b, core.Config{Nodes: 8, Locator: tc.s})
			started := make(chan ids.ThreadID, 1)
			var prev ids.ObjectID
			for i := 4; i >= 1; i-- {
				node := ids.NodeID(i + 1)
				var spec object.Spec
				if i == 4 {
					spec = object.Spec{
						Name: "deep",
						Entries: map[string]object.Entry{
							"fwd": func(ctx object.Ctx, _ []any) ([]any, error) {
								started <- ctx.Thread()
								return nil, ctx.Sleep(time.Hour)
							},
						},
					}
				} else {
					next := prev
					spec = object.Spec{
						Name: "hop",
						Entries: map[string]object.Entry{
							"fwd": func(ctx object.Ctx, _ []any) ([]any, error) {
								return ctx.Invoke(next, "fwd")
							},
						},
					}
				}
				oid, err := sys.CreateObject(node, spec)
				if err != nil {
					b.Fatal(err)
				}
				prev = oid
			}
			if _, err := sys.Spawn(1, prev, "fwd"); err != nil {
				b.Fatal(err)
			}
			tid := <-started
			time.Sleep(20 * time.Millisecond)
			k, err := sys.Kernel(8)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tc.s.Locate(k, tid); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLockRoundTrip measures acquire+release against a lock server on
// another node, including the chained-handler attachment.
func BenchmarkLockRoundTrip(b *testing.B) {
	sys := benchSystem(b, core.Config{Nodes: 2})
	if err := locks.Register(sys); err != nil {
		b.Fatal(err)
	}
	server, err := sys.CreateObject(2, locks.ServerSpec("bench"))
	if err != nil {
		b.Fatal(err)
	}
	app, err := sys.CreateObject(1, object.Spec{
		Name: "app",
		Entries: map[string]object.Entry{
			"run": func(ctx object.Ctx, args []any) ([]any, error) {
				n, _ := args[0].(int)
				for i := 0; i < n; i++ {
					if err := locks.Acquire(ctx, server, "l"); err != nil {
						return nil, err
					}
					if err := locks.Release(ctx, server, "l"); err != nil {
						return nil, err
					}
					// Detach the chained cleanup so the bench stays linear
					// (each Acquire pushes one TERMINATE handler).
					if err := ctx.DetachHandler(event.Terminate); err != nil {
						return nil, err
					}
				}
				return nil, nil
			},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	h, err := sys.Spawn(1, app, "run", b.N)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := h.WaitTimeout(10 * time.Minute); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTerminationProtocol measures one complete distributed-^C round:
// build the app, kill it, verify no orphans.
func BenchmarkTerminationProtocol(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.RunE5([]int{2}, 3)
		if t.Rows[0][3] != "0" {
			b.Fatal("orphans left")
		}
	}
}

// BenchmarkTraceOverhead compares a local invocation with tracing on/off.
func BenchmarkTraceOverhead(b *testing.B) {
	for _, traceCap := range []int{0, 4096} {
		name := "off"
		if traceCap > 0 {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			sys := benchSystem(b, core.Config{Nodes: 1, TraceCapacity: traceCap})
			target, err := sys.CreateObject(1, object.Spec{
				Name: "t",
				Entries: map[string]object.Entry{
					"noop": func(_ object.Ctx, _ []any) ([]any, error) { return nil, nil },
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			driver, err := sys.CreateObject(1, object.Spec{
				Name: "d",
				Entries: map[string]object.Entry{
					"run": func(ctx object.Ctx, args []any) ([]any, error) {
						n, _ := args[0].(int)
						for i := 0; i < n; i++ {
							if _, err := ctx.Invoke(target, "noop"); err != nil {
								return nil, err
							}
						}
						return nil, nil
					},
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			h, err := sys.Spawn(1, driver, "run", b.N)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := h.WaitTimeout(10 * time.Minute); err != nil {
				b.Fatal(err)
			}
		})
	}
}
