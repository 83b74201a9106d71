package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// provenance describes the build and the machine, so a number can be traced
// back to what produced it.
func provenance() map[string]string {
	p := map[string]string{
		"commit":     "unknown (built outside a git checkout)",
		"dirty":      "unknown",
		"go":         runtime.Version(),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"cpu":        cpuModel(),
		"kernel":     kernelRelease(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["commit"] = s.Value
			case "vcs.modified":
				p["dirty"] = s.Value
			}
		}
	}
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	b := make([]byte, 0, len(u.Release))
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

func (b *bench) printProvenance(w io.Writer) {
	keys := make([]string, 0, len(b.prov))
	for k := range b.prov {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintln(w, "# provenance")
	for _, k := range keys {
		fmt.Fprintf(w, "#   %-10s %s\n", k, b.prov[k])
	}
	fmt.Fprintf(w, "#   %-10s %v measured window after %v warm-up, %d set-ups per run\n", "window", b.window, b.warmup, b.setups)
}

// printResult prints one pass of one workload: every metric by name with its
// unit, sample count and regression bound.
func printResult(w io.Writer, spec *workloadSpec, res *result) {
	pass, defs := "end-to-end (tracing off)", endToEndDefs
	if res.Traced {
		pass, defs = "per-layer (traced pass)", perLayerDefs
	}
	fmt.Fprintf(w, "\n== %s · %s · seed %d ==\n", spec.name, pass, res.Seed)
	fmt.Fprintf(w, "why: %s\n", spec.why)
	if !spec.gated {
		fmt.Fprintln(w, "note: informational workload, not in BENCHMARK.json: its times follow the speed of the machine")
	}
	if spec.tcp {
		fmt.Fprintln(w, "note: traffic crossed this host's loopback, not a link")
	}
	fmt.Fprintf(w, "load %.1f s; set-ups %.3f s; attempted %d, failed %d (fail_share %.6f)\n",
		res.LoadS, res.SetupS, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	if !res.Correct {
		for _, c := range res.Checks {
			fmt.Fprintf(w, "OUTPUT CHECK FAILED: %s\n", c)
		}
		return
	}
	fmt.Fprintf(w, "%-34s %14s %-6s %9s %7s  %s\n", "metric", "value", "unit", "n", "bound", "")
	row := func(d metricDef) {
		m, ok := res.Metrics[d.name]
		if !ok {
			return
		}
		bound := "-"
		if d.bound > 0 {
			bound = fmt.Sprintf("%.0f%%", d.bound*100)
		}
		fmt.Fprintf(w, "%-34s %14.4f %-6s %9d %7s  %s\n", d.name, m.Value, d.unit, m.N, bound, m.Note)
	}
	for _, d := range defs {
		row(d)
	}
	if !res.Traced {
		for _, d := range informationalDefs {
			row(d)
		}
	}
	for _, f := range res.Flags {
		fmt.Fprintf(w, "FLAG: %s\n", f)
	}
	if res.SpanFile != "" {
		fmt.Fprintf(w, "spans: %s\n", res.SpanFile)
	}
}
