// Command doctbench is the repository's end-to-end benchmark: four named
// workloads (one node; four nodes on the simulated fabric, closed and open
// loop; two OS processes over loopback TCP) timed with tracing off, output
// checks that fail closed, and a separate traced pass that splits the same
// paths into a per-layer budget. See bench/README.md.
//
//	doctbench                                   every workload, both passes, tables
//	doctbench -workload sim_closed              one workload, both passes
//	doctbench -workload W -seed N -seconds S -trace 0|1
//	                                            one pass; last stdout line is the result as JSON
//	doctbench -sets 2 -runs 10                  repeatability: spread and set-to-set drift per metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/metrics"
)

// Shape of a run unless a test shortens it.
const (
	defaultSeconds = 20
	warmup         = 3 * time.Second // discarded load before the measured window
	tracedWarmup   = 2 * time.Second // … before each half of the traced pass
	setupsPerRun   = 5               // setup_s is the median of this many set-ups

	// buildDir is where bench/run.sh puts the binary and where span and result
	// files go, relative to the root of the checkout; bench/.gitignore names it.
	buildDir = "bench/.build"

	// failShareLimit is fail_share's bound, absolute: a pass in which more than
	// this share of the attempted operations failed is not correct.
	failShareLimit = 0.001
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadOrder, ", ")+" (default: all)")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs: op order, targets, payload bytes, Poisson schedule")
		seconds  = flag.Int("seconds", defaultSeconds, "measured window in seconds (1–60)")
		trace    = flag.Int("trace", -1, "0 = end-to-end pass, 1 = traced per-layer pass, with the result as a JSON last line; default: both passes, tables only")
		sets     = flag.Int("sets", 0, "repeatability mode: number of interleaved sets (use 2)")
		runs     = flag.Int("runs", 10, "repeatability mode: runs per set and workload")
	)
	flag.Parse()
	if peer, ok := nodeRole(); ok {
		os.Exit(nodeMain(peer))
	}
	if *seconds < 1 || *seconds > 60 {
		fatal(fmt.Errorf("-seconds %d outside 1..60", *seconds))
	}
	names := workloadOrder
	if *workload != "" {
		if workloads[*workload] == nil {
			fatal(fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadOrder, ", ")))
		}
		names = []string{*workload}
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fatal(err)
	}
	b := &bench{
		window: time.Duration(*seconds) * time.Second, warmup: warmup, tracedWarmup: tracedWarmup, setups: setupsPerRun,
		outDir: buildDir, prov: provenance(),
	}
	switch {
	case *sets > 0:
		os.Exit(b.repeat(names, *seed, *sets, *runs))
	case *trace == 0 || *trace == 1:
		if len(names) != 1 {
			fatal(fmt.Errorf("-trace %d needs -workload", *trace))
		}
		os.Exit(b.single(workloads[names[0]], *seed, *trace == 1))
	default:
		os.Exit(b.full(names, *seed))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "doctbench:", err)
	os.Exit(2)
}

// bench carries what every mode shares.
type bench struct {
	window       time.Duration // measured window of a pass
	warmup       time.Duration
	tracedWarmup time.Duration
	setups       int
	outDir       string
	prov         map[string]string
	fixed        map[string]metric // isolated timings that do not depend on the workload
}

// result is one pass of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Checks    []string          `json:"failed_checks,omitempty"`
	Flags     []string          `json:"flags,omitempty"` // validity warnings, not failures
	SetupS    []float64         `json:"setups_s,omitempty"`
	LoadS     float64           `json:"load_s"`
	SpanFile  string            `json:"span_file,omitempty"`
}

// endToEndPass runs a workload with tracing off and the shipping topology,
// then the cost pass.
func (b *bench) endToEndPass(spec *workloadSpec, seed int64) (*result, error) {
	r, err := execute(spec, runOpts{
		seed: seed, window: b.window, warmup: b.warmup, setups: b.setups, clients: runtime.NumCPU(),
	})
	if err != nil {
		return nil, err
	}
	res := &result{Workload: spec.name, Seed: seed, SetupS: r.setupS, LoadS: r.loadS}
	res.Metrics = r.endToEnd()
	res.Flags = r.generatorFlags(res.Metrics)
	res.close(r)
	for _, probe := range costProbes {
		c, err := execute(workloads[probe.workload], runOpts{
			seed: seed, window: b.window / 10, warmup: b.warmup / 6, setups: 1, clients: 1,
		})
		if err != nil {
			return nil, fmt.Errorf("cost pass on %s: %w", probe.workload, err)
		}
		d := c.delta()
		res.Metrics[probe.prefix+"_allocs_per_op"] = metric{Value: ratio(d.mallocs, d.ops), Unit: "count", N: int(d.ops)}
		if c.spec.nodes > 1 {
			res.Metrics[probe.prefix+"_wire_bytes_per_op"] = metric{Value: ratio(d.get(metrics.CtrMsgBytes), d.ops), Unit: "B", N: int(d.ops), Note: c.spec.bytesNote()}
		}
		res.LoadS += c.loadS
		res.close(c)
	}
	return res, nil
}

// costProbes are the cost pass: after its own window, every end-to-end pass
// runs local_closed and tcp_closed for a tenth of the window with one client
// and all output checks on, and reports what they allocate and put on the
// socket per operation. These two workloads' times follow the speed of the
// machine and cannot be held to a bound (README, Repeatability); their counts
// can, and without them a heavier delivery path, wire codec or TCP framing
// would pass the gate unseen. They ride along in every gated run because the
// contract has one metric list for every workload it names.
var costProbes = []struct{ workload, prefix string }{
	{wlLocalClosed, "local"},
	{wlTCPClosed, "tcp"},
}

// close folds a finished run into the result: its operation counts, its
// failed output checks and, as one more check, fail_share against its limit.
func (res *result) close(r *run) {
	attempted, failed := r.attempted()
	res.Attempted, res.Failed = res.Attempted+attempted, res.Failed+failed
	for _, c := range r.checks {
		res.Checks = append(res.Checks, r.spec.name+": "+c)
	}
	var first []string
	for _, cl := range r.clients {
		first = append(first, cl.failures...)
	}
	if share := ratio(float64(failed), float64(attempted)); share > failShareLimit {
		res.Checks = append(res.Checks, fmt.Sprintf("%s: fail_share %.6f above %g: %d of %d operations failed, first %q",
			r.spec.name, share, failShareLimit, failed, attempted, first))
	} else {
		for _, f := range first {
			res.Flags = append(res.Flags, "operation failed: "+f)
		}
	}
	res.Correct = len(res.Checks) == 0
}

// pass runs one pass of one workload.
func (b *bench) pass(spec *workloadSpec, seed int64, traced bool) (*result, error) {
	if traced {
		return b.tracedPass(spec, seed)
	}
	return b.endToEndPass(spec, seed)
}

// single is the contract mode: one pass of one workload, the result as the
// last line of standard output. A failed output check prints which check,
// no metrics, and exits non-zero.
func (b *bench) single(spec *workloadSpec, seed int64, traced bool) int {
	res, err := b.pass(spec, seed, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "doctbench:", err)
		return 1
	}
	printResult(os.Stdout, spec, res)
	if err := b.writeResult(res); err != nil {
		fmt.Fprintln(os.Stderr, "doctbench:", err)
		return 1
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	if !res.Correct {
		for _, c := range res.Checks {
			fmt.Fprintln(os.Stderr, "doctbench: output check failed:", c)
		}
	} else {
		defs := endToEndDefs
		if traced {
			defs = perLayerDefs
		}
		for _, d := range defs {
			line.Metrics[d.name] = value{res.Metrics[d.name].Value, d.unit}
		}
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "doctbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// full is the one command of the issue: every workload with tracing off,
// then the traced pass, as tables.
func (b *bench) full(names []string, seed int64) int {
	b.printProvenance(os.Stdout)
	code := 0
	for _, traced := range []bool{false, true} {
		for _, name := range names {
			spec := workloads[name]
			res, err := b.pass(spec, seed, traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "doctbench: %s: %v\n", name, err)
				return 1
			}
			printResult(os.Stdout, spec, res)
			if !res.Correct {
				code = 1
			}
		}
	}
	return code
}

// writeResult stores the full record of a pass — provenance, sample counts,
// notes — next to the span files.
func (b *bench) writeResult(res *result) error {
	rec := struct {
		Provenance map[string]string `json:"provenance"`
		Seconds    float64           `json:"seconds"`
		*result
	}{b.prov, b.window.Seconds(), res}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	pass := "e2e"
	if res.Traced {
		pass = "layers"
	}
	return os.WriteFile(filepath.Join(b.outDir, fmt.Sprintf("result-%s-%s-seed%d.json", res.Workload, pass, res.Seed)), data, 0o644)
}
