package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary play tcp_closed's node process: the
// benchmark re-executes os.Executable() with roleEnv set.
func TestMain(m *testing.M) {
	if peer, ok := nodeRole(); ok {
		os.Exit(nodeMain(peer))
	}
	os.Exit(m.Run())
}

// TestSmoke runs both passes of every workload on a half-second window with
// every output check on — the re-executed node process and the tap
// included. It asserts correctness and that every named metric is emitted;
// it asserts nothing about time.
func TestSmoke(t *testing.T) {
	// The open loop offers its 20 000 events/s whatever the machine. Under
	// the race detector or on a loaded box the events it could not issue are
	// failures by the benchmark's rule, and fail_share then fails the pass:
	// that is a statement about time, so here it is logged. Every other
	// check, exactly-once included, still fails the test.
	failed := func(t *testing.T, spec *workloadSpec, pass, check string) {
		if spec.open && strings.Contains(check, "fail_share") {
			t.Logf("%s: %s", pass, check)
			return
		}
		t.Errorf("%s: output check failed: %s", pass, check)
	}
	b := &bench{
		window: 500 * time.Millisecond, warmup: 100 * time.Millisecond, tracedWarmup: 100 * time.Millisecond,
		setups: 1, outDir: t.TempDir(), prov: provenance(),
	}
	for _, name := range workloadOrder {
		spec := workloads[name]
		t.Run(name, func(t *testing.T) {
			e2e, err := b.endToEndPass(spec, 7)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range e2e.Checks {
				failed(t, spec, "end-to-end pass", c)
			}
			if e2e.Attempted == 0 {
				t.Error("end-to-end pass attempted no operations")
			}
			for _, d := range endToEndDefs {
				m, ok := e2e.Metrics[d.name]
				if !ok {
					t.Errorf("end-to-end metric %s not emitted", d.name)
				}
				// A gated metric may never be 0. One node puts nothing on a wire,
				// which is one reason local_closed is not a gated workload.
				if m.Value <= 0 && (spec.gated || d.name != "wire_bytes_per_op") {
					t.Errorf("end-to-end metric %s = %+v, want a positive value", d.name, m)
				}
			}
			layers, err := b.tracedPass(spec, 7)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range layers.Checks {
				failed(t, spec, "traced pass", c)
			}
			for _, d := range perLayerDefs {
				if _, ok := layers.Metrics[d.name]; !ok {
					t.Errorf("per-layer metric %s not emitted", d.name)
				}
			}
			// Every operation leaves one span; the ones that cross nodes leave
			// message spans under it.
			f, err := os.Open(layers.SpanFile)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			names := map[string]int{}
			for sc := bufio.NewScanner(f); sc.Scan(); {
				var s span
				if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
					t.Fatalf("span file line %q: %v", sc.Text(), err)
				}
				if s.End < s.Start {
					t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
				}
				names[strings.SplitN(s.Name, ".", 2)[0]]++
			}
			if !spec.open && names["op"] == 0 {
				t.Errorf("span file has no operation spans: %v", names)
			}
			if spec.nodes > 1 && !spec.open && (names["send"] == 0 || names["transit"] == 0 || names["handle"] == 0) {
				t.Errorf("span file of a multi-node workload lacks message spans: %v", names)
			}
		})
	}
}

// TestRaggedWindow runs a window that is not a whole number of slices, as
// `-seconds 2 -trace 1` makes (its tapped run gets 1.5 s): operations that
// complete after the last whole slice must not be filed under a slice that
// does not exist.
func TestRaggedWindow(t *testing.T) {
	r, err := execute(workloads[wlLocalClosed], runOpts{seed: 7, window: 1500 * time.Millisecond, warmup: 50 * time.Millisecond, setups: 1, clients: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range r.checks {
		t.Errorf("output check failed: %s", c)
	}
	if w := r.window(); w.slices != 1 || w.ops[0] == 0 {
		t.Errorf("1.5 s window: %d slices, %v operations per slice; want 1 slice with operations", w.slices, w.ops)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this package
// naming the same workloads and metrics with the same units and bounds.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var file struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the benchmark's default window is %d", file.RunSeconds, defaultSeconds)
	}
	var gated []string
	for _, name := range workloadOrder {
		if workloads[name].gated {
			gated = append(gated, name)
		}
	}
	if len(file.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark gates %d", len(file.Workloads), len(gated))
	}
	for i, w := range file.Workloads {
		if w.Name != gated[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, gated[i])
		}
	}
	same := func(what string, got []jsonMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the benchmark has %d", len(got), what, len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark has {%s %s %s %v}", what, i, g, d.name, d.unit, d.better, d.bound)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEndDefs)
	same("per_layer", file.PerLayer, perLayerDefs)
}
