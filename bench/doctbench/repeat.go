package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
)

// repeat is the repeatability mode: the end-to-end pass of every workload,
// runs times in each of sets interleaved sets (A1 B1 A2 B2 …), every run on
// its own seed and in its own process, as the acceptance driver runs them.
// Per metric and set it prints the median, the quartiles and
// the spread (interquartile distance ÷ median, quartiles as Python's
// statistics.quantiles gives them); it fails when a spread exceeds the
// metric's bound (setup_s excepted, as in the acceptance driver) or when a
// later set's median is worse than the first set's by more than the bound.
// The bounds in BENCHMARK.json were set from this mode's output.
func (b *bench) repeat(names []string, seed int64, sets, runs int) int {
	b.printProvenance(os.Stdout)
	// values[workload][metric][set] = one value per run
	values := map[string]map[string][][]float64{}
	code := 0
	for i := 0; i < runs; i++ {
		for s := 0; s < sets; s++ {
			for _, name := range names {
				runSeed := seed + int64(s*runs+i)
				res, err := b.subprocess(name, runSeed)
				if err != nil {
					fmt.Fprintf(os.Stderr, "doctbench: %s seed %d: %v\n", name, runSeed, err)
					return 1
				}
				fmt.Printf("set %d run %2d %-13s seed %-4d ops/s %10.1f  failed %d/%d\n",
					s+1, i+1, name, runSeed, res.Metrics["ops_per_s"].Value, res.Failed, res.Attempted)
				if !res.Correct {
					fmt.Println("  NOT CORRECT: an output check failed (fail_share above its limit is one)")
					code = 1
				}
				if values[name] == nil {
					values[name] = map[string][][]float64{}
				}
				for _, d := range endToEndDefs {
					if values[name][d.name] == nil {
						values[name][d.name] = make([][]float64, sets)
					}
					values[name][d.name][s] = append(values[name][d.name][s], res.Metrics[d.name].Value)
				}
			}
		}
	}
	for _, name := range names {
		gate := "gated"
		if !workloads[name].gated {
			gate = "informational"
		}
		fmt.Printf("\n== %s (%s) · %d sets × %d runs × %v ==\n", name, gate, sets, runs, b.window)
		fmt.Printf("%-26s %3s %12s %12s %12s %8s %8s %6s\n", "metric", "set", "median", "q1", "q3", "spread", "drift", "bound")
		for _, d := range endToEndDefs {
			var first float64
			for s, v := range values[name][d.name] {
				q1, q2, q3 := quartiles(v)
				sp := spread(v)
				drift := 0.0
				if s == 0 {
					first = q2
				} else if first != 0 {
					// Positive = this set reads worse than the first.
					drift = (q2 - first) / first
					if d.better == "higher" {
						drift = -drift
					}
				}
				verdict := ""
				if (sp > d.bound && d.name != "setup_s") || drift > d.bound {
					if verdict = "  outside bound (workload not gated)"; workloads[name].gated {
						verdict = "  OUTSIDE BOUND"
						code = 1
					}
				}
				fmt.Printf("%-26s %3d %12.3f %12.3f %12.3f %7.1f%% %+7.1f%% %5.0f%%%s\n",
					d.name, s+1, q2, q1, q3, 100*sp, 100*drift, 100*d.bound, verdict)
			}
		}
	}
	return code
}

// contractLine is the last line of a contract-mode run.
type contractLine struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]metric
}

// subprocess runs one end-to-end pass exactly as the driver would — this
// binary, one workload, -trace 0 — and parses its last line.
func (b *bench) subprocess(workload string, seed int64) (*contractLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(int(b.window.Seconds())), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var line contractLine
	if jerr := json.Unmarshal(lines[len(lines)-1], &line); jerr != nil {
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("last line is not a result: %w", jerr)
	}
	return &line, nil
}
