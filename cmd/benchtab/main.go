// Command benchtab regenerates the experiment tables of EXPERIMENTS.md.
//
// Usage:
//
//	benchtab            # run every experiment (E1..E17)
//	benchtab -e e2,e5   # run a subset
//	benchtab -seed 7    # rerun the sweep under a different fabric seed
//	benchtab -json      # emit tables as a JSON array instead of text
//	benchtab -list      # list experiment ids and titles
//
// Profiling (any run):
//
//	benchtab -e e12 -cpuprofile cpu.out   # CPU profile of the run
//	benchtab -e e12 -memprofile mem.out   # heap profile at exit
//
// Perf gate (CI): compare fresh runs against checked-in baselines and fail
// on regression beyond the tolerance. Each baseline file names its table,
// and gateRules says which columns are gated and in which direction (E12/E13
// events/s and E13 msg reduction must not fall; E11 wire bytes per invoke
// must not rise):
//
//	benchtab -e e11,e12,e13 -json -gate BENCH_e11.json,BENCH_e12.json,BENCH_e13.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

// runners maps experiment ids to their default-parameter runners.
var runners = []struct {
	id    string
	title string
	run   func() experiments.Table
}{
	{"e1", "raise/raise_and_wait addressing matrix (§5.3 Table 1)", experiments.RunE1},
	{"e2", "thread location strategies (§7.1)", func() experiments.Table { return experiments.RunE2(nil, nil) }},
	{"e3", "object handler policy (§4.3)", func() experiments.Table { return experiments.RunE3(nil) }},
	{"e4", "handler chaining cost (§4.2)", func() experiments.Table { return experiments.RunE4(nil) }},
	{"e4b", "chained lock cleanup (§4.2)", func() experiments.Table { return experiments.RunE4Locks(nil) }},
	{"e5", "distributed ^C vs naive kill (§6.3)", func() experiments.Table { return experiments.RunE5(nil, 0) }},
	{"e6", "RPC vs DSM invocation (§2)", func() experiments.Table { return experiments.RunE6(nil) }},
	{"e7", "user-level pager (§6.4)", func() experiments.Table { return experiments.RunE7(nil) }},
	{"e8", "delivery vs UNIX/Mach baselines (§9)", func() experiments.Table { return experiments.RunE8(nil) }},
	{"e9", "monitoring overhead (§6.2)", func() experiments.Table { return experiments.RunE9(nil) }},
	{"e10", "crash-fault tolerance (§7.2 generalized)", func() experiments.Table { return experiments.RunE10(nil) }},
	{"e11", "delta attribute propagation (DESIGN.md §8)", func() experiments.Table { return experiments.RunE11(nil) }},
	{"e12", "sustained-throughput event pipeline (DESIGN.md §10)", func() experiments.Table { return experiments.RunE12(0) }},
	{"e13", "per-link batch coalescing sweep (DESIGN.md §11)", func() experiments.Table { return experiments.RunE13(0) }},
	{"e14", "real TCP wire bytes vs simulated bytes, one codec (DESIGN.md §12)", func() experiments.Table { return experiments.RunE14(0) }},
	{"e15", "multi-tenant QoS isolation under a noisy neighbor (DESIGN.md §15)", func() experiments.Table { return experiments.RunE15(0) }},
	{"e16", "cluster scaling: hash placement + tree fan-out (DESIGN.md §13)", func() experiments.Table { return experiments.RunE16(nil) }},
	{"e17", "durable objects: WAL overhead + crash recovery (DESIGN.md §14)", func() experiments.Table { return experiments.RunE17(0) }},
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	var (
		only       = fs.String("e", "", "comma-separated experiment ids (default: all)")
		list       = fs.Bool("list", false, "list experiments and exit")
		asJSON     = fs.Bool("json", false, "emit tables as a JSON array")
		seed       = fs.Int64("seed", 0, "fabric seed for every experiment (0: netsim default)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile at exit to this file")
		gate       = fs.String("gate", "", "comma-separated baseline JSON files: fail if a gated column regressed beyond -gate-tol")
		gateTol    = fs.Float64("gate-tol", 0.30, "allowed fractional regression vs each -gate baseline")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	experiments.SetSeed(*seed)
	if *list {
		for _, r := range runners {
			fmt.Printf("%-4s %s\n", r.id, r.title)
		}
		return nil
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToLower(strings.TrimSpace(id))] = true
		}
	}
	var tables []experiments.Table
	ran := 0
	for _, r := range runners {
		if len(want) > 0 && !want[r.id] {
			continue
		}
		t := r.run()
		tables = append(tables, t)
		if !*asJSON {
			fmt.Println(t.String())
		}
		ran++
	}
	if len(want) > 0 && ran != len(want) {
		return fmt.Errorf("unknown experiment id in %q (see -list)", *only)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tables); err != nil {
			return err
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	if *gate != "" {
		if err := checkGate(*gate, *gateTol, tables); err != nil {
			return err
		}
	}
	return nil
}

// gateRule gates one column of one experiment table. The default direction
// is higher-is-better: the best (max) current cell must not fall more than
// tol below the baseline's best. min flips it for cost columns: the best
// (min) current cell must not rise more than tol above the baseline's.
type gateRule struct {
	column string
	min    bool
}

// gateRules maps gated table IDs to their checked columns. Only tables that
// appear in a -gate baseline file are checked; a baseline whose tables have
// no rules here is an error (a silent no-op gate is worse than none).
var gateRules = map[string][]gateRule{
	"E11": {{column: "wire B/invoke", min: true}},
	"E12": {{column: "events/s"}},
	"E13": {{column: "events/s"}, {column: "msg reduction"}},
	"E14": {{column: "wire B/op", min: true}},
	// E15's isolation claim is a ratio measured within the run (A's p99
	// flooded over A's p99 unloaded), so machine speed cancels out; it
	// must not rise. sys shed has a zero baseline, so its ceiling is a
	// hard zero: one shed system/control message fails the gate.
	"E15": {{column: "p99 ratio", min: true}, {column: "sys shed", min: true}},
	// E16's scaling claims are gated as ratios (tree vs unicast measured in
	// the same run), so machine speed cancels out: total physical-message
	// reduction and peak single-node-burst reduction at the best cluster
	// size must not regress, and absolute delivered throughput keeps the
	// same floor the other event-path gates use.
	"E16": {{column: "reduction"}, {column: "peak reduction"}, {column: "events/s"}},
	// E17 gates the durable configuration directly: delivered throughput
	// with WAL + fsync on must not fall (losing group commit would halve
	// it), and the recovery proof — restarted state equals a correct
	// replay of the disk — must keep passing (recovered is 1/0).
	"E17": {{column: "wal events/s"}, {column: "recovered"}},
}

// checkGate compares the fresh run against each checked-in baseline file.
// The tolerance absorbs shared-runner noise (CI machines are slower and
// noisier than the one that produced a baseline); real regressions — losing
// the dispatch pool, losing coalescing — cost far more than 30%.
func checkGate(paths string, tol float64, tables []experiments.Table) error {
	checked := 0
	for _, path := range strings.Split(paths, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("gate: %w", err)
		}
		var baseline []experiments.Table
		if err := json.Unmarshal(raw, &baseline); err != nil {
			return fmt.Errorf("gate: parse %s: %w", path, err)
		}
		fileChecked := 0
		for _, bt := range baseline {
			rules := gateRules[bt.ID]
			if len(rules) == 0 {
				continue
			}
			cur := findTable(tables, bt.ID)
			if cur == nil {
				return fmt.Errorf("gate: baseline %s has table %s but the current run did not produce it (add it to -e)", path, bt.ID)
			}
			for _, rule := range rules {
				base, err := bestCell(bt, rule.column, rule.min)
				if err != nil {
					return fmt.Errorf("gate: baseline %s: %w", path, err)
				}
				got, err := bestCell(*cur, rule.column, rule.min)
				if err != nil {
					return fmt.Errorf("gate: current run: %w", err)
				}
				if rule.min {
					ceiling := base * (1 + tol)
					if got > ceiling {
						return fmt.Errorf("gate: %s best %s = %.2f, above %.2f (baseline %.2f + %.0f%% tolerance)",
							bt.ID, rule.column, got, ceiling, base, tol*100)
					}
					fmt.Fprintf(os.Stderr, "gate: ok — %s best %s = %.2f vs baseline %.2f (ceiling %.2f)\n",
						bt.ID, rule.column, got, base, ceiling)
				} else {
					floor := base * (1 - tol)
					if got < floor {
						return fmt.Errorf("gate: %s best %s = %.2f, below %.2f (baseline %.2f - %.0f%% tolerance)",
							bt.ID, rule.column, got, floor, base, tol*100)
					}
					fmt.Fprintf(os.Stderr, "gate: ok — %s best %s = %.2f vs baseline %.2f (floor %.2f)\n",
						bt.ID, rule.column, got, base, floor)
				}
				fileChecked++
			}
		}
		if fileChecked == 0 {
			return fmt.Errorf("gate: no gated tables in %s (known: E11, E12, E13, E14, E15, E16, E17)", path)
		}
		checked += fileChecked
	}
	if checked == 0 {
		return fmt.Errorf("gate: no baseline files in %q", paths)
	}
	return nil
}

// findTable returns the table with the given ID, nil if absent.
func findTable(tables []experiments.Table, id string) *experiments.Table {
	for i := range tables {
		if tables[i].ID == id {
			return &tables[i]
		}
	}
	return nil
}

// bestCell extracts the best value of the named column: the maximum when
// higher is better, the minimum when min is set (cost columns).
func bestCell(t experiments.Table, column string, min bool) (float64, error) {
	col := -1
	for i, h := range t.Headers {
		if h == column {
			col = i
		}
	}
	if col < 0 {
		return 0, fmt.Errorf("%s table has no %q column", t.ID, column)
	}
	best, found := 0.0, false
	for _, row := range t.Rows {
		if col >= len(row) {
			continue
		}
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			return 0, fmt.Errorf("%s %s cell %q: %w", t.ID, column, row[col], err)
		}
		if !found || (min && v < best) || (!min && v > best) {
			best, found = v, true
		}
	}
	if !found {
		return 0, fmt.Errorf("%s table has no %s rows", t.ID, column)
	}
	return best, nil
}
