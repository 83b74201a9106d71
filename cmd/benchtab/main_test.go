package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

func TestList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("run -list: %v", err)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run([]string{"-e", "e42"}); err == nil {
		t.Fatal("run -e e42 succeeded, want error")
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("run -bogus succeeded, want error")
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	if err := run([]string{"-e", "e1"}); err != nil {
		t.Fatalf("run -e e1: %v", err)
	}
}

func TestRunnersCoverAllExperiments(t *testing.T) {
	want := map[string]bool{
		"e1": true, "e2": true, "e3": true, "e4": true, "e4b": true,
		"e5": true, "e6": true, "e7": true, "e8": true, "e9": true,
		"e10": true, "e11": true, "e12": true, "e13": true,
		"e14": true, "e15": true, "e16": true, "e17": true,
	}
	for _, r := range runners {
		if !want[r.id] {
			t.Errorf("unexpected runner %q", r.id)
		}
		delete(want, r.id)
	}
	for id := range want {
		t.Errorf("missing runner %q", id)
	}
}

func TestBestCell(t *testing.T) {
	e12 := experiments.Table{
		ID:      "E12",
		Headers: []string{"workers", "events/s", "p99"},
		Rows: [][]string{
			{"1", "12000", "900ms"},
			{"8", "72000", "23ms"},
		},
	}
	got, err := bestCell(e12, "events/s", false)
	if err != nil {
		t.Fatal(err)
	}
	if got != 72000 {
		t.Fatalf("best = %v, want 72000", got)
	}
	e11 := experiments.Table{
		ID:      "E11",
		Headers: []string{"chain", "wire B/invoke"},
		Rows:    [][]string{{"0", "304"}, {"8", "245"}},
	}
	got, err = bestCell(e11, "wire B/invoke", true)
	if err != nil {
		t.Fatal(err)
	}
	if got != 245 {
		t.Fatalf("best (min) = %v, want 245", got)
	}
	if _, err := bestCell(experiments.Table{ID: "E12", Headers: []string{"x"}}, "events/s", false); err == nil {
		t.Fatal("missing events/s column accepted")
	}
}

// writeBaseline marshals tables into a baseline file for gate tests.
func writeBaseline(t *testing.T, name string, tables []experiments.Table) string {
	t.Helper()
	raw, err := json.Marshal(tables)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGateMultiBaseline(t *testing.T) {
	e12 := func(events string) experiments.Table {
		return experiments.Table{
			ID:      "E12",
			Headers: []string{"workers", "events/s"},
			Rows:    [][]string{{"8", events}},
		}
	}
	e13 := func(events, reduction string) experiments.Table {
		return experiments.Table{
			ID:      "E13",
			Headers: []string{"flush", "events/s", "msg reduction"},
			Rows:    [][]string{{"off", events, "1.00"}, {"2ms", events, reduction}},
		}
	}
	e11 := func(bytes string) experiments.Table {
		return experiments.Table{
			ID:      "E11",
			Headers: []string{"chain", "wire B/invoke"},
			Rows:    [][]string{{"0", bytes}},
		}
	}
	p12 := writeBaseline(t, "e12.json", []experiments.Table{e12("70000")})
	p13 := writeBaseline(t, "e13.json", []experiments.Table{e13("70000", "4.00")})
	p11 := writeBaseline(t, "e11.json", []experiments.Table{e11("250")})
	paths := p11 + "," + p12 + "," + p13

	good := []experiments.Table{e11("260"), e12("69000"), e13("71000", "3.80")}
	if err := checkGate(paths, 0.3, good); err != nil {
		t.Fatalf("within-tolerance run failed the gate: %v", err)
	}
	slow := []experiments.Table{e11("260"), e12("40000"), e13("71000", "3.80")}
	if err := checkGate(paths, 0.3, slow); err == nil {
		t.Fatal("E12 events/s regression passed the gate")
	}
	uncoalesced := []experiments.Table{e11("260"), e12("69000"), e13("71000", "1.10")}
	if err := checkGate(paths, 0.3, uncoalesced); err == nil {
		t.Fatal("E13 msg-reduction regression passed the gate")
	}
	fat := []experiments.Table{e11("400"), e12("69000"), e13("71000", "3.80")}
	if err := checkGate(paths, 0.3, fat); err == nil {
		t.Fatal("E11 wire-bytes regression passed the gate")
	}
	missing := []experiments.Table{e11("260"), e13("71000", "3.80")}
	if err := checkGate(paths, 0.3, missing); err == nil {
		t.Fatal("run missing a gated table passed the gate")
	}
}

func TestGateRejectsUselessBaselines(t *testing.T) {
	if err := checkGate(t.TempDir()+"/absent.json", 0.3, nil); err == nil {
		t.Fatal("missing baseline file accepted")
	}
	ungated := writeBaseline(t, "e1.json", []experiments.Table{{ID: "E1"}})
	if err := checkGate(ungated, 0.3, nil); err == nil {
		t.Fatal("baseline with no gated tables accepted")
	}
	if err := checkGate(" , ", 0.3, nil); err == nil {
		t.Fatal("empty baseline list accepted")
	}
}
