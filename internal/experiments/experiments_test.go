package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

func cell(t *testing.T, tbl Table, row, col int) string {
	t.Helper()
	if row >= len(tbl.Rows) || col >= len(tbl.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d) in %d rows", tbl.ID, row, col, len(tbl.Rows))
	}
	return tbl.Rows[row][col]
}

func atoiCell(t *testing.T, s string) int {
	t.Helper()
	v, err := strconv.Atoi(s)
	if err != nil {
		t.Fatalf("cell %q is not a number: %v", s, err)
	}
	return v
}

func TestE1MatrixMatchesPaper(t *testing.T) {
	tbl := RunE1()
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 (the paper's table)", len(tbl.Rows))
	}
	// Asynchronous raises must not block; synchronous ones must.
	for i := 0; i < 3; i++ {
		if cell(t, tbl, i, 2) != "false" {
			t.Errorf("row %d (%s): raiser blocked, want asynchronous", i, cell(t, tbl, i, 0))
		}
	}
	for i := 3; i < 6; i++ {
		if cell(t, tbl, i, 2) != "true" {
			t.Errorf("row %d (%s): raiser not blocked, want synchronous", i, cell(t, tbl, i, 0))
		}
	}
	// Group rows reach 3 recipients; thread and object rows reach 1.
	for _, i := range []int{0, 2, 3, 5} {
		if got := atoiCell(t, cell(t, tbl, i, 3)); got != 1 {
			t.Errorf("row %d reached %d recipients, want 1", i, got)
		}
	}
	for _, i := range []int{1, 4} {
		if got := atoiCell(t, cell(t, tbl, i, 3)); got != 3 {
			t.Errorf("group row %d reached %d recipients, want 3", i, got)
		}
	}
}

func TestE2Shapes(t *testing.T) {
	tbl := RunE2([]int{4, 16}, []int{2})
	probes := map[string]map[int]int{} // strategy -> n -> probes
	for _, row := range tbl.Rows {
		strat := row[0]
		n := atoiCell(t, row[1])
		if probes[strat] == nil {
			probes[strat] = map[int]int{}
		}
		probes[strat][n] = atoiCell(t, row[3])
	}
	// Broadcast grows with n.
	if probes["broadcast"][16] <= probes["broadcast"][4] {
		t.Errorf("broadcast probes did not grow with n: %v", probes["broadcast"])
	}
	// Broadcast probes = n-1.
	if probes["broadcast"][16] != 15 {
		t.Errorf("broadcast probes at n=16: %d, want 15", probes["broadcast"][16])
	}
	// Path-follow is independent of n.
	if probes["path-follow"][16] != probes["path-follow"][4] {
		t.Errorf("path-follow probes changed with n: %v", probes["path-follow"])
	}
	// Multicast is cheapest and flat.
	if probes["multicast"][16] != probes["multicast"][4] || probes["multicast"][16] > 2 {
		t.Errorf("multicast probes not flat/small: %v", probes["multicast"])
	}
}

// TestE2CachedWarmProbesZero: a cached strategy must locate the unmoved
// thread's second delivery from the cache — zero remote probes — and report
// its hit/miss/stale counters; uncached rows carry no cache column.
func TestE2CachedWarmProbesZero(t *testing.T) {
	tbl := RunE2([]int{4}, []int{1})
	cachedRows := 0
	for _, row := range tbl.Rows {
		if !strings.HasPrefix(row[0], "cached+") {
			if row[6] != "-" {
				t.Errorf("%s: cache column = %q, want '-'", row[0], row[6])
			}
			continue
		}
		cachedRows++
		if got := atoiCell(t, row[5]); got != 0 {
			t.Errorf("%s: warm probes = %d, want 0 (cache hit)", row[0], got)
		}
		if !strings.Contains(row[6], "/") {
			t.Errorf("%s: cache column = %q, want h/m/s counters", row[0], row[6])
		}
	}
	if cachedRows != 3 {
		t.Errorf("cached rows = %d, want 3", cachedRows)
	}
}

func TestE2PathFollowGrowsWithDepth(t *testing.T) {
	tbl := RunE2([]int{16}, []int{1, 8})
	var shallow, deep int
	for _, row := range tbl.Rows {
		if row[0] != "path-follow" {
			continue
		}
		switch row[2] {
		case "1":
			shallow = atoiCell(t, row[3])
		case "8":
			deep = atoiCell(t, row[3])
		}
	}
	if deep <= shallow {
		t.Errorf("path-follow probes: depth1=%d depth8=%d, want growth with depth", shallow, deep)
	}
}

func TestE3MasterThreadEliminatesCreation(t *testing.T) {
	tbl := RunE3([]int{50})
	var spawnCreated, masterCreated int
	for _, row := range tbl.Rows {
		switch row[0] {
		case "spawn-per-event":
			spawnCreated = atoiCell(t, row[2])
		case "master-thread":
			masterCreated = atoiCell(t, row[2])
		}
	}
	if spawnCreated != 50 {
		t.Errorf("spawn-per-event created %d threads, want 50", spawnCreated)
	}
	if masterCreated != 1 {
		t.Errorf("master-thread created %d threads, want 1", masterCreated)
	}
}

func TestE4ChainLinear(t *testing.T) {
	tbl := RunE4([]int{2, 8})
	if atoiCell(t, cell(t, tbl, 0, 1)) != 2 {
		t.Errorf("depth2 walked %s links, want 2", cell(t, tbl, 0, 1))
	}
	if atoiCell(t, cell(t, tbl, 1, 1)) != 8 {
		t.Errorf("depth8 walked %s links, want 8", cell(t, tbl, 1, 1))
	}
}

func TestE4LocksAllReleased(t *testing.T) {
	tbl := RunE4Locks([]int{3})
	if cell(t, tbl, 0, 1) != "3" {
		t.Errorf("cleanups = %s, want 3", cell(t, tbl, 0, 1))
	}
	if cell(t, tbl, 0, 2) != "0" {
		t.Errorf("locks left held = %s, want 0", cell(t, tbl, 0, 2))
	}
}

func TestE5ProtocolLeavesNoOrphans(t *testing.T) {
	tbl := RunE5([]int{3}, 3)
	// Row 0: protocol; row 1: naive.
	if got := atoiCell(t, cell(t, tbl, 0, 3)); got != 0 {
		t.Errorf("protocol orphans = %d, want 0", got)
	}
	if got := atoiCell(t, cell(t, tbl, 1, 3)); got != 3 {
		t.Errorf("naive orphans = %d, want 3", got)
	}
	if got := atoiCell(t, cell(t, tbl, 0, 4)); got < 2 {
		t.Errorf("protocol notified %d objects, want >= 2", got)
	}
	if got := atoiCell(t, cell(t, tbl, 1, 4)); got != 0 {
		t.Errorf("naive notified %d objects, want 0", got)
	}
}

func TestE6SemanticsIdenticalCostsDiffer(t *testing.T) {
	tbl := RunE6([]int{512, 32768})
	var rpcSmall, rpcBig, dsmSmall, dsmBig, rpcSmallMsgs, dsmSmallMsgs int
	for _, row := range tbl.Rows {
		if row[5] != "true" {
			t.Fatalf("events not ok in row %v: the §2 conformance goal failed", row)
		}
		msgs, bytes := atoiCell(t, row[3]), atoiCell(t, row[4])
		switch {
		case row[0] == "rpc" && row[1] == "512":
			rpcSmall, rpcSmallMsgs = bytes, msgs
		case row[0] == "rpc" && row[1] == "32768":
			rpcBig = bytes
		case row[0] == "dsm" && row[1] == "512":
			dsmSmall, dsmSmallMsgs = bytes, msgs
		case row[0] == "dsm" && row[1] == "32768":
			dsmBig = bytes
		}
	}
	if rpcSmall != rpcBig {
		t.Errorf("RPC bytes depend on state size (%d vs %d), want flat", rpcSmall, rpcBig)
	}
	if dsmBig <= dsmSmall {
		t.Errorf("DSM bytes did not grow with state (%d vs %d)", dsmSmall, dsmBig)
	}
	// Crossover: for small state DSM is cheaper — in messages; in encoded
	// bytes one 1 KiB page already outweighs sixteen RPC messages — and for
	// big state RPC wins on both.
	if dsmSmallMsgs >= rpcSmallMsgs {
		t.Errorf("small state: DSM (%d msgs) not cheaper than RPC (%d msgs)", dsmSmallMsgs, rpcSmallMsgs)
	}
	if dsmBig <= rpcBig {
		t.Errorf("big state: RPC (%d B) not cheaper than DSM (%d B)", rpcBig, dsmBig)
	}
}

func TestE7MergeCorrect(t *testing.T) {
	tbl := RunE7([]int{2})
	if cell(t, tbl, 0, 3) != "true" {
		t.Error("pager merge lost writes")
	}
	if atoiCell(t, cell(t, tbl, 0, 1)) != 2 {
		t.Errorf("faults serviced = %s, want 2", cell(t, tbl, 0, 1))
	}
	if atoiCell(t, cell(t, tbl, 0, 2)) != 2 {
		t.Errorf("copies merged = %s, want 2", cell(t, tbl, 0, 2))
	}
}

func TestE8DOCTAlwaysCorrectUnixDegrades(t *testing.T) {
	tbl := RunE8([]int{4})
	var doctRate, unixRate string
	var machRegs int
	for _, row := range tbl.Rows {
		switch {
		case strings.HasPrefix(row[0], "DO/CT"):
			doctRate = row[4]
		case strings.HasPrefix(row[0], "UNIX"):
			unixRate = row[4]
		case strings.HasPrefix(row[0], "Mach"):
			machRegs = atoiCell(t, row[5])
		}
	}
	if doctRate != "0.00" {
		t.Errorf("DO/CT misdelivery = %s, want 0.00", doctRate)
	}
	rate, err := strconv.ParseFloat(unixRate, 64)
	if err != nil || rate < 0.6 || rate > 0.9 {
		t.Errorf("UNIX misdelivery = %s, want ~0.75 for k=4", unixRate)
	}
	if machRegs != 12 {
		t.Errorf("Mach registrations = %d, want 12 (one per thread)", machRegs)
	}
}

func TestE9SamplesScaleWithPeriod(t *testing.T) {
	tbl := RunE9([]time.Duration{10 * time.Millisecond, 40 * time.Millisecond})
	fast := atoiCell(t, cell(t, tbl, 0, 1))
	slow := atoiCell(t, cell(t, tbl, 1, 1))
	if fast == 0 {
		t.Fatal("no samples at 10ms period")
	}
	if fast <= slow {
		t.Errorf("samples: 10ms=%d 40ms=%d, want more at the faster period", fast, slow)
	}
}

func TestTableString(t *testing.T) {
	tbl := Table{
		ID:      "X",
		Title:   "demo",
		Headers: []string{"a", "long-header"},
		Rows:    [][]string{{"1", "2"}},
		Notes:   []string{"n1"},
	}
	s := tbl.String()
	for _, want := range []string{"X — demo", "long-header", "note: n1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

// TestAllRuns exercises every experiment end to end (the cmd/benchtab
// default path). Skipped in -short runs.
func TestE10SubsystemLosesNothing(t *testing.T) {
	tbl := RunE10([]float64{0.1})
	// Rows: (0.1, off), (0.1, on), (0.1+crash, off), (0.1+crash, on).
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tbl.Rows))
	}
	for _, i := range []int{1, 3} { // subsystem on
		if got := atoiCell(t, cell(t, tbl, i, 5)); got != 0 {
			t.Errorf("row %d: lost %d events with the subsystem on, want 0", i, got)
		}
	}
	ftCrash := tbl.Rows[3]
	if ftCrash[6] != "0" {
		t.Errorf("crash row with subsystem leaked %s locks, want 0", ftCrash[6])
	}
	if ftCrash[7] != "0" {
		t.Errorf("crash row with subsystem left %s waiters blocked, want 0", ftCrash[7])
	}
	// The baseline crash row must show the failure the subsystem removes:
	// with no reclaim sweep, every lock the dead threads held stays stuck.
	if got := atoiCell(t, cell(t, tbl, 2, 6)); got != 3 {
		t.Errorf("baseline crash row leaked %d locks, want all 3", got)
	}
}

func TestAllRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	tables := All()
	if len(tables) != 12 {
		t.Fatalf("All() = %d tables, want 12", len(tables))
	}
	for _, tbl := range tables {
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: empty table", tbl.ID)
		}
		if tbl.String() == "" {
			t.Errorf("%s: empty rendering", tbl.ID)
		}
	}
}

// TestE14RealWithinHeaderOfSim is the cross-transport byte check: netsim
// and loopback TCP charge the same workload the same payload bytes (one
// codec), so what TCP adds per message is its record header — kind,
// From/To/Class varints, two length prefixes — and never less than the
// framing netsim adds when it coalesces.
func TestE14RealWithinHeaderOfSim(t *testing.T) {
	const ops = 60
	for _, w := range []string{"invoke", "raise"} {
		realB, msgs, err := E14Cell(w, ops, true)
		if err != nil {
			t.Fatalf("%s over tcp: %v", w, err)
		}
		simB, _, err := E14Cell(w, ops, false)
		if err != nil {
			t.Fatalf("%s over netsim: %v", w, err)
		}
		if realB <= 0 || simB <= 0 || msgs < int64(ops) {
			t.Fatalf("%s: degenerate measurement real=%d sim=%d msgs=%d", w, realB, simB, msgs)
		}
		perMsg := float64(realB-simB) / float64(msgs)
		t.Logf("%s: real %d B, sim %d B, %.1f B/msg apart (%d msgs)", w, realB, simB, perMsg, msgs)
		if perMsg <= 0 || perMsg > 24 {
			t.Errorf("%s: TCP charges %.1f B/msg more than netsim, want a record header's worth (0 < x ≤ 24)", w, perMsg)
		}
	}
}
