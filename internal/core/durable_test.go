package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/object"
	"repro/internal/testutil"
	"repro/internal/wal"
)

// durConfig is the chaos ftConfig plus durability rooted at a tempdir.
func durConfig(t *testing.T, nodes int) Config {
	t.Helper()
	cfg := ftConfig(nodes)
	cfg.Durability = DurabilityConfig{Enabled: true, Dir: t.TempDir()}
	return cfg
}

// kvSpec is an object whose "put" entry writes one KV pair.
func kvSpec(name string) object.Spec {
	return object.Spec{
		Name: name,
		Entries: map[string]object.Entry{
			"put": func(ctx object.Ctx, args []any) ([]any, error) {
				ctx.Set(args[0].(string), args[1])
				return nil, nil
			},
		},
	}
}

// TestDurableRestartRecoversKV drives kernel-level mutations at a durable
// node, crashes it, and checks the restart recovers exactly the state a
// correct replay of the disk yields — object KV, attribute-version lease,
// and the inbound dedup windows the remote invokes populated. A second
// crash/restart round proves the reopened log keeps journaling.
func TestDurableRestartRecoversKV(t *testing.T) {
	sys := newSystem(t, durConfig(t, 2))
	oid, err := sys.CreateObject(1, kvSpec("tally"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		h, err := sys.Spawn(2, oid, "put", fmt.Sprintf("k%d", i), i)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.WaitTimeout(waitShort); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	crashAndCheck := func(round int) {
		t.Helper()
		if err := sys.CrashNode(1); err != nil {
			t.Fatal(err)
		}
		want, err := sys.DurableSnapshot(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Lines) == 0 {
			t.Fatal("durable snapshot is empty — nothing was logged")
		}
		if err := sys.RestartNode(1); err != nil {
			t.Fatal(err)
		}
		got, err := sys.LastRecovered(1)
		if err != nil {
			t.Fatal(err)
		}
		if got == nil {
			t.Fatal("LastRecovered is nil after a durable restart")
		}
		if diff := want.Diff(got); len(diff) != 0 {
			t.Fatalf("round %d: recovery diverged from disk:\n%s", round, strings.Join(diff, "\n"))
		}
	}

	crashAndCheck(1)
	obj, err := sys.LookupObject(oid)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := obj.Get("k3"); !ok || v != 3 {
		t.Fatalf("k3 after recovery = %v,%v, want 3", v, ok)
	}
	// The inbound window that deduped node 2's invokes must have survived.
	rec, _ := sys.LastRecovered(1)
	hasWin := false
	for _, l := range rec.Lines {
		if strings.HasPrefix(l, "win ") {
			hasWin = true
		}
	}
	if !hasWin {
		t.Errorf("no dedup window recovered; lines:\n%s", strings.Join(rec.Lines, "\n"))
	}

	// Round 2: the reopened log must journal post-restart mutations.
	obj.Set("k9", 9)
	crashAndCheck(2)
	if v, ok := obj.Get("k9"); !ok || v != 9 {
		t.Fatalf("k9 after second recovery = %v,%v, want 9", v, ok)
	}
}

// TestDurableColdBootStagesState closes a durable system and boots a fresh
// one over the same datadir: an object recreated under the same name picks
// its durable KV back up through the staging path.
func TestDurableColdBootStagesState(t *testing.T) {
	dir := t.TempDir()
	mk := func() *System {
		return newSystem(t, Config{
			Nodes:       1,
			CallTimeout: 3 * time.Second,
			Durability:  DurabilityConfig{Enabled: true, Dir: dir},
		})
	}
	sys := mk()
	oid, err := sys.CreateObject(1, kvSpec("cfgstore"))
	if err != nil {
		t.Fatal(err)
	}
	obj, err := sys.LookupObject(oid)
	if err != nil {
		t.Fatal(err)
	}
	obj.Set("mode", "durable")
	obj.Set("limit", 7)
	sys.Close()

	sys2 := mk()
	oid2, err := sys2.CreateObject(1, kvSpec("cfgstore"))
	if err != nil {
		t.Fatal(err)
	}
	obj2, err := sys2.LookupObject(oid2)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := obj2.Get("mode"); !ok || v != "durable" {
		t.Errorf("mode = %v,%v, want durable", v, ok)
	}
	if v, ok := obj2.Get("limit"); !ok || v != 7 {
		t.Errorf("limit = %v,%v, want 7", v, ok)
	}
}

// newestSegment returns the path of the youngest non-empty WAL segment in
// a node's log directory (segment names sort by first LSN, and Glob returns
// them sorted).
func newestSegment(t *testing.T, nodeDir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(nodeDir, "seg-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for i := len(segs) - 1; i >= 0; i-- {
		if fi, err := os.Stat(segs[i]); err == nil && fi.Size() > 0 {
			return segs[i]
		}
	}
	t.Fatalf("no non-empty WAL segment under %s", nodeDir)
	return ""
}

// TestDurableInjectedReplayBugsAreVisible proves the recovery checker has
// teeth: when the disk loses part of the log between a crash and the
// restart (the two faults the simulation's bug-injection suite injects),
// the recovered state must differ from what the crash-time disk promised.
func TestDurableInjectedReplayBugsAreVisible(t *testing.T) {
	// crashDamageRestart crashes node 1, captures what its log promises,
	// lets damage loose on the log directory, restarts, and returns the
	// promise-vs-recovered diff.
	crashDamageRestart := func(t *testing.T, sys *System, nodeDir string, damage func()) []string {
		t.Helper()
		if err := sys.CrashNode(1); err != nil {
			t.Fatal(err)
		}
		want, err := sys.DurableSnapshot(1)
		if err != nil {
			t.Fatal(err)
		}
		damage()
		if err := sys.RestartNode(1); err != nil {
			t.Fatal(err)
		}
		got, err := sys.LastRecovered(1)
		if err != nil {
			t.Fatal(err)
		}
		return want.Diff(got)
	}

	t.Run("droptail", func(t *testing.T) {
		root := t.TempDir()
		sys := newSystem(t, Config{
			Nodes:       1,
			CallTimeout: 3 * time.Second,
			Durability:  DurabilityConfig{Enabled: true, Dir: root},
		})
		oid, err := sys.CreateObject(1, kvSpec("victim"))
		if err != nil {
			t.Fatal(err)
		}
		obj, _ := sys.LookupObject(oid)
		for i := 0; i < 8; i++ {
			obj.Set(fmt.Sprintf("k%d", i), i)
		}
		nodeDir := filepath.Join(root, "node-1")
		diff := crashDamageRestart(t, sys, nodeDir, func() {
			// The last group commits never reached the platter: the newest
			// segment ends half way through.
			seg := newestSegment(t, nodeDir)
			fi, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(seg, fi.Size()/2); err != nil {
				t.Fatal(err)
			}
		})
		if len(diff) == 0 {
			t.Fatal("dropped-tail replay recovered identical state — the checker would miss a lost fsync window")
		}
	})

	t.Run("ignoretail", func(t *testing.T) {
		root := t.TempDir()
		sys := newSystem(t, Config{
			Nodes:       1,
			CallTimeout: 3 * time.Second,
			Durability:  DurabilityConfig{Enabled: true, Dir: root, SnapshotEvery: 4},
		})
		oid, err := sys.CreateObject(1, kvSpec("victim"))
		if err != nil {
			t.Fatal(err)
		}
		obj, _ := sys.LookupObject(oid)
		for i := 0; i < 4; i++ {
			obj.Set(fmt.Sprintf("pre%d", i), i)
		}
		// The 4th append triggers an async snapshot; wait for it to land so
		// the post-snapshot writes below are genuinely tail-only.
		nodeDir := filepath.Join(root, "node-1")
		testutil.WaitFor(t, "snapshot to land on disk", func() bool {
			snap, _, err := wal.Scan(nodeDir, func(uint16, []byte) error { return nil })
			return err == nil && len(snap) > 0
		})
		for i := 0; i < 4; i++ {
			obj.Set(fmt.Sprintf("post%d", i), i)
		}
		diff := crashDamageRestart(t, sys, nodeDir, func() {
			// The snapshot survived, the segment behind it did not.
			if err := os.Remove(newestSegment(t, nodeDir)); err != nil {
				t.Fatal(err)
			}
		})
		if len(diff) == 0 {
			t.Fatal("stale-snapshot replay recovered identical state — the checker would miss it")
		}
		// The divergence must be the post-snapshot tail, lost.
		for _, d := range diff {
			if strings.HasPrefix(d, "-obj victim post") {
				return
			}
		}
		t.Fatalf("diff does not show the lost tail:\n%s", strings.Join(diff, "\n"))
	})
}

// TestDurableAckGateReportsUnwritableLog: once the log cannot commit — it
// is closed here, as after a crash — the reliable layer's ack gate must
// say so instead of releasing the ack: an envelope whose acceptance is not
// on disk may not be acknowledged.
func TestDurableAckGateReportsUnwritableLog(t *testing.T) {
	sys := newSystem(t, durConfig(t, 2))
	k, err := sys.Kernel(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.dur.ackGate(); err != nil {
		t.Fatalf("ackGate on a healthy log: %v", err)
	}
	k.dur.close()
	if err := k.dur.ackGate(); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("ackGate on a closed log = %v, want wal.ErrClosed", err)
	}
}
