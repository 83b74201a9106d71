package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

type trec struct {
	kind    uint16
	payload []byte
}

// replayAll reopens nothing: it scans dir and returns the snapshot plus
// the collected tail.
func replayAll(t *testing.T, dir string) ([]byte, []trec, Stats) {
	t.Helper()
	var tail []trec
	snap, st, err := Scan(dir, func(kind uint16, payload []byte) error {
		p := make([]byte, len(payload))
		copy(p, payload)
		tail = append(tail, trec{kind, p})
		return nil
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	return snap, tail, st
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	var want []trec
	for i := 0; i < 100; i++ {
		kind := uint16(i % 5)
		payload := []byte(fmt.Sprintf("record-%03d", i))
		if _, err := l.Append(kind, payload); err != nil {
			t.Fatal(err)
		}
		want = append(want, trec{kind, payload})
	}
	if got := l.LSN(); got != 100 {
		t.Fatalf("LSN = %d, want 100", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	snap, tail, st := replayAll(t, dir)
	if snap != nil {
		t.Fatalf("unexpected snapshot: %q", snap)
	}
	if st.Records != 100 || st.LastLSN != 100 || st.Truncated {
		t.Fatalf("stats = %+v", st)
	}
	for i, r := range tail {
		if r.kind != want[i].kind || !bytes.Equal(r.payload, want[i].payload) {
			t.Fatalf("record %d: got (%d, %q), want (%d, %q)",
				i, r.kind, r.payload, want[i].kind, want[i].payload)
		}
	}

	// Reopen and keep appending: LSNs continue, replay sees both runs.
	l, err = Open(dir, Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.LSN(); got != 100 {
		t.Fatalf("reopened LSN = %d, want 100", got)
	}
	if _, err := l.AppendSync(9, []byte("after-reopen")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, tail, st = replayAll(t, dir)
	if st.Records != 101 || tail[100].kind != 9 {
		t.Fatalf("after reopen: stats %+v, last (%d, %q)", st, tail[100].kind, tail[100].payload)
	}
}

func TestWALSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoFsync: true, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 100)
	for i := 0; i < 20; i++ {
		if _, err := l.AppendSync(1, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to leave several segments, got %d", len(segs))
	}
	_, tail, st := replayAll(t, dir)
	if st.Records != 20 || len(tail) != 20 {
		t.Fatalf("replay across segments: %+v", st)
	}
}

func TestWALSnapshotPrunesAndReplays(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoFsync: true, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := l.Append(1, []byte(fmt.Sprintf("pre-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	covered := l.LSN()
	if err := l.Snapshot([]byte("state@50"), covered); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := l.Append(2, []byte(fmt.Sprintf("post-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	snap, tail, st := replayAll(t, dir)
	if string(snap) != "state@50" {
		t.Fatalf("snapshot = %q", snap)
	}
	if st.SnapshotLSN != 50 || st.Records != 7 {
		t.Fatalf("stats = %+v", st)
	}
	for i, r := range tail {
		if r.kind != 2 || string(r.payload) != fmt.Sprintf("post-%d", i) {
			t.Fatalf("tail %d = (%d, %q)", i, r.kind, r.payload)
		}
	}

	// Old segments fully covered by the snapshot are gone.
	segs, _, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs[:len(segs)-1] {
		if s.start <= 40 {
			t.Fatalf("segment starting at %d survived a snapshot covering 50", s.start)
		}
	}

	// A second snapshot prunes beyond the keep limit.
	l, err = Open(dir, Options{NoFsync: true, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot([]byte("state@57"), l.LSN()); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot([]byte("state@57b"), l.LSN()); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, snaps, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) > snapKeep {
		t.Fatalf("%d snapshots survived pruning (keep %d)", len(snaps), snapKeep)
	}
	snap, _, st = replayAll(t, dir)
	if string(snap) != "state@57b" || st.Records != 0 {
		t.Fatalf("after re-snapshot: snap %q, stats %+v", snap, st)
	}
}

func TestWALTornTailTruncatesOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append(1, []byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: chop the last 3 bytes of the segment.
	segs, _, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := segs[len(segs)-1].path
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	// Scan (read-only) sees 9 records and reports the tear.
	_, tail, st := replayAll(t, dir)
	if st.Records != 9 || !st.Truncated {
		t.Fatalf("scan after tear: %+v", st)
	}
	if string(tail[8].payload) != "r8" {
		t.Fatalf("last surviving record = %q", tail[8].payload)
	}

	// Open truncates the tear; appends land after the last valid record.
	l, err = Open(dir, Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.LSN(); got != 9 {
		t.Fatalf("LSN after torn open = %d, want 9", got)
	}
	if _, err := l.AppendSync(7, []byte("healed")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, tail, st = replayAll(t, dir)
	if st.Records != 10 || st.Truncated {
		t.Fatalf("after heal: %+v", st)
	}
	if tail[9].kind != 7 || string(tail[9].payload) != "healed" {
		t.Fatalf("healed record = (%d, %q)", tail[9].kind, tail[9].payload)
	}
}

func TestWALCorruptMiddleRecordCutsThere(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append(1, []byte(fmt.Sprintf("mid-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := segs[len(segs)-1].path
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte near the middle: CRC of that record fails, the
	// valid prefix before it survives.
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, tail, st := replayAll(t, dir)
	if !st.Truncated {
		t.Fatalf("bit flip not detected: %+v", st)
	}
	if st.Records >= 10 || st.Records < 1 {
		t.Fatalf("surviving prefix out of range: %+v", st)
	}
	for i, r := range tail {
		if string(r.payload) != fmt.Sprintf("mid-%d", i) {
			t.Fatalf("prefix record %d corrupted: %q", i, r.payload)
		}
	}
}

func TestWALTornSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot([]byte("good"), l.LSN()); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot([]byte("newer"), l.LSN()); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest snapshot's body: its CRC fails, replay falls
	// back to the older one and replays the tail after it.
	raw, err := os.ReadFile(snapPath(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	raw[4] ^= 0xFF
	if err := os.WriteFile(snapPath(dir, 2), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, tail, st := replayAll(t, dir)
	if string(snap) != "good" || st.SnapshotLSN != 1 || !st.Truncated {
		t.Fatalf("fallback failed: snap %q, stats %+v", snap, st)
	}
	if len(tail) != 1 || string(tail[0].payload) != "b" {
		t.Fatalf("tail after fallback: %v", tail)
	}
}

func TestWALGroupCommitConcurrentAppendSync(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{}) // real fsync: the group-commit path
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := l.AppendSync(uint16(w), []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, tail, st := replayAll(t, dir)
	if st.Records != writers*each {
		t.Fatalf("lost records: %d of %d", st.Records, writers*each)
	}
	// Per-writer order is preserved even though batches interleave.
	next := map[uint16]int{}
	for _, r := range tail {
		if want := fmt.Sprintf("w%d-%d", r.kind, next[r.kind]); string(r.payload) != want {
			t.Fatalf("writer %d out of order: got %q want %q", r.kind, r.payload, want)
		}
		next[r.kind]++
	}
}

func TestWALFrameRoundTrip(t *testing.T) {
	frame := appendFrame(nil, 42, []byte("hello"))
	kind, payload, size, ok := parseFrame(frame)
	if !ok || kind != 42 || string(payload) != "hello" || size != len(frame) {
		t.Fatalf("frame roundtrip: ok=%v kind=%d payload=%q size=%d", ok, kind, payload, size)
	}
	// A huge declared length is rejected, not allocated.
	bad := make([]byte, frameHeader)
	binary.LittleEndian.PutUint32(bad[0:4], 1<<30)
	if _, _, _, ok := parseFrame(bad); ok {
		t.Fatal("oversized length accepted")
	}
}

func TestWALOpenDropsUnreachableSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoFsync: true, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := l.AppendSync(1, bytes.Repeat([]byte("y"), 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Skipf("rotation produced only %d segments", len(segs))
	}
	// Corrupt the middle segment: Open must truncate there and delete the
	// later segments (they are unreachable past the cut).
	mid := segs[1]
	raw, err := os.ReadFile(mid.path)
	if err != nil {
		t.Fatal(err)
	}
	raw[frameHeader+1] ^= 0xFF
	if err := os.WriteFile(mid.path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, Options{NoFsync: true, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	lsn := l.LSN()
	if lsn >= 12 || lsn < 1 {
		t.Fatalf("LSN after mid-log corruption = %d", lsn)
	}
	if _, err := l.AppendSync(2, []byte("resume")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	left, _, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(left); i++ {
		if _, _, torn, err := scanSegment(left[i].path, left[i].start, nil); err != nil || torn {
			t.Fatalf("segment %s still torn after reopen (err %v)", filepath.Base(left[i].path), err)
		}
	}
	_, tail, st := replayAll(t, dir)
	if st.Truncated {
		t.Fatalf("still truncated after reopen: %+v", st)
	}
	if string(tail[len(tail)-1].payload) != "resume" {
		t.Fatalf("resume record missing: %v", tail[len(tail)-1])
	}
}
