package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALRoundTrip drives the full write path with fuzzer-chosen record
// contents and requires a lossless replay: every appended (kind, payload)
// pair comes back, in order, after a close-and-scan — across segment
// rotations, snapshots and reopens.
func FuzzWALRoundTrip(f *testing.F) {
	f.Add([]byte("hello world"), uint16(1), 64, false)
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0xFF}, uint16(0xFFFF), 32, true)
	f.Add([]byte(""), uint16(0), 1024, false)
	f.Add(bytes.Repeat([]byte{0xAB}, 300), uint16(7), 128, true)
	f.Fuzz(func(t *testing.T, data []byte, kind uint16, segBytes int, snapMid bool) {
		if segBytes <= 0 || segBytes > 1<<16 {
			segBytes = 128
		}
		dir := t.TempDir()
		l, err := Open(dir, Options{NoFsync: true, SegmentBytes: int64(segBytes)})
		if err != nil {
			t.Fatal(err)
		}
		// Carve the fuzz input into a handful of records: each chunk's
		// first byte perturbs the kind, the rest is the payload.
		var want []trec
		for i := 0; i < len(data) || i == 0; i += 17 {
			end := i + 17
			if end > len(data) {
				end = len(data)
			}
			chunk := data[i:end]
			k := kind
			if len(chunk) > 0 {
				k ^= uint16(chunk[0])
			}
			if _, err := l.Append(k, chunk); err != nil {
				t.Fatal(err)
			}
			want = append(want, trec{k, append([]byte(nil), chunk...)})
			if snapMid && i == 17 {
				if err := l.Snapshot(data, l.LSN()); err != nil {
					t.Fatal(err)
				}
				want = nil // covered by the snapshot now
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		var got []trec
		snap, st, err := Scan(dir, func(k uint16, p []byte) error {
			got = append(got, trec{k, append([]byte(nil), p...)})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.Truncated {
			t.Fatalf("clean log reported truncated: %+v", st)
		}
		if snapMid && len(data) > 17 && !bytes.Equal(snap, data) {
			t.Fatalf("snapshot did not round-trip: got %d bytes, want %d", len(snap), len(data))
		}
		if len(got) != len(want) {
			t.Fatalf("replayed %d records, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].kind != want[i].kind || !bytes.Equal(got[i].payload, want[i].payload) {
				t.Fatalf("record %d: got (%d, %x), want (%d, %x)",
					i, got[i].kind, got[i].payload, want[i].kind, want[i].payload)
			}
		}

		// Reopen after the clean close and append once more: the log must
		// accept writes at the next LSN with nothing lost.
		l, err = Open(dir, Options{NoFsync: true, SegmentBytes: int64(segBytes)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.AppendSync(kind, data); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzWALTornTail corrupts a valid log at a fuzzer-chosen point — a
// truncation or a bit flip — and requires recovery to land on a valid
// prefix of the original records without ever panicking: Scan reports the
// damage, Open truncates it, and the reopened log accepts new appends.
func FuzzWALTornTail(f *testing.F) {
	f.Add(uint16(3), 5, 0, false)
	f.Add(uint16(1), 40, 3, true)
	f.Add(uint16(0xFF), 999, 7, false)
	f.Add(uint16(9), 0, 1, true)
	f.Fuzz(func(t *testing.T, kind uint16, damageAt int, flip int, truncate bool) {
		dir := t.TempDir()
		l, err := Open(dir, Options{NoFsync: true})
		if err != nil {
			t.Fatal(err)
		}
		const n = 12
		for i := 0; i < n; i++ {
			if _, err := l.Append(kind, bytes.Repeat([]byte{byte(i)}, 9)); err != nil {
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
		if len(raw) == 0 {
			t.Skip("empty segment")
		}
		at := damageAt % len(raw)
		if at < 0 {
			at += len(raw)
		}
		if truncate {
			raw = raw[:at]
		} else {
			bit := flip % 8
			if bit < 0 {
				bit += 8
			}
			raw[at] ^= byte(1 << bit)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}

		// Scan never panics and yields a valid prefix of the originals.
		var got []trec
		_, st, err := Scan(dir, func(k uint16, p []byte) error {
			got = append(got, trec{k, append([]byte(nil), p...)})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.Records > n {
			t.Fatalf("replayed %d records from a %d-record log", st.Records, n)
		}
		for i, r := range got {
			want := bytes.Repeat([]byte{byte(i)}, 9)
			// A bit flip can survive CRC only with ~2^-32 probability; a
			// mismatch that passes CRC would show here.
			if r.kind != kind || !bytes.Equal(r.payload, want) {
				t.Fatalf("prefix record %d corrupted: (%d, %x)", i, r.kind, r.payload)
			}
		}

		// Open truncates the damage and the log keeps working.
		l, err = Open(dir, Options{NoFsync: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.AppendSync(kind, []byte("recovered")); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		var last trec
		_, st2, err := Scan(dir, func(k uint16, p []byte) error {
			last = trec{k, append([]byte(nil), p...)}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if st2.Truncated {
			t.Fatalf("damage survived reopen: %+v", st2)
		}
		if string(last.payload) != "recovered" {
			t.Fatalf("post-recovery append lost: %+v", last)
		}
	})
}

// TestWALFuzzCorpusPresent pins the checked-in seed corpora so a cleanup
// cannot silently drop them from fuzz-smoke.
func TestWALFuzzCorpusPresent(t *testing.T) {
	for _, target := range []string{"FuzzWALRoundTrip", "FuzzWALTornTail"} {
		ents, err := os.ReadDir(filepath.Join("testdata", "fuzz", target))
		if err != nil || len(ents) == 0 {
			t.Errorf("no checked-in corpus for %s (%v)", target, err)
		}
	}
}
