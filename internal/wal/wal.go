// Package wal implements the write-ahead log behind core.Config.Durability:
// a segmented, CRC-framed record log plus point-in-time snapshots.
//
// Layout. A log directory holds segment files (seg-<first LSN, 16 hex
// digits>.wal) and snapshot files (snap-<covered LSN>.snap). Records are
// framed as
//
//	u32 LE payload length | u32 LE CRC-32 (IEEE) of kind+payload | u16 LE kind | payload
//
// and numbered by position: the i'th record of a segment whose name says
// first LSN s has LSN s+i. A snapshot file is u32 LE CRC + payload and
// covers every record with LSN <= the LSN in its name; replay loads the
// newest valid snapshot and hands back only the record tail after it.
//
// Commit. Appenders enqueue encoded frames under the log mutex; a single
// flusher goroutine drains the queue with one write(2) and (unless
// Options.NoFsync) one fsync per batch, so concurrent appenders share one
// sync — group commit. AppendSync parks the caller until its record is on
// disk; Append is fire-and-forget for callers whose durability point is a
// later Sync. No timers are involved anywhere, so the log is safe under
// the simulator's virtual clock.
//
// Recovery. Open scans the directory, truncates a torn tail at the first
// structurally invalid frame (short header, over-long length, CRC
// mismatch, a segment-numbering gap) and discards any later segments;
// appending resumes after the last valid record. Scan does the same walk
// read-only and never modifies the directory, so a live log can be
// audited concurrently after a Sync.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

const (
	frameHeader = 10 // u32 payload length + u32 crc + u16 kind
	// maxRecord bounds one record's payload so a corrupt length field can
	// never force a huge allocation during replay.
	maxRecord  = 1 << 26
	segSuffix  = ".wal"
	snapSuffix = ".snap"
	segPrefix  = "seg-"
	snapPrefix = "snap-"
	// snapKeep is how many snapshots survive pruning: the newest plus one
	// fallback in case the newest is found torn at replay.
	snapKeep = 2
)

// ErrClosed is returned by appends against a closed log.
var ErrClosed = errors.New("wal: log closed")

// Options tune one log.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this size.
	// Zero picks 1 MiB.
	SegmentBytes int64
	// NoFsync skips every fsync (records and snapshots are still written,
	// just not forced to stable storage). The deterministic simulator sets
	// it: a simulated crash never loses the page cache, only a real
	// kill -9 does.
	NoFsync bool
}

func (o *Options) fillDefaults() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
}

// Stats reports what one replay pass saw.
type Stats struct {
	// Snapshot reports whether a valid snapshot was loaded, and
	// SnapshotLSN which records it covers.
	Snapshot    bool
	SnapshotLSN uint64
	// Records is the number of tail records delivered to the callback.
	Records int
	// LastLSN is the LSN of the last valid record found on disk.
	LastLSN uint64
	// Truncated reports that a torn tail (or a torn snapshot) was skipped.
	Truncated bool
}

// Log is an append-only write-ahead log over one directory. All methods
// are safe for concurrent use.
type Log struct {
	dir string
	opt Options

	mu   sync.Mutex
	cond *sync.Cond

	f        *os.File // active segment
	segStart uint64   // first LSN of the active segment
	segSize  int64

	lsn     uint64 // last assigned LSN
	buf     []byte // encoded frames waiting for the flusher
	bufLast uint64 // last LSN sitting in buf
	flushed uint64 // last LSN written (and fsynced, unless NoFsync)
	err     error  // sticky I/O failure
	closed  bool

	done chan struct{} // flusher exit
}

// Open opens (creating if needed) the log in dir, truncating any torn
// tail left by a crash. Appending resumes after the last valid record.
func Open(dir string, opt Options) (*Log, error) {
	opt.fillDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	segs, _, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opt: opt, done: make(chan struct{})}
	l.cond = sync.NewCond(&l.mu)

	// Walk the segments, validating frames; cut at the first invalid one.
	wantStart := uint64(0) // 0: accept any first segment (older ones pruned)
	cut := false
	for i, s := range segs {
		if cut || (wantStart != 0 && s.start != wantStart) {
			// Unreachable after a cut or a numbering gap: drop it.
			if err := os.Remove(s.path); err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
			segs[i].path = ""
			continue
		}
		n, validLen, torn, err := scanSegment(s.path, s.start, nil)
		if err != nil {
			return nil, err
		}
		if torn {
			if err := os.Truncate(s.path, validLen); err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
			cut = true
		}
		l.lsn = s.start + uint64(n) - 1
		if n == 0 {
			l.lsn = s.start - 1
		}
		l.segStart = s.start
		l.segSize = validLen
		wantStart = s.start + uint64(n)
	}
	// Open (or create) the active segment.
	var active string
	for i := len(segs) - 1; i >= 0; i-- {
		if segs[i].path != "" {
			active = segs[i].path
			break
		}
	}
	if active == "" {
		l.segStart = l.lsn + 1
		l.segSize = 0
		active = segPath(dir, l.segStart)
	}
	// Everything found on disk is already durable.
	l.flushed = l.lsn
	f, err := os.OpenFile(active, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l.f = f
	if err := l.syncDir(); err != nil {
		f.Close()
		return nil, err
	}
	go l.flusher()
	return l, nil
}

// LSN returns the last assigned record LSN (0 before the first append).
func (l *Log) LSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsn
}

// Flushed returns the LSN of the last record the flusher has made
// durable: every record at or below it has been written (and fsynced,
// unless NoFsync) to the active segment.
func (l *Log) Flushed() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushed
}

// Append enqueues one record for the next group commit and returns its
// LSN. Durability is deferred to the flusher; use AppendSync or Sync for
// a commit point.
func (l *Log) Append(kind uint16, payload []byte) (uint64, error) {
	if len(payload) > maxRecord {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds limit", len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	l.lsn++
	l.buf = appendFrame(l.buf, kind, payload)
	l.bufLast = l.lsn
	l.cond.Broadcast()
	return l.lsn, nil
}

// AppendSync appends one record and parks the caller until the record is
// on disk — the group-commit path: every caller blocked here rides the
// same write+fsync.
func (l *Log) AppendSync(kind uint16, payload []byte) (uint64, error) {
	lsn, err := l.Append(kind, payload)
	if err != nil {
		return 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.flushed < lsn && l.err == nil {
		l.cond.Wait()
	}
	return lsn, l.err
}

// Sync blocks until every record appended so far is on disk.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	target := l.lsn
	for l.flushed < target && l.err == nil {
		l.cond.Wait()
	}
	return l.err
}

// flusher is the single goroutine that drains the append queue: one
// write(2) plus one fsync per batch, shared by every pending appender.
func (l *Log) flusher() {
	defer close(l.done)
	for {
		l.mu.Lock()
		for len(l.buf) == 0 && !l.closed && l.err == nil {
			l.cond.Wait()
		}
		if l.err != nil || (l.closed && len(l.buf) == 0) {
			l.mu.Unlock()
			return
		}
		batch := l.buf
		last := l.bufLast
		l.buf = nil
		f := l.f
		l.mu.Unlock()

		_, werr := f.Write(batch)
		if werr == nil && !l.opt.NoFsync {
			werr = f.Sync()
		}

		l.mu.Lock()
		if werr != nil {
			l.err = fmt.Errorf("wal: %w", werr)
		} else {
			l.flushed = last
			l.segSize += int64(len(batch))
			if l.segSize >= l.opt.SegmentBytes {
				if rerr := l.rotateLocked(); rerr != nil {
					l.err = rerr
				}
			}
		}
		l.cond.Broadcast()
		l.mu.Unlock()
	}
}

// rotateLocked closes the active segment and starts a fresh one at the
// next LSN. Caller holds l.mu and guarantees the queue is drained to the
// active file (flusher calls it right after a batch lands).
func (l *Log) rotateLocked() error {
	if !l.opt.NoFsync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	start := l.flushed + 1
	f, err := os.OpenFile(segPath(l.dir, start), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.segStart = start
	l.segSize = 0
	return l.syncDir()
}

// Snapshot writes a point-in-time state blob covering every record with
// LSN <= covered, then prunes snapshots and segments the new snapshot
// makes unreachable. covered is typically LSN() sampled before the caller
// rendered the state: records appended while rendering simply stay in the
// replayed tail and re-apply idempotently.
func (l *Log) Snapshot(state []byte, covered uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if covered > l.lsn {
		return fmt.Errorf("wal: snapshot covers LSN %d beyond last record %d", covered, l.lsn)
	}
	// Drain the queue first so the rotation below cannot strand queued
	// records numbered for the old segment.
	for l.flushed < l.lsn && l.err == nil {
		l.cond.Wait()
	}
	if l.err != nil {
		return l.err
	}

	tmp, err := os.CreateTemp(l.dir, "snap-*.tmp")
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], crc32.ChecksumIEEE(state))
	if _, err := tmp.Write(hdr[:]); err == nil {
		_, err = tmp.Write(state)
	}
	if err == nil && !l.opt.NoFsync {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp.Name(), snapPath(l.dir, covered)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.syncDir(); err != nil {
		return err
	}
	// Rotate so the now-covered active segment becomes prunable by the
	// next snapshot.
	if l.segSize > 0 {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	return l.pruneLocked(covered)
}

// pruneLocked removes snapshots beyond the keep limit and segments wholly
// covered by the OLDEST kept snapshot — not the newest, because if the
// newest snapshot turns out torn at replay, the fallback snapshot still
// needs the record tail after itself. Caller holds l.mu.
func (l *Log) pruneLocked(covered uint64) error {
	segs, snaps, err := scanDir(l.dir)
	if err != nil {
		return err
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].lsn > snaps[j].lsn })
	keepCovered := covered
	for i, sn := range snaps {
		if i >= snapKeep {
			if err := os.Remove(sn.path); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			continue
		}
		if sn.lsn < keepCovered {
			keepCovered = sn.lsn
		}
	}
	// A segment is prunable when the next segment starts at or below
	// keepCovered+1 (so every record it holds is <= keepCovered) — never
	// the active segment.
	for i := 0; i+1 < len(segs); i++ {
		if segs[i].start == l.segStart {
			break
		}
		if segs[i+1].start <= keepCovered+1 {
			if err := os.Remove(segs[i].path); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
		}
	}
	return l.syncDir()
}

// Replay loads the newest valid snapshot (nil if none) and streams the
// record tail after it, in LSN order, to fn. It reads the log's own
// directory; call it right after Open, before new appends.
func (l *Log) Replay(fn func(kind uint16, payload []byte) error) ([]byte, Stats, error) {
	if err := l.Sync(); err != nil {
		return nil, Stats{}, err
	}
	return Scan(l.dir, fn)
}

// Close flushes the queue and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
	<-l.done

	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.err
	if !l.opt.NoFsync {
		if serr := l.f.Sync(); err == nil && serr != nil {
			err = fmt.Errorf("wal: %w", serr)
		}
	}
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: %w", cerr)
	}
	return err
}

func (l *Log) syncDir() error {
	if l.opt.NoFsync {
		return nil
	}
	d, err := os.Open(l.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// --- read side --------------------------------------------------------------

// Scan walks the log directory read-only: it returns the newest valid
// snapshot blob (nil if none) and streams the tail records after it to
// fn (the payload is only valid during the call). Torn tails and torn
// snapshots are skipped, never fatal — recovery always lands on the last
// valid prefix.
func Scan(dir string, fn func(kind uint16, payload []byte) error) ([]byte, Stats, error) {
	var st Stats
	segs, snaps, err := scanDir(dir)
	if err != nil {
		return nil, st, err
	}

	// Newest structurally valid snapshot wins; a torn one falls back.
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].lsn > snaps[j].lsn })
	var snap []byte
	for _, sn := range snaps {
		raw, err := os.ReadFile(sn.path)
		if err != nil {
			return nil, st, fmt.Errorf("wal: %w", err)
		}
		if len(raw) < 4 || crc32.ChecksumIEEE(raw[4:]) != binary.LittleEndian.Uint32(raw[:4]) {
			st.Truncated = true
			continue
		}
		snap = raw[4:]
		st.Snapshot = true
		st.SnapshotLSN = sn.lsn
		break
	}

	// Stream the tail: records with LSN > SnapshotLSN, cut at the first
	// invalid frame or numbering gap.
	var fnErr error
	wantStart := uint64(0)
	for _, s := range segs {
		if wantStart != 0 && s.start != wantStart {
			st.Truncated = true
			break
		}
		n, _, torn, err := scanSegment(s.path, s.start, func(lsn uint64, kind uint16, payload []byte) {
			st.LastLSN = lsn
			if lsn <= st.SnapshotLSN || fnErr != nil {
				return
			}
			if fn != nil {
				if fnErr = fn(kind, payload); fnErr != nil {
					return
				}
			}
			st.Records++
		})
		if err == nil {
			err = fnErr
		}
		if err != nil {
			return nil, st, err
		}
		if torn {
			st.Truncated = true
			break
		}
		wantStart = s.start + uint64(n)
	}
	return snap, st, nil
}

type segRef struct {
	path  string
	start uint64
}

type snapRef struct {
	path string
	lsn  uint64
}

// scanDir lists segments (ascending start LSN) and snapshots. Stray
// files — tmp snapshots from a crashed rename, unrelated names — are
// ignored.
func scanDir(dir string) ([]segRef, []snapRef, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil
		}
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segRef
	var snaps []snapRef
	for _, e := range ents {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix):
			if n, ok := parseHex(name[len(segPrefix) : len(name)-len(segSuffix)]); ok {
				segs = append(segs, segRef{filepath.Join(dir, name), n})
			}
		case strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffix):
			if n, ok := parseHex(name[len(snapPrefix) : len(name)-len(snapSuffix)]); ok {
				snaps = append(snaps, snapRef{filepath.Join(dir, name), n})
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
	return segs, snaps, nil
}

// scanSegment validates one segment's frames in order, invoking fn (if
// non-nil) per valid record. It returns the record count, the byte length
// of the valid prefix, and whether a torn tail follows it.
func scanSegment(path string, start uint64, fn func(lsn uint64, kind uint16, payload []byte)) (n int, validLen int64, torn bool, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, false, fmt.Errorf("wal: %w", err)
	}
	off := 0
	for {
		kind, payload, size, ok := parseFrame(raw[off:])
		if !ok {
			return n, int64(off), off != len(raw), nil
		}
		if fn != nil {
			fn(start+uint64(n), kind, payload)
		}
		n++
		off += size
	}
}

// appendFrame encodes one record frame onto dst.
func appendFrame(dst []byte, kind uint16, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	crc := crc32.NewIEEE()
	var kb [2]byte
	binary.LittleEndian.PutUint16(kb[:], kind)
	crc.Write(kb[:])
	crc.Write(payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc.Sum32())
	binary.LittleEndian.PutUint16(hdr[8:10], kind)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// parseFrame decodes the frame at the head of b. ok is false for a short,
// over-long or CRC-mismatched frame — the torn-tail cases.
func parseFrame(b []byte) (kind uint16, payload []byte, size int, ok bool) {
	if len(b) < frameHeader {
		return 0, nil, 0, false
	}
	plen := binary.LittleEndian.Uint32(b[0:4])
	if plen > maxRecord || int(plen) > len(b)-frameHeader {
		return 0, nil, 0, false
	}
	want := binary.LittleEndian.Uint32(b[4:8])
	kind = binary.LittleEndian.Uint16(b[8:10])
	payload = b[frameHeader : frameHeader+int(plen)]
	crc := crc32.NewIEEE()
	crc.Write(b[8:10])
	crc.Write(payload)
	if crc.Sum32() != want {
		return 0, nil, 0, false
	}
	return kind, payload, frameHeader + int(plen), true
}

func segPath(dir string, start uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", segPrefix, start, segSuffix))
}

func snapPath(dir string, lsn uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", snapPrefix, lsn, snapSuffix))
}

func parseHex(s string) (uint64, bool) {
	if len(s) != 16 {
		return 0, false
	}
	n, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}
