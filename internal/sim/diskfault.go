package sim

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
)

// Disk faults for the durability bugs. A crashed node's WAL is closed and
// its directory frozen, so damaging it between the crash-time capture and
// the restart is exactly what a lying disk does: the restart replays what
// is left, and the durable-replay invariant reports what went missing.
// The helpers read internal/wal's documented on-disk layout and nothing
// else of the package: seg-<first LSN>.wal files of u32 length | u32 crc |
// u16 kind | payload frames and snap-<covered LSN>.snap files, the LSNs 16
// hex digits wide — so names (and Glob's sorted results) order by LSN.

const walFrameHeader = 10

// walLSN cuts the hex LSN out of a segment or snapshot file name.
func walLSN(path string) string {
	stem := path[:len(path)-len(filepath.Ext(path))]
	return stem[len(stem)-16:]
}

// dropTailFrames cuts the last n frames off the newest non-empty segment
// in dir — the final group commits that were acknowledged but never
// reached the platter.
func dropTailFrames(dir string, n int) error {
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil {
		return err
	}
	for i := len(segs) - 1; i >= 0; i-- {
		raw, err := os.ReadFile(segs[i])
		if err != nil {
			return err
		}
		var ends []int64 // ends[j] = byte offset just past frame j
		for off := 0; off+walFrameHeader <= len(raw); {
			off += walFrameHeader + int(binary.LittleEndian.Uint32(raw[off:]))
			if off > len(raw) {
				return fmt.Errorf("sim: %s: frame runs past the end of the file", segs[i])
			}
			ends = append(ends, int64(off))
		}
		if len(ends) == 0 {
			continue // rotated just before the crash: the tail is one file back
		}
		keep := int64(0)
		if len(ends) > n {
			keep = ends[len(ends)-n-1]
		}
		return os.Truncate(segs[i], keep)
	}
	return nil
}

// dropSegmentsAfterSnapshot deletes every segment that starts past the
// newest snapshot's covered LSN (every segment, when there is no
// snapshot) — recovery is left with the snapshot and a stale tail.
func dropSegmentsAfterSnapshot(dir string) error {
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil {
		return err
	}
	covered := ""
	if len(snaps) > 0 {
		covered = walLSN(snaps[len(snaps)-1])
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if walLSN(seg) > covered {
			if err := os.Remove(seg); err != nil {
				return err
			}
		}
	}
	return nil
}
