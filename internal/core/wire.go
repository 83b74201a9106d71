package core

import (
	"errors"
	"time"

	"repro/internal/attrcache"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/thread"
)

// WireConfig tunes the wire-efficiency fast path. The zero value turns
// every optimization on; the two negative flags select the reference
// protocols the optimized ones are measured and differentially tested
// against (E11, E13, TestCodecDifferential).
type WireConfig struct {
	// FullAttrs ships complete attribute snapshots on every invocation hop
	// (the paper's literal §3.1 protocol) instead of version-keyed deltas.
	FullAttrs bool
	// NoBatching disables per-link send coalescing (DESIGN.md §11),
	// restoring one fabric message per envelope/delta/ack. On (batching
	// enabled, the default), messages to the same peer coalesce into batch
	// frames flushed on a size threshold or the flush window; an idle
	// link's first message still ships immediately. Batching is always off
	// under a *vclock.Virtual clock so simulation digests are unchanged.
	NoBatching bool
	// BatchMaxMsgs flushes a pending frame at this record count
	// (0 = netsim.DefaultBatchMaxMsgs).
	BatchMaxMsgs int
	// FlushInterval bounds how long a message may wait in a pending frame
	// (0 = netsim.DefaultFlushInterval). It is the worst-case latency
	// batching adds to any hop; keep it under the reliable layer's retry
	// base or every coalesced envelope will look like a loss.
	FlushInterval time.Duration

	// attrCacheSize bounds the per-node snapshot cache (0 =
	// attrcache.DefaultSize); tests shrink it to force evictions.
	attrCacheSize int
}

// errAttrResync is the callee's signal that it no longer holds the base
// snapshot a delta was diffed against (cache eviction, restart). It is
// returned before any part of the invocation executes, so the caller's
// single full-snapshot retry is idempotent.
var errAttrResync = errors.New("core: attribute base version unknown, resync required")

// stampVersion allocates a globally unique attribute snapshot version:
// node-salted so two kernels can never mint the same stamp, monotonic so a
// kernel never reuses one. Versions are pure cache keys — nothing orders
// or compares them beyond equality.
func (k *Kernel) stampVersion() uint64 {
	v := k.attrVer.Add(1)
	if k.dur != nil {
		// Durable nodes log version leases, not individual mints: the
		// counter only has to never move backward across a restart.
		k.dur.maybeLease(v)
	}
	return v<<8 | uint64(k.node)&0xff
}

// attrKey builds the snapshot cache key for a thread's version.
func attrKey(tid ids.ThreadID, ver uint64) attrcache.Key {
	return attrcache.Key{Thread: tid, Version: ver}
}

// retainRemoteBase records the snapshot this activation last exchanged with
// a peer node, so the next hop to that peer can ship a delta against it.
func (a *activation) retainRemoteBase(peer ids.NodeID, snap *thread.Attributes) {
	a.mu.Lock()
	if a.remoteBase == nil {
		a.remoteBase = make(map[ids.NodeID]*thread.Attributes)
	}
	a.remoteBase[peer] = snap
	a.mu.Unlock()
}

// sendAttrs decides the attribute encoding for one outbound invocation to
// home: a delta against the last exchanged snapshot when one exists, a
// freshly stamped full snapshot otherwise. It returns the request fields
// plus the stamped snapshot the caller must retain on success.
func (k *Kernel) sendAttrs(a *activation, home ids.NodeID, snapshot *thread.Attributes) (full *thread.Attributes, delta *thread.Delta) {
	if k.sys.cfg.Wire.FullAttrs {
		k.sys.reg.Inc(metrics.CtrAttrFullSent)
		return snapshot, nil
	}
	a.mu.Lock()
	base := a.remoteBase[home]
	a.mu.Unlock()
	if base == nil {
		snapshot.Version = k.stampVersion()
		k.sys.reg.Inc(metrics.CtrAttrFullSent)
		return snapshot, nil
	}
	d := thread.DiffAttrs(base, snapshot)
	if d.Unchanged() {
		snapshot.Version = d.Base
	} else {
		d.Version = k.stampVersion()
		snapshot.Version = d.Version
	}
	k.sys.reg.Inc(metrics.CtrAttrDeltaSent)
	return nil, d
}
