package cache

import (
	"errors"
	"sync"
	"time"

	"bess/internal/goleak"
	"bess/internal/lockcheck"
	"bess/internal/page"
)

// Version chains for multiversion snapshot reads (DESIGN.md §7).
//
// The newest committed image of a segment always lives on disk (and in the
// regular page cache); the VersionStore retains only superseded images —
// and only those a currently open snapshot might still need. An updater
// stages each segment before overwriting its pages (StageUpdate captures
// the pre-update image while any snapshot is open) and publishes the staged
// set at commit (CommitTx stamps the captured images with their validity
// window and bumps the segment's commit stamp). A snapshot read at stamp T
// resolves to exactly one of: a chain entry whose [from, until) window
// contains T, the current disk image (when the segment's stamp is ≤ T and
// no update is mid-overwrite), or ErrTrimmed — the caller reconstructs the
// image from WAL before-images instead.
//
// Retention is bounded two ways: a watermark GC goroutine drops every entry
// whose window ends at or below the oldest open snapshot (all entries, when no
// snapshot is open), and a per-segment cap evicts the oldest entries beyond
// maxVersions (snapshots that still needed one fall back to the WAL). There
// are no pins: a retained image is immutable after StageUpdate's one copy, so
// AsOf hands it out by value and dropping an entry drops only the chain's
// reference — the bytes live as long as the reply that holds them (Larson et
// al., PAPERS.md, reclaim by the oldest reader's watermark alone).

// ErrTrimmed reports that no retained version covers the requested stamp;
// the caller must reconstruct the image from the WAL (or treat the segment
// as not yet visible at that stamp).
var ErrTrimmed = errors.New("cache: version trimmed")

// Version-store tuning.
const (
	defaultMaxVersions = 8
	versionGCPeriod    = 50 * time.Millisecond
)

// VKey identifies one segment (area id + start page) without importing the
// wire-protocol package.
type VKey struct {
	Area  uint32
	Start int64
}

// VImage is one segment image: the three section byte runs.
type VImage struct {
	Slotted, Overflow, Data []byte
}

func (im *VImage) size() int { return len(im.Slotted) + len(im.Overflow) + len(im.Data) }

func cloneImage(im VImage) VImage {
	return VImage{
		Slotted:  append([]byte(nil), im.Slotted...),
		Overflow: append([]byte(nil), im.Overflow...),
		Data:     append([]byte(nil), im.Data...),
	}
}

// version is one retained committed image, valid for snapshot stamps in
// [from, until).
type version struct {
	from  page.LSN // commit stamp that produced this image
	until page.LSN // commit stamp that superseded it
	img   VImage
}

// stagedUpdate is one segment an in-flight transaction has begun
// overwriting: the pre-update image (captured only while a snapshot is
// open) and the stamp that produced it.
type stagedUpdate struct {
	key  VKey
	from page.LSN
	old  *VImage // nil: not captured, WAL fallback covers it
}

// VStats counts version-store activity.
type VStats struct {
	Entries   int   // retained versions
	Bytes     int64 // retained image bytes
	Captures  int64 // pre-update images copied by StageUpdate
	ChainHits int64 // AsOf served from a chain entry
	DiskReads int64 // AsOf resolved to the current disk image
	Waits     int64 // AsOf blocked on a mid-overwrite segment
	Trimmed   int64 // AsOf fell through to WAL reconstruction
	Trims     int64 // entries dropped by GC or the per-segment cap
}

// RankVersionStoreMu is VersionStore.mu's position in the server's lock
// hierarchy (internal/server/lockorder.go): inside every server registry
// lock (commit hooks stage under segment X locks), outside only Log.mu.
const RankVersionStoreMu lockcheck.Rank = 55

// VersionStore retains superseded segment images for open snapshots.
type VersionStore struct {
	oldest func() (page.LSN, bool) // oldest open snapshot (the GC watermark)

	mu      lockcheck.Mutex
	cond    *sync.Cond
	chains  map[VKey][]version        // ascending from; guarded by mu
	stamp   map[VKey]page.LSN         // last commit stamp per key; guarded by mu
	staged  map[VKey]int              // in-flight overwrites per key; guarded by mu
	pending map[uint64][]stagedUpdate // per-tx staged updates; guarded by mu
	stats   VStats                    // guarded by mu

	maxVersions int

	gc goleak.Group // the watermark GC ticker; Close stops it
}

// NewVersionStore wires a store to its snapshot registry: oldest yields the
// GC watermark. Starts the GC goroutine; Close stops it.
func NewVersionStore(oldest func() (page.LSN, bool)) *VersionStore {
	vs := &VersionStore{
		oldest:      oldest,
		chains:      make(map[VKey][]version),
		stamp:       make(map[VKey]page.LSN),
		staged:      make(map[VKey]int),
		pending:     make(map[uint64][]stagedUpdate),
		maxVersions: defaultMaxVersions,
	}
	vs.mu.Init("VersionStore.mu", RankVersionStoreMu)
	vs.cond = sync.NewCond(&vs.mu)
	vs.gc.Go("cache.versionGC", func(stop <-chan struct{}) {
		t := time.NewTicker(versionGCPeriod)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				vs.Trim()
			}
		}
	})
	return vs
}

// Close stops the GC goroutine and drops every entry. Idempotent.
func (vs *VersionStore) Close() {
	vs.gc.Stop()
	vs.mu.Lock()
	for key := range vs.chains {
		vs.trimChainLocked(key, 0, false)
	}
	vs.mu.Unlock()
}

// Staged is proof that a transaction has staged a segment with the version
// store: what the server's page-overwriting path takes before it writes the
// first page, so an update nobody staged cannot be written (DESIGN.md §4f).
// Only StageUpdate makes a non-zero one.
type Staged struct {
	tx uint64
	ok bool
}

// By reports whether s was minted for transaction txID; false for the zero
// Staged.
func (s Staged) By(txID uint64) bool { return s.ok && s.tx == txID }

// StageUpdate records that txID is about to overwrite key's pages, under the
// updater's X lock, and returns the proof of it. With capture set (the caller
// saw an open snapshot), old — the current committed image — is copied for
// the version chain; without it, WAL before-images cover reconstruction.
func (vs *VersionStore) StageUpdate(txID uint64, key VKey, old VImage, capture bool) Staged {
	vs.mu.Lock()
	u := stagedUpdate{key: key, from: vs.stamp[key]}
	if capture {
		img := cloneImage(old)
		u.old = &img
		vs.stats.Captures++
	}
	vs.pending[txID] = append(vs.pending[txID], u)
	vs.staged[key]++
	vs.mu.Unlock()
	return Staged{tx: txID, ok: true}
}

// CommitTx publishes txID's staged updates at commit stamp: captured old
// images join their chains with until=stamp, segment stamps advance, and
// waiting snapshot reads wake. Runs from the tx commit hook, before lock
// release.
func (vs *VersionStore) CommitTx(txID uint64, stamp page.LSN) {
	vs.mu.Lock()
	for _, u := range vs.pending[txID] {
		if u.old != nil {
			vs.chains[u.key] = append(vs.chains[u.key], version{from: u.from, until: stamp, img: *u.old})
			vs.stats.Entries++
			vs.stats.Bytes += int64(u.old.size())
			vs.capChainLocked(u.key)
		}
		vs.stamp[u.key] = stamp
		vs.unstageLocked(u.key)
	}
	delete(vs.pending, txID)
	vs.cond.Broadcast()
	vs.mu.Unlock()
}

// AbortTx drops txID's staged updates (undo restored the old pages) and
// wakes waiting snapshot reads.
func (vs *VersionStore) AbortTx(txID uint64) {
	vs.mu.Lock()
	for _, u := range vs.pending[txID] {
		vs.unstageLocked(u.key)
	}
	delete(vs.pending, txID)
	vs.cond.Broadcast()
	vs.mu.Unlock()
}

//bess:holds mu
func (vs *VersionStore) unstageLocked(key VKey) {
	if n := vs.staged[key]; n > 1 {
		vs.staged[key] = n - 1
	} else {
		delete(vs.staged, key)
	}
}

// AsOf resolves key as of snapshot stamp t.
//
//   - (img, true, nil): serve img, a retained chain image. It is shared and
//     immutable: read it, never write it.
//   - (_, false, nil): the current disk image is the as-of-t version. The
//     caller reads it and must confirm with Recheck before trusting it (an
//     update may stage mid-read); on a false Recheck, call AsOf again.
//   - (_, false, ErrTrimmed): no retained version covers t — reconstruct
//     from the WAL.
//
// AsOf blocks while key is mid-overwrite by an uncommitted update that a
// disk read would race (snapshot reads never block on locks, only on the
// short page-copy window of a committing writer).
func (vs *VersionStore) AsOf(key VKey, t page.LSN) (img VImage, hit bool, err error) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	for vs.stamp[key] <= t {
		// Current image is old enough. A zero stamp means the segment has
		// not been updated since startup; its image predates every snapshot
		// this store can have issued.
		if vs.staged[key] == 0 {
			vs.stats.DiskReads++
			return VImage{}, false, nil
		}
		vs.stats.Waits++
		vs.cond.Wait()
	}
	// Superseded after t: serve the chain entry covering t, if retained.
	chain := vs.chains[key]
	for i := range chain {
		if v := &chain[i]; v.from <= t && t < v.until {
			vs.stats.ChainHits++
			return v.img, true, nil
		}
	}
	vs.stats.Trimmed++
	return VImage{}, false, ErrTrimmed
}

// Recheck reports whether a disk image read after an AsOf disk-read verdict
// is still the valid as-of-t version of key: no update staged against it
// and its stamp still at or below t.
func (vs *VersionStore) Recheck(key VKey, t page.LSN) bool {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	return vs.stamp[key] <= t && vs.staged[key] == 0
}

// Trim drops every entry no open snapshot can reach: all of them when no
// snapshot is open, otherwise those whose window ends at or below the oldest
// snapshot's stamp. Called by the GC goroutine and on snapshot close.
func (vs *VersionStore) Trim() {
	w, any := vs.oldest()
	vs.mu.Lock()
	for key := range vs.chains {
		vs.trimChainLocked(key, w, any)
	}
	vs.mu.Unlock()
}

// trimChainLocked drops key's entries no snapshot at or above w can reach
// (all of them when none is open). A chain ascends — each commit of a
// segment supersedes the one before — so they are its oldest.
//
//bess:holds mu
func (vs *VersionStore) trimChainLocked(key VKey, w page.LSN, any bool) {
	chain := vs.chains[key]
	n := 0
	for n < len(chain) && (!any || chain[n].until <= w) {
		n++
	}
	vs.dropOldestLocked(key, n)
}

// capChainLocked evicts the oldest entries beyond maxVersions.
//
//bess:holds mu
func (vs *VersionStore) capChainLocked(key VKey) {
	vs.dropOldestLocked(key, len(vs.chains[key])-vs.maxVersions)
}

// dropOldestLocked drops key's n oldest entries (n <= 0: none): the chain
// lets go of their images, whoever else holds them keeps them.
//
//bess:holds mu
func (vs *VersionStore) dropOldestLocked(key VKey, n int) {
	chain := vs.chains[key]
	if n <= 0 {
		return
	}
	for i := range chain[:n] {
		vs.stats.Entries--
		vs.stats.Bytes -= int64(chain[i].img.size())
		vs.stats.Trims++
	}
	kept := append(chain[:0], chain[n:]...)
	clear(chain[len(kept):]) // the array under the chain keeps no image it dropped
	if len(kept) == 0 {
		delete(vs.chains, key)
		return
	}
	vs.chains[key] = kept
}

// VersionStats returns a copy of the counters.
func (vs *VersionStore) VersionStats() VStats {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	return vs.stats
}
