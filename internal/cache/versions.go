package cache

import (
	"fmt"
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
// and only those a snapshot might still need. An updater stages each segment
// before overwriting its pages, handing StageUpdate the pre-update image it
// read (the store owns those bytes from then on), and publishes the staged
// set at commit (CommitTx stamps each image with its validity window and
// bumps the segment's commit stamp). A snapshot read at stamp T resolves to
// exactly one of: a chain entry whose [from, until) window contains T, or the
// current disk image (when the segment's stamp is ≤ T and no update is
// mid-overwrite). Nothing else: the store keeps every image a snapshot can
// reach, so a miss is an invariant violation (VersionMiss).
//
// Retention is by watermark alone (Larson et al., PAPERS.md: reclaim by the
// oldest reader): the watermark is the smallest stamp an open snapshot has,
// or the commit stamp when none is smaller, and an image superseded at or
// below it is one no snapshot, open or still to come, can read. CommitTx
// drops such an image at its commit — every image when no snapshot is open —
// and Trim drops the rest as snapshots close. There is no per-segment cap: a
// cap would evict images an open snapshot reads. There are no pins either: a
// retained image is immutable, so AsOf hands it out by value and dropping an
// entry drops only the chain's reference — the bytes live as long as the
// reply that holds them.

// versionGCPeriod paces the background Trim, which catches what a commit
// published beside a closing snapshot's own Trim.
const versionGCPeriod = 50 * time.Millisecond

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

// version is one retained committed image, valid for snapshot stamps in
// [from, until).
type version struct {
	from  page.LSN // commit stamp that produced this image
	until page.LSN // commit stamp that superseded it
	img   VImage
}

// stagedUpdate is one segment an in-flight transaction has begun
// overwriting: the pre-update image and the stamp that produced it.
type stagedUpdate struct {
	key  VKey
	from page.LSN
	old  VImage
}

// VStats counts version-store activity.
type VStats struct {
	Entries   int   // retained versions
	Bytes     int64 // retained image bytes
	Captures  int64 // pre-update images a commit added to a chain
	ChainHits int64 // AsOf served from a chain entry
	DiskReads int64 // AsOf resolved to the current disk image
	Waits     int64 // AsOf blocked on a mid-overwrite segment
	Trimmed   int64 // AsOf found no image: a VersionMiss
	Trims     int64 // entries dropped by Trim
}

// A VersionMiss is AsOf finding no image for a stamp its segment has moved
// past. Below Floor — the highest watermark the store has reclaimed at, which
// no open snapshot's stamp is below — the snapshot that asked has closed and
// the read raced its close. At or above Floor an image an open snapshot can
// reach is gone: an invariant violation, which panics under the invariants
// build tag.
type VersionMiss struct {
	Key   VKey
	At    page.LSN
	Floor page.LSN
}

func (e *VersionMiss) Error() string {
	what := "snapshot closed"
	if e.At >= e.Floor {
		what = "retained version missing"
	}
	return fmt.Sprintf("cache: segment %d/%d as of %d: %s (watermark %d)", e.Key.Area, e.Key.Start, e.At, what, e.Floor)
}

// RankVersionStoreMu is VersionStore.mu's position in the server's lock
// hierarchy (internal/server/lockorder.go): inside every server registry
// lock (commit hooks stage under segment X locks), outside only Log.mu.
const RankVersionStoreMu lockcheck.Rank = 55

// VersionStore retains superseded segment images for open snapshots.
type VersionStore struct {
	watermark func() page.LSN // the reclaim horizon (tx.Manager.Watermark)

	mu      lockcheck.Mutex
	cond    *sync.Cond
	chains  map[VKey][]version        // ascending from; guarded by mu
	stamp   map[VKey]page.LSN         // last commit stamp per key; guarded by mu
	staged  map[VKey]int              // in-flight overwrites per key; guarded by mu
	pending map[uint64][]stagedUpdate // per-tx staged updates; guarded by mu
	floor   page.LSN                  // highest watermark reclaimed at; guarded by mu
	stats   VStats                    // guarded by mu

	gc goleak.Group // the watermark GC ticker; Close stops it
}

// NewVersionStore wires a store to its snapshot registry: watermark yields
// the reclaim horizon, and must be computed in one step over the commit stamp
// and every open snapshot's stamp. Starts the GC goroutine; Close stops it.
func NewVersionStore(watermark func() page.LSN) *VersionStore {
	vs := &VersionStore{
		watermark: watermark,
		chains:    make(map[VKey][]version),
		stamp:     make(map[VKey]page.LSN),
		staged:    make(map[VKey]int),
		pending:   make(map[uint64][]stagedUpdate),
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
	for key, chain := range vs.chains {
		vs.dropOldestLocked(key, len(chain))
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
// updater's X lock, and returns the proof of it. old is the current committed
// image as the updater read it; the store takes ownership of its bytes, which
// nobody may write from here on.
func (vs *VersionStore) StageUpdate(txID uint64, key VKey, old VImage) Staged {
	vs.mu.Lock()
	vs.pending[txID] = append(vs.pending[txID], stagedUpdate{key: key, from: vs.stamp[key], old: old})
	vs.staged[key]++
	vs.mu.Unlock()
	return Staged{tx: txID, ok: true}
}

// CommitTx publishes txID's staged updates at commit stamp: each old image
// joins its chain with until=stamp unless no snapshot can reach it, segment
// stamps advance, and waiting snapshot reads wake. Runs from the tx commit
// hook, after the version clock has passed stamp and before lock release.
func (vs *VersionStore) CommitTx(txID uint64, stamp page.LSN) {
	w := vs.watermark() // Manager.mu ranks outside mu
	vs.mu.Lock()
	vs.floor = max(vs.floor, w)
	for _, u := range vs.pending[txID] {
		// A segment the transaction staged twice ends its chain with this
		// commit's image already: the second stage read the transaction's own
		// write, not a committed image.
		chain := vs.chains[u.key]
		if stamp > w && (len(chain) == 0 || chain[len(chain)-1].until != stamp) {
			vs.chains[u.key] = append(chain, version{from: u.from, until: stamp, img: u.old})
			vs.stats.Entries++
			vs.stats.Bytes += int64(u.old.size())
			vs.stats.Captures++
		}
		vs.stamp[u.key] = stamp
		vs.unstageLocked(u.key)
	}
	delete(vs.pending, txID)
	vs.cond.Broadcast()
	vs.mu.Unlock()
}

// AbortTx drops txID's staged updates (the old pages were never overwritten)
// and wakes waiting snapshot reads.
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
//   - (_, false, *VersionMiss): no image covers t.
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
	// Superseded after t: serve the chain entry covering t. Snapshots read
	// recent stamps, so the search starts at the newest.
	chain := vs.chains[key]
	for i := len(chain) - 1; i >= 0; i-- {
		if v := &chain[i]; v.from <= t && t < v.until {
			vs.stats.ChainHits++
			return v.img, true, nil
		}
	}
	vs.stats.Trimmed++
	miss := &VersionMiss{Key: key, At: t, Floor: vs.floor}
	if lockcheck.Enabled && t >= vs.floor {
		panic(miss.Error())
	}
	return VImage{}, false, miss
}

// Recheck reports whether a disk image read after an AsOf disk-read verdict
// is still the valid as-of-t version of key: no update staged against it
// and its stamp still at or below t.
func (vs *VersionStore) Recheck(key VKey, t page.LSN) bool {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	return vs.stamp[key] <= t && vs.staged[key] == 0
}

// Trim drops every entry superseded at or below the watermark: all of them
// once no snapshot is open. Called by the GC goroutine and on snapshot close.
func (vs *VersionStore) Trim() {
	w := vs.watermark()
	vs.mu.Lock()
	vs.floor = max(vs.floor, w)
	for key, chain := range vs.chains {
		// A chain ascends — each commit of a segment supersedes the one
		// before — so what goes is its oldest.
		n := 0
		for n < len(chain) && chain[n].until <= w {
			n++
		}
		vs.dropOldestLocked(key, n)
	}
	vs.mu.Unlock()
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
