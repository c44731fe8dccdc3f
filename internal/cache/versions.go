package cache

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"bess/internal/lockcheck"
	"bess/internal/page"
)

// Version chains for multiversion snapshot reads (DESIGN.md §7).
//
// The store is the snapshot registry as well as the chains: it keeps the
// version clock (the highest published commit stamp), the open snapshots and
// their owners, and computes the watermark from them under the same mu that
// guards the chains it reclaims.
//
// The newest committed image of a segment always lives on disk (and in the
// regular page cache); the VersionStore retains only superseded images —
// and only those a snapshot might still need. An updater stages each segment
// before overwriting its pages, handing StageUpdate the pre-update image it
// read (the store owns those bytes from then on), and publishes the staged
// set at commit (CommitTx advances the clock, stamps each image with its
// validity window and bumps the segment's commit stamp). A commit writes its
// pages after it is published, so its segments stay staged until the
// write-back ends (Landed): every read at the new clock — a snapshot's in
// AsOf, a live one in WaitWritten — waits the write out. A snapshot read at
// stamp T resolves to exactly one of: a chain entry whose [from, until)
// window contains T, or the current disk image (when the segment's stamp is
// ≤ T and no update is mid-overwrite). Nothing else: the store keeps every
// image a snapshot can reach, so a miss is an invariant violation
// (VersionMiss).
//
// Retention is by watermark alone (Larson et al., PAPERS.md: reclaim by the
// oldest reader): the watermark is the smallest stamp an open snapshot has,
// or the clock when none is smaller, and an image superseded at or below it
// is one no snapshot, open or still to come, can read. While a snapshot is
// open the watermark is the oldest one's stamp, which only a close moves;
// with none open it is the clock, and a commit retains nothing. So CommitTx
// drops such an image at its commit and a close drops the rest in its own mu
// section: no retained image is ever at or below the watermark. There is no
// per-segment cap: a cap would evict images an open snapshot reads. There
// are no pins either: a retained image is immutable, so AsOf hands it out by
// value and dropping an entry drops only the chain's reference — the bytes
// live as long as the reply that holds them.

// ErrNotOwner is the refusal to close a snapshot another client opened.
var ErrNotOwner = errors.New("cache: snapshot belongs to another client")

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
// overwriting: the pre-update image and the stamp that produced it — or, with
// bare set, none of them (StageWrite).
type stagedUpdate struct {
	key  VKey
	from page.LSN
	old  VImage
	bare bool
}

// VStats counts version-store activity.
type VStats struct {
	Entries   int   // retained versions
	Bytes     int64 // retained image bytes
	Captures  int64 // pre-update images a commit added to a chain
	ChainHits int64 // AsOf served from a chain entry
	DiskReads int64 // AsOf resolved to the current disk image
	Waits     int64 // AsOf blocked on a mid-overwrite segment
	Written   int64 // reads that waited out a published commit's page writes
	Trimmed   int64 // AsOf found no image: a VersionMiss
	Trims     int64 // entries dropped as snapshots closed
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

// VersionStore retains superseded segment images for open snapshots, and
// registers the snapshots.
type VersionStore struct {
	mu      lockcheck.Mutex
	cond    *sync.Cond
	clock   atomic.Uint64             // highest published commit stamp; written under mu
	snaps   map[uint64]openSnap       // open snapshots by id; guarded by mu
	lastID  uint64                    // last snapshot id issued; guarded by mu
	chains  map[VKey][]version        // ascending from; guarded by mu
	stamp   map[VKey]page.LSN         // last commit stamp per key; guarded by mu
	staged  map[VKey]int              // in-flight overwrites per key, until written; guarded by mu
	pending map[uint64][]stagedUpdate // per-tx staged updates, until it ends; guarded by mu
	landing map[uint64][]stagedUpdate // per committed tx, its staged updates while it writes their pages; guarded by mu
	writing map[VKey]int              // per key, the committed txs writing its pages; guarded by mu
	nwrite  atomic.Int64              // sum of writing: WaitWritten's fast path; written under mu
	floor   page.LSN                  // highest watermark reclaimed at; guarded by mu
	stats   VStats                    // guarded by mu
}

// openSnap is one open snapshot: the client that opened it and its stamp.
type openSnap struct {
	owner uint32
	stamp page.LSN
}

// NewVersionStore returns a store whose version clock starts at clock: the
// last stamp a commit before it can have had (the log's last LSN), so that
// every snapshot it opens sits at or above every earlier commit.
func NewVersionStore(clock page.LSN) *VersionStore {
	vs := &VersionStore{
		snaps:   make(map[uint64]openSnap),
		chains:  make(map[VKey][]version),
		stamp:   make(map[VKey]page.LSN),
		staged:  make(map[VKey]int),
		pending: make(map[uint64][]stagedUpdate),
		landing: make(map[uint64][]stagedUpdate),
		writing: make(map[VKey]int),
	}
	vs.clock.Store(uint64(clock))
	vs.mu.Init("VersionStore.mu", RankVersionStoreMu)
	vs.cond = sync.NewCond(&vs.mu)
	return vs
}

// Clock returns the version clock: the stamp of a read of the current image.
// It takes no lock: a live read's stamp waits for no commit and no close.
func (vs *VersionStore) Clock() page.LSN { return page.LSN(vs.clock.Load()) }

// Open opens a snapshot for owner at the clock's current stamp and returns
// its id (unique per store) and stamp. The stamp is at or above the
// watermark, so nothing it can read has been reclaimed.
func (vs *VersionStore) Open(owner uint32) (uint64, page.LSN) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	vs.lastID++
	t := vs.Clock()
	vs.snaps[vs.lastID] = openSnap{owner: owner, stamp: t}
	return vs.lastID, t
}

// Stamp returns open snapshot id's stamp.
func (vs *VersionStore) Stamp(id uint64) (page.LSN, error) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	return vs.stampLocked(id)
}

func (vs *VersionStore) stampLocked(id uint64) (page.LSN, error) {
	vs.mu.AssertHeld()
	sn, ok := vs.snaps[id]
	if !ok {
		return 0, fmt.Errorf("cache: unknown snapshot %d", id)
	}
	return sn.stamp, nil
}

// Close closes owner's snapshot id and drops what only it was retaining. An
// id that is not open is a no-op; another client's is refused with
// ErrNotOwner and stays open.
func (vs *VersionStore) Close(owner uint32, id uint64) error {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	sn, ok := vs.snaps[id]
	if !ok {
		return nil
	}
	if sn.owner != owner {
		return ErrNotOwner
	}
	delete(vs.snaps, id)
	vs.trimLocked()
	return nil
}

// CloseOwner closes every snapshot owner has open (a departing client) and
// drops what only they were retaining.
func (vs *VersionStore) CloseOwner(owner uint32) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	n := len(vs.snaps)
	maps.DeleteFunc(vs.snaps, func(_ uint64, sn openSnap) bool { return sn.owner == owner })
	if len(vs.snaps) < n {
		vs.trimLocked()
	}
}

// watermarkLocked is the reclaim horizon: the smallest open snapshot's
// stamp, or the clock when none is open.
func (vs *VersionStore) watermarkLocked() page.LSN {
	vs.mu.AssertHeld()
	w := vs.Clock()
	for _, sn := range vs.snaps {
		w = min(w, sn.stamp)
	}
	return w
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

// StageWrite records that txID's commit writes key's pages with no
// pre-update image for the chains: a segment it creates, or one of a branch
// restart adopted, whose image before the branch nobody read. Reads wait the
// write out as for StageUpdate, and the segment's stamp stays where it was.
func (vs *VersionStore) StageWrite(txID uint64, key VKey) {
	vs.mu.Lock()
	vs.pending[txID] = append(vs.pending[txID], stagedUpdate{key: key, bare: true})
	vs.staged[key]++
	vs.mu.Unlock()
}

// HasStaged reports whether txID has staged anything it has not committed.
func (vs *VersionStore) HasStaged(txID uint64) bool {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	return len(vs.pending[txID]) > 0
}

// CommitTx publishes txID's staged updates at commit stamp: the clock
// advances to stamp (it only moves forward: commit hooks can race), each old
// image joins its chain with until=stamp unless no snapshot can reach it, and
// segment stamps advance. The segments stay staged while the commit writes
// their pages, until Landed. Runs from the tx commit hook, after the commit
// record is durable and before the write-back.
func (vs *VersionStore) CommitTx(txID uint64, stamp page.LSN) {
	vs.mu.Lock()
	us := vs.pending[txID]
	// WaitWritten's fast path reads nwrite without mu: it must count these
	// writes before a reader can take the stamp they are published at.
	vs.nwrite.Add(int64(len(us)))
	vs.clock.Store(uint64(max(vs.Clock(), stamp)))
	w := vs.watermarkLocked()
	vs.floor = max(vs.floor, w)
	for i, u := range us {
		us[i].old = VImage{} // the chain has it, or nobody can read it
		vs.writing[u.key]++
		if u.bare {
			continue
		}
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
	}
	delete(vs.pending, txID)
	if len(us) > 0 {
		vs.landing[txID] = us
	}
	vs.cond.Broadcast() // snapshot reads below stamp take the chain
	vs.mu.Unlock()
}

// Landed ends what CommitTx began for txID: its pages are written, and the
// reads waiting for them wake. A transaction that committed nothing staged
// is a no-op.
func (vs *VersionStore) Landed(txID uint64) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	us, ok := vs.landing[txID]
	if !ok {
		return
	}
	for _, u := range us {
		vs.unstageLocked(u.key)
		if n := vs.writing[u.key]; n > 1 {
			vs.writing[u.key] = n - 1
		} else {
			delete(vs.writing, u.key)
		}
	}
	delete(vs.landing, txID)
	vs.nwrite.Add(-int64(len(us)))
	vs.cond.Broadcast()
}

// WaitWritten returns once no commit published at or before the clock is
// still writing key's pages: a live read's wait, for a read at the clock.
func (vs *VersionStore) WaitWritten(key VKey) {
	if vs.nwrite.Load() == 0 {
		return
	}
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if vs.writing[key] > 0 {
		vs.stats.Written++
	}
	for vs.writing[key] > 0 {
		vs.cond.Wait()
	}
}

// WaitLanded returns once every commit writing its pages when it is called
// has written them; commits published later it does not wait for.
func (vs *VersionStore) WaitLanded() {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	ids := make([]uint64, 0, len(vs.landing))
	for id := range vs.landing {
		ids = append(ids, id)
	}
	for _, id := range ids {
		for vs.landing[id] != nil {
			vs.cond.Wait()
		}
	}
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

func (vs *VersionStore) unstageLocked(key VKey) {
	vs.mu.AssertHeld()
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
// AsOf blocks while key is mid-overwrite by an update that a disk read would
// race, until its commit has written its pages (snapshot reads never block on
// locks, only on the window of a committing writer).
func (vs *VersionStore) AsOf(key VKey, t page.LSN) (img VImage, hit bool, err error) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	return vs.asOfLocked(key, t)
}

// SnapAsOf is AsOf at open snapshot id's stamp, which it returns for the
// caller's Recheck and retries: the lookup and the first resolution are one
// mu section.
func (vs *VersionStore) SnapAsOf(id uint64, key VKey) (t page.LSN, img VImage, hit bool, err error) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if t, err = vs.stampLocked(id); err != nil {
		return 0, VImage{}, false, err
	}
	img, hit, err = vs.asOfLocked(key, t)
	return t, img, hit, err
}

func (vs *VersionStore) asOfLocked(key VKey, t page.LSN) (img VImage, hit bool, err error) {
	vs.mu.AssertHeld()
	for waited := false; vs.stamp[key] <= t; waited = true {
		// Current image is old enough. A zero stamp means the segment has
		// not been updated since startup; its image predates every snapshot
		// this store can have issued.
		if vs.staged[key] == 0 {
			vs.stats.DiskReads++
			return VImage{}, false, nil
		}
		if !waited && vs.writing[key] > 0 {
			vs.stats.Written++
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

// trimLocked drops every entry superseded at or below the watermark: all of
// them once no snapshot is open. Runs as a snapshot closes.
func (vs *VersionStore) trimLocked() {
	vs.mu.AssertHeld()
	w := vs.watermarkLocked()
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
}

// dropOldestLocked drops key's n oldest entries (n <= 0: none): the chain
// lets go of their images, whoever else holds them keeps them.
func (vs *VersionStore) dropOldestLocked(key VKey, n int) {
	vs.mu.AssertHeld()
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
