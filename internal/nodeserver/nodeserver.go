// Package nodeserver implements the BeSS node server (paper §3, Figure 2):
// a BeSS server that owns no storage areas. It is a client of the real BeSS
// servers and acts as a server for the applications on its node: it
// establishes the node's cache, fetches data on behalf of local
// applications, acquires locks for them, and answers callback requests from
// the owning servers.
//
// Local applications use it two ways (paper §4.1): copy-on-access sessions
// treat it as their proto.Conn — fetches are served from the node's image
// cache when possible — and shared-memory processes attach to the node's
// shm.SharedCache and operate on cached pages in place.
package nodeserver

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bess/internal/cache"
	"bess/internal/lock"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/shm"
)

// Stats are node-server counters: upstream traffic vs locally served
// requests (E2 and E6 read them).
type Stats struct {
	UpstreamFetches int64 // segment fetches forwarded to owning servers
	LocalHits       int64 // fetches served from the node cache
	Callbacks       int64 // revocations received from upstream
	LocalCallbacks  int64 // revocations forwarded to local applications
}

// NodeServer is the node-local BeSS process. It is a proto.Conn for the
// node's applications by being one to its upstream: the embedded Conn answers
// every call the node has nothing to add to (catalog, names, Decide),
// and the methods below are the ones it changes — it registers the locals and
// calls them back itself, serves fetches from its image cache, and speaks
// upstream under its own client id.
type NodeServer struct {
	proto.Conn        // upstream
	client     uint32 // the node server's upstream client id

	// locals is the holder table of the node's applications, the same a
	// server keeps for its clients: their copies, and the X each local
	// transaction holds once its server granted it.
	locals *lock.Manager
	// revokes numbers the X the node takes in locals on its server's behalf,
	// above the ids a server hands out (host<<48 | n).
	revokes atomic.Uint64

	// mu is held across locals.Drop (which calls nothing back), so it nests
	// outside lock.Manager.mu; never across an upstream call or a lock wait.
	mu     sync.Mutex
	images map[proto.SegKey]*proto.SegImage // guarded by mu; an image is immutable once cached
	snaps  map[uint64]uint32                // guarded by mu; the local that opened each open snapshot
	// Upstream every reserved run pair is the node's. reserved records, by
	// slotted run, the local each unpublished pair was handed to, and pool
	// holds the pairs locals left unpublished when they went away, by the
	// geometry they were reserved for, for the next local that asks for it.
	reserved map[proto.SegKey]heldRuns     // guarded by mu
	pool     map[geometry][]proto.Reserved // guarded by mu

	sc *shm.SharedCache

	stats struct{ upstream, hits, callbacks atomic.Int64 }
}

// New attaches a node server to an upstream connection (typically a
// client.Remote to a BeSS server). cacheSlots/frames size the node's shared
// cache for shared-memory-mode processes.
func New(up proto.Conn, name string, cacheSlots, frames int) (*NodeServer, error) {
	id, err := up.Hello(name)
	if err != nil {
		return nil, err
	}
	ns := &NodeServer{
		Conn:     up,
		client:   id,
		locals:   lock.NewManager(),
		images:   make(map[proto.SegKey]*proto.SegImage),
		snaps:    make(map[uint64]uint32),
		reserved: make(map[proto.SegKey]heldRuns),
		pool:     make(map[geometry][]proto.Reserved),
	}
	ns.locals.DefaultTimeout = time.Second
	backing := &pageBacking{ns: ns, local: ns.locals.Register()}
	sc, err := shm.NewSharedCache(cacheSlots, frames, backing)
	if err != nil {
		return nil, err
	}
	ns.sc = sc
	// A local's X calls the shared cache's copy back: its page goes stale.
	if err := ns.locals.SetCallback(backing.local, func(n lock.Name) (bool, error) {
		sc.Invalidate(PageOf(proto.SegKey{Area: uint32(n.Q0), Start: int64(n.Q1)}))
		return false, nil
	}); err != nil {
		return nil, err
	}
	// Upstream revocations arrive here; forward to the locals.
	if err := up.SetCallback(id, ns.onUpstreamCallback); err != nil {
		return nil, err
	}
	return ns, nil
}

// Snapshot returns the node's counters.
func (ns *NodeServer) Snapshot() Stats {
	return Stats{
		UpstreamFetches: ns.stats.upstream.Load(),
		LocalHits:       ns.stats.hits.Load(),
		Callbacks:       ns.stats.callbacks.Load(),
		LocalCallbacks:  ns.locals.Snapshot().Callbacks,
	}
}

// SetLockTimeout adjusts how long a local's request — a fetch behind another
// local's X, an X behind a refused copy — waits in the node's table.
func (ns *NodeServer) SetLockTimeout(d time.Duration) { ns.locals.DefaultTimeout = d }

func segName(seg proto.SegKey) lock.Name {
	return lock.Name{Kind: lock.KindSegment, Q0: uint64(seg.Area), Q1: uint64(seg.Start)}
}

// SharedCache exposes the node's shared cache for shared-memory-mode
// processes (Figure 3).
func (ns *NodeServer) SharedCache() *shm.SharedCache { return ns.sc }

// AttachShared attaches a shared-memory-mode process.
func (ns *NodeServer) AttachShared() (*shm.Process, error) { return ns.sc.Attach() }

// onUpstreamCallback gives up the node's copy of seg. The image goes first, so
// no local fetch hits it from here on, and the shared cache's page of seg goes
// stale; then the node takes X on seg in its own table on its server's behalf,
// which calls every local copy back and queues local fills behind it, and
// lets it go. A refusing local is waited for, until its Released or the lock
// timeout: then the node refuses in turn.
func (ns *NodeServer) onUpstreamCallback(seg proto.SegKey) (refused bool, err error) {
	ns.stats.callbacks.Add(1)
	ns.mu.Lock()
	delete(ns.images, seg)
	ns.mu.Unlock()
	ns.sc.Invalidate(PageOf(seg))
	tx := lock.TxID(1<<63 | ns.revokes.Add(1))
	err = ns.locals.Acquire(tx, segName(seg), lock.X, 0)
	ns.locals.ReleaseAll(tx)
	return err != nil, nil
}

// --- the proto.Conn methods the node answers differently from its upstream ---

// Hello registers a local application. Upstream there is only one client —
// the node server itself.
func (ns *NodeServer) Hello(name string) (uint32, error) { return ns.locals.Register(), nil }

// SetCallback installs a local application's revocation handler.
func (ns *NodeServer) SetCallback(local uint32, cb func(proto.SegKey) (bool, error)) error {
	var lcb lock.Callback
	if cb != nil {
		lcb = func(n lock.Name) (bool, error) { return cb(proto.SegKey{Area: uint32(n.Q0), Start: int64(n.Q1)}) }
	}
	return ns.locals.SetCallback(local, lcb)
}

// Disconnect forgets a local application that went away: its copies no
// longer stand in the way of the node's other writers, the snapshots it left
// open close upstream, where they would pin the server's versions, and the
// run pairs it left unpublished go to the pool.
func (ns *NodeServer) Disconnect(local uint32) {
	ns.locals.Remove(local)
	var open []uint64
	ns.mu.Lock()
	for snap, owner := range ns.snaps {
		if owner == local {
			open = append(open, snap)
			delete(ns.snaps, snap)
		}
	}
	for seg, h := range ns.reserved {
		if h.local == local {
			delete(ns.reserved, seg)
			ns.pool[h.geom] = append(ns.pool[h.geom], h.run)
		}
	}
	ns.mu.Unlock()
	for _, snap := range open {
		_ = ns.Conn.SnapClose(ns.client, snap) // there is no caller to tell
	}
}

// geometry is what a ReserveSegments asks for.
type geometry struct {
	db                                uint32
	areaHint, slottedPages, dataPages int
}

// heldRuns is a run pair a local holds, and the geometry it was reserved for.
type heldRuns struct {
	local uint32
	geom  geometry
	run   proto.Reserved
}

// ReserveSegments hands local up to n run pairs from the pool, or, with none
// there, n reserved upstream under the node server's client id: the node is
// the client its server knows, and the runs it has not published go free
// when the node does. The node records local as their holder.
func (ns *NodeServer) ReserveSegments(local uint32, db uint32, areaHint, slottedPages, dataPages, n int) ([]proto.Reserved, error) {
	g := geometry{db, areaHint, slottedPages, dataPages}
	ns.mu.Lock()
	pooled := ns.pool[g]
	runs := slices.Clone(pooled[:min(max(n, 0), len(pooled))])
	ns.pool[g] = pooled[len(runs):]
	ns.mu.Unlock()
	if len(runs) == 0 {
		var err error
		if runs, err = ns.Conn.ReserveSegments(ns.client, db, areaHint, slottedPages, dataPages, n); err != nil {
			return nil, err
		}
	}
	ns.hold(local, g, runs)
	if !ns.locals.Registered(local) { // recorded after Disconnect looked
		ns.Disconnect(local)
		return nil, lock.ErrUnknownClient
	}
	return runs, nil
}

// hold records local as the holder of runs, reserved for g.
func (ns *NodeServer) hold(local uint32, g geometry, runs []proto.Reserved) {
	ns.mu.Lock()
	for _, r := range runs {
		ns.reserved[r.Seg] = heldRuns{local, g, r}
	}
	ns.mu.Unlock()
}

// notHeld refuses local a segment made of runs another local holds.
func notHeld(seg proto.SegKey) error {
	return fmt.Errorf("%w: %w: segment %d/%d", proto.ErrRefused, proto.ErrNotReserved, seg.Area, seg.Start)
}

// FetchSeg serves from the node cache when it can; otherwise one upstream
// FetchSeg under the node server's client id fills the cache entry. The
// local's copy is taken in the node's table first, behind any X there: a hit
// or a fill is a holder from the start, and a fill whose copy was called back
// while it was upstream stores nothing and goes again. The cached image is
// shared and a fetched image is the caller's to write to (proto.Conn), so a
// hit and a fill alike hand out a copy.
func (ns *NodeServer) FetchSeg(local uint32, seg proto.SegKey) ([]byte, []byte, []byte, error) {
	name := segName(seg)
	for {
		if err := ns.locals.Copy(local, name); err != nil {
			return nil, nil, nil, err
		}
		ns.mu.Lock()
		img := ns.images[seg]
		ns.mu.Unlock()
		if img != nil {
			ns.stats.hits.Add(1)
		} else {
			sl, ov, d, err := ns.Conn.FetchSeg(ns.client, seg)
			if err != nil {
				return nil, nil, nil, err
			}
			ns.stats.upstream.Add(1)
			ns.mu.Lock()
			if ns.locals.Holding(local, name) {
				img = &proto.SegImage{Seg: seg, Slotted: sl, Overflow: ov, Data: d}
				ns.images[seg] = img
			}
			ns.mu.Unlock()
		}
		if img != nil {
			return bytes.Clone(img.Slotted), bytes.Clone(img.Overflow), bytes.Clone(img.Data), nil
		}
	}
}

// SnapOpen forwards: snapshots live on the owning server, whose commit
// stamps define the version clock. Node-cached images are never served to a
// snapshot — they track the live state, not the as-of one. Upstream every
// snapshot is the node's, so the node records which local opened it, and
// closes one again whose local left while it was opening.
func (ns *NodeServer) SnapOpen(local uint32) (uint64, uint64, error) {
	snap, stamp, err := ns.Conn.SnapOpen(ns.client)
	if err != nil {
		return 0, 0, err
	}
	ns.mu.Lock()
	ns.snaps[snap] = local
	ns.mu.Unlock()
	if !ns.locals.Registered(local) { // recorded after Disconnect looked
		ns.Disconnect(local)
		return 0, 0, lock.ErrUnknownClient
	}
	return snap, stamp, nil
}

// SnapClose forwards a close of local's own snapshot. Another local's is
// refused with cache.ErrNotOwner, as a server refuses another client's, and
// an id the node has no record of is not open: closing it is a no-op.
func (ns *NodeServer) SnapClose(local uint32, snap uint64) error {
	ns.mu.Lock()
	owner, open := ns.snaps[snap]
	if open && owner == local {
		delete(ns.snaps, snap)
	}
	ns.mu.Unlock()
	switch {
	case !open:
		return nil
	case owner != local:
		return cache.ErrNotOwner
	}
	return ns.Conn.SnapClose(ns.client, snap)
}

// SnapFetchSeg forwards (as-of images bypass the node image cache).
func (ns *NodeServer) SnapFetchSeg(local uint32, snap uint64, seg proto.SegKey) ([]byte, []byte, []byte, error) {
	ns.stats.upstream.Add(1)
	return ns.Conn.SnapFetchSeg(ns.client, snap, seg)
}

// Lock acquires upstream under the node server's client id (the node server
// "acquires locks on behalf of the local applications"). An X granted there is
// taken in the node's table too, which calls the other locals' copies back
// and holds their fetches off until tx ends (Publish, Abort, Decide).
func (ns *NodeServer) Lock(local uint32, tx uint64, seg proto.SegKey, mode proto.LockMode) error {
	if err := ns.Conn.Lock(ns.client, tx, seg, mode); err != nil || mode != proto.LockX {
		return err
	}
	ns.locals.Bind(lock.TxID(tx), local)
	return ns.locals.Acquire(lock.TxID(tx), segName(seg), lock.X, 0)
}

// LockObject forwards under the node server's client id, once the segment's
// intention lock is taken in the node's table, where a read behind an X its
// local refused is a deadlock found at once. Object locks are logical.
func (ns *NodeServer) LockObject(local uint32, tx uint64, seg proto.SegKey, slot int, mode proto.LockMode) error {
	intent := lock.IS
	if mode == proto.LockX || mode == proto.LockIX || mode == proto.LockSIX {
		intent = lock.IX
	}
	ns.locals.Bind(lock.TxID(tx), local)
	if err := ns.locals.Acquire(lock.TxID(tx), segName(seg), intent, 0); err != nil {
		return err
	}
	return ns.Conn.LockObject(ns.client, tx, seg, slot, mode)
}

// Publish forwards a commit or a prepare under the node server's client id:
// the node is the holder its server records for the segments it publishes,
// and the one it calls back. A created segment, or a lone run a shipped
// section moved to, must be made of runs local holds. Once published, local is recorded as holding a copy of each — the
// image it built of the runs — and the node's images of the shipped segments
// go, so the next local fetch goes upstream. What was shipped is no
// substitute: the slices are the committing session's own, which it keeps
// writing to, and the header is the one from before the server settled
// geometry and checksums. A prepared branch is undecided: the node keeps no
// image of it either way.
func (ns *NodeServer) Publish(local uint32, tx uint64, created []proto.Created, segs []proto.SegImage, prepare bool) error {
	held := make([]heldRuns, len(created))
	ns.mu.Lock()
	for i, c := range created {
		h, ok := ns.reserved[c.Seg]
		if !ok || h.local != local {
			ns.mu.Unlock()
			return notHeld(c.Seg)
		}
		held[i] = h
	}
	for _, c := range created { // in flight: no Disconnect pools them
		delete(ns.reserved, c.Seg)
	}
	ns.mu.Unlock()
	err := ns.Conn.Publish(ns.client, tx, created, segs, prepare)
	if proto.Refused(err) { // still reserved upstream: local's again
		for _, h := range held {
			ns.hold(local, h.geom, []proto.Reserved{h.run})
		}
		if !ns.locals.Registered(local) {
			ns.Disconnect(local)
		}
		return err
	}
	if err == nil {
		ns.mu.Lock()
		for _, si := range segs {
			delete(ns.images, si.Seg)
		}
		ns.mu.Unlock()
		for _, c := range created {
			if c.SlottedPages > 0 { // a lone run is no segment to hold
				_ = ns.locals.Copy(local, segName(c.Seg)) // nobody else knows it: granted at once
			}
		}
	}
	if !prepare || err != nil { // tx has ended upstream, or never will
		ns.locals.ReleaseAll(lock.TxID(tx))
	}
	return err
}

// Abort forwards, and ends tx in the node's table.
func (ns *NodeServer) Abort(local uint32, tx uint64) error {
	err := ns.Conn.Abort(ns.client, tx)
	ns.locals.ReleaseAll(lock.TxID(tx))
	return err
}

// Decide forwards a 2PC decision, and ends the prepared tx in the node's
// table once it is delivered.
func (ns *NodeServer) Decide(tx uint64, commit bool) error {
	err := ns.Conn.Decide(tx, commit)
	if err == nil {
		ns.locals.ReleaseAll(lock.TxID(tx))
	}
	return err
}

// Released drops local's copies; upstream hears, in one call, of the segments
// no local caches any more, and the node's images of those go with them.
func (ns *NodeServer) Released(local uint32, segs []proto.SegKey) error {
	var gone []proto.SegKey
	ns.mu.Lock()
	for _, seg := range segs {
		if ns.locals.Drop(local, segName(seg)) {
			delete(ns.images, seg)
			gone = append(gone, seg)
		}
	}
	ns.mu.Unlock()
	if len(gone) == 0 {
		return nil
	}
	return ns.Conn.Released(ns.client, gone)
}

var _ proto.Conn = (*NodeServer)(nil)

// pageBacking serves the shared cache's pages as segments' data pages: a
// page.ID names a segment (Area, and Page its slotted run's start), and the
// page is the first page of its data section. The backing is one of the
// node's locals: it fetches through the node's image cache, as a session
// does, and its callback gives its copy up at once and makes the page stale
// in the shared cache (the shared cache keeps no transaction's copy).
type pageBacking struct {
	ns    *NodeServer
	local uint32
}

// PageOf is the shared-cache page of segment seg: the first page of its data
// section.
func PageOf(seg proto.SegKey) page.ID {
	return page.ID{Area: page.AreaID(seg.Area), Page: page.No(seg.Start)}
}

func pageSeg(id page.ID) proto.SegKey {
	return proto.SegKey{Area: uint32(id.Area), Start: int64(id.Page)}
}

func (b *pageBacking) Fetch(id page.ID) ([]byte, error) {
	_, _, data, err := b.ns.FetchSeg(b.local, pageSeg(id))
	return data[:min(len(data), page.Size)], err
}

// WriteBack writes the page back as a transaction of its own, which takes X
// on the segment and ships its image: the committed one, with the bytes at
// which data differs from fill — the processes' changes — written over it.
// The page is durable when WriteBack returns it.
func (b *pageBacking) WriteBack(id page.ID, fill, data []byte) ([]byte, error) {
	ns, img := b.ns, proto.SegImage{Seg: pageSeg(id)}
	tx, err := ns.NewTx()
	if err != nil {
		return nil, err
	}
	if err = ns.Lock(b.local, tx, img.Seg, proto.LockX); err == nil {
		img.Slotted, img.Overflow, img.Data, err = ns.FetchSeg(b.local, img.Seg)
	}
	if err == nil {
		pg := img.Data[:min(len(img.Data), page.Size)]
		for i := range pg {
			if data[i] != fill[i] {
				pg[i] = data[i]
			}
		}
		if err = ns.Publish(b.local, tx, nil, []proto.SegImage{img}, false); err == nil {
			return pg, nil
		}
	}
	return nil, errors.Join(err, ns.Abort(b.local, tx))
}
