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
	"bess/internal/callback"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/shm"
)

// ErrRevocation is returned when a local copy revocation times out.
var ErrRevocation = errors.New("nodeserver: local copy revocation timed out")

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
// every call the node has nothing to add to (catalog, names, run reads, Decide),
// and the methods below are the ones it changes — it registers the locals and
// calls them back itself, serves fetches from its image cache, and speaks
// upstream under its own client id.
type NodeServer struct {
	proto.Conn        // upstream
	client     uint32 // the node server's upstream client id

	// locals is callback locking among the node's applications: the same
	// table a server keeps for its clients.
	locals *callback.Table

	// mu is held across locals.Record and locals.Drop (neither calls back), so
	// it nests outside Table.mu; never across an upstream call or a Revoke.
	mu     sync.Mutex
	images map[proto.SegKey]*proto.SegImage // guarded by mu; an image is immutable once cached
	snaps  map[uint64]uint32                // guarded by mu; the local that opened each open snapshot
	// Upstream every reserved run pair is the node's. reserved records, by
	// slotted run, the local each unpublished pair was handed to, and pool
	// holds the pairs locals left unpublished when they went away, by the
	// geometry they were reserved for, for the next local that asks for it.
	reserved map[proto.SegKey]heldRuns     // guarded by mu
	pool     map[geometry][]proto.Reserved // guarded by mu

	defaultDB atomic.Uint32 // the database the shared cache's pages belong to

	sc *shm.SharedCache

	stats struct{ upstream, hits, callbacks atomic.Int64 }

	// RevokeTimeout bounds local revocation loops.
	RevokeTimeout time.Duration
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
		Conn:          up,
		client:        id,
		locals:        callback.New(ErrRevocation, nil),
		images:        make(map[proto.SegKey]*proto.SegImage),
		snaps:         make(map[uint64]uint32),
		reserved:      make(map[proto.SegKey]heldRuns),
		pool:          make(map[geometry][]proto.Reserved),
		RevokeTimeout: time.Second,
	}
	sc, err := shm.NewSharedCache(cacheSlots, frames, &pageBacking{ns: ns})
	if err != nil {
		return nil, err
	}
	ns.sc = sc
	// Upstream revocations arrive here; forward to the locals.
	if err := up.SetCallback(id, ns.onUpstreamCallback); err != nil {
		return nil, err
	}
	return ns, nil
}

// Snapshot returns the node's counters.
func (ns *NodeServer) Snapshot() Stats {
	local, _ := ns.locals.Counts()
	return Stats{
		UpstreamFetches: ns.stats.upstream.Load(),
		LocalHits:       ns.stats.hits.Load(),
		Callbacks:       ns.stats.callbacks.Load(),
		LocalCallbacks:  local,
	}
}

// SharedCache exposes the node's shared cache for shared-memory-mode
// processes (Figure 3).
func (ns *NodeServer) SharedCache() *shm.SharedCache { return ns.sc }

// AttachShared attaches a shared-memory-mode process.
func (ns *NodeServer) AttachShared() (*shm.Process, error) { return ns.sc.Attach() }

// onUpstreamCallback revokes the node's copy of seg. The image goes first, so
// that from here on a local fetch goes upstream instead of becoming a new
// holder of the image the node is about to say it gave up; then every local
// copy must drop.
func (ns *NodeServer) onUpstreamCallback(seg proto.SegKey) (refused bool, err error) {
	ns.stats.callbacks.Add(1)
	ns.mu.Lock()
	delete(ns.images, seg)
	ns.mu.Unlock()
	return ns.locals.Revoke(seg, 0, ns.RevokeTimeout) != nil, nil
}

// --- the proto.Conn methods the node answers differently from its upstream ---

// Hello registers a local application. Upstream there is only one client —
// the node server itself.
func (ns *NodeServer) Hello(name string) (uint32, error) { return ns.locals.Register(), nil }

// SetCallback installs a local application's revocation handler.
func (ns *NodeServer) SetCallback(local uint32, cb func(proto.SegKey) (bool, error)) error {
	return ns.locals.SetCallback(local, cb)
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

// OpenDB delegates upstream, remembering the database the shared cache's
// pages belong to.
func (ns *NodeServer) OpenDB(name string, create bool) (uint32, uint16, error) {
	db, host, err := ns.Conn.OpenDB(name, create)
	if err == nil {
		ns.defaultDB.Store(db)
	}
	return db, host, err
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
		return nil, callback.ErrUnknownClient
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
// cached image is shared by the node's local sessions and a fetched image is
// the caller's to write to (proto.Conn), so a hit and a fill alike hand out a
// copy. Finding (or storing) the image and recording its new holder are one
// step under mu, as dropping the last holder and the image are in Released: a
// local never holds a copy of an image the node has already released upstream.
func (ns *NodeServer) FetchSeg(local uint32, seg proto.SegKey) ([]byte, []byte, []byte, error) {
	ns.mu.Lock()
	img := ns.images[seg]
	if img != nil {
		ns.locals.Record(seg, local)
	}
	ns.mu.Unlock()
	if img != nil {
		ns.stats.hits.Add(1)
	} else {
		sl, ov, d, err := ns.Conn.FetchSeg(ns.client, seg)
		if err != nil {
			return nil, nil, nil, err
		}
		ns.stats.upstream.Add(1)
		img = &proto.SegImage{Seg: seg, Slotted: sl, Overflow: ov, Data: d}
		ns.mu.Lock()
		ns.images[seg] = img
		ns.locals.Record(seg, local)
		ns.mu.Unlock()
	}
	return bytes.Clone(img.Slotted), bytes.Clone(img.Overflow), bytes.Clone(img.Data), nil
}

// FetchLarge delegates upstream (large objects are not image-cached).
func (ns *NodeServer) FetchLarge(local uint32, seg proto.SegKey, slot int) ([]byte, error) {
	ns.stats.upstream.Add(1)
	return ns.Conn.FetchLarge(ns.client, seg, slot)
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
		return 0, 0, callback.ErrUnknownClient
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
// "acquires locks on behalf of the local applications").
func (ns *NodeServer) Lock(local uint32, tx uint64, seg proto.SegKey, mode proto.LockMode) error {
	if err := ns.Conn.Lock(ns.client, tx, seg, mode); err != nil {
		return err
	}
	// Intra-node consistency: an exclusive intent revokes the other local
	// applications' copies before the write proceeds.
	if mode == proto.LockX || mode == proto.LockSIX || mode == proto.LockIX {
		return ns.locals.Revoke(seg, local, ns.RevokeTimeout)
	}
	return nil
}

// LockObject forwards under the node server's client id. Object locks are
// logical; cache revocation stays tied to segment X locks.
func (ns *NodeServer) LockObject(local uint32, tx uint64, seg proto.SegKey, slot int, mode proto.LockMode) error {
	return ns.Conn.LockObject(ns.client, tx, seg, slot, mode)
}

// Publish forwards a commit or a prepare under the node server's client id:
// the node is the holder its server records for the segments it publishes,
// and the one it calls back. A created segment must be made of runs local
// holds. Once published, local is recorded as holding a copy of each — the
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
		for _, c := range created {
			ns.locals.Record(c.Seg, local)
		}
		ns.mu.Unlock()
	}
	return err
}

// Abort forwards.
func (ns *NodeServer) Abort(local uint32, tx uint64) error {
	return ns.Conn.Abort(ns.client, tx)
}

// Released drops local's copies; upstream hears, in one call, of the segments
// no local caches any more, and the node's images of those go with them.
func (ns *NodeServer) Released(local uint32, segs []proto.SegKey) error {
	var gone []proto.SegKey
	ns.mu.Lock()
	for _, seg := range segs {
		if ns.locals.Drop(seg, local) {
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

// StoreLarge forwards, unless seg is made of runs another local holds: to
// the server they are the node's, which needs no X to store into them. The
// image stays: the segment changes only when the transaction ships it at
// commit.
func (ns *NodeServer) StoreLarge(local uint32, tx uint64, seg proto.SegKey, content []byte) ([]byte, error) {
	ns.mu.Lock()
	h, ok := ns.reserved[seg]
	ns.mu.Unlock()
	if ok && h.local != local {
		return nil, notHeld(seg)
	}
	return ns.Conn.StoreLarge(ns.client, tx, seg, content)
}

// WriteRun forwards under the node server's client id.
func (ns *NodeServer) WriteRun(local uint32, tx uint64, db, area uint32, start int64, data []byte) error {
	return ns.Conn.WriteRun(ns.client, tx, db, area, start, data)
}

var _ proto.Conn = (*NodeServer)(nil)

// pageBacking adapts the upstream raw-run interface to the shared cache's
// page fetch/write-back.
type pageBacking struct{ ns *NodeServer }

func (b *pageBacking) Fetch(id page.ID) ([]byte, error) {
	return b.ns.ReadRun(b.ns.defaultDB.Load(), uint32(id.Area), int64(id.Page), 1)
}

// WriteBack writes the page back as a transaction of its own, so it is
// durable when WriteBack returns.
func (b *pageBacking) WriteBack(id page.ID, data []byte) error {
	ns := b.ns
	tx, err := ns.Conn.NewTx()
	if err == nil {
		err = ns.Conn.WriteRun(ns.client, tx, ns.defaultDB.Load(), uint32(id.Area), int64(id.Page), data)
	}
	if err == nil {
		return ns.Conn.Publish(ns.client, tx, nil, nil, false)
	}
	return errors.Join(err, ns.Conn.Abort(ns.client, tx))
}
