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
	"sync"
	"time"

	"bess/internal/oid"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/shm"
)

// Errors returned by the node server.
var (
	ErrRevocation = errors.New("nodeserver: local copy revocation timed out")
)

// Stats are node-server counters: upstream traffic vs locally served
// requests (E2 and E6 read them).
type Stats struct {
	UpstreamFetches int64 // segment fetches forwarded to owning servers
	LocalHits       int64 // fetches served from the node cache
	Callbacks       int64 // revocations received from upstream
	LocalCallbacks  int64 // revocations forwarded to local applications
}

// cachedSeg is the node's cached image of one object segment.
type cachedSeg struct {
	slotted  []byte
	overflow []byte
	data     []byte // nil until fetched
}

// NodeServer is the node-local BeSS process.
type NodeServer struct {
	up     proto.Conn
	client uint32 // the node server's upstream client id

	mu        sync.Mutex
	locals    map[uint32]func(proto.SegKey) (bool, error)
	nextLocal uint32
	copies    map[proto.SegKey]map[uint32]bool
	images    map[proto.SegKey]*cachedSeg
	defaultDB uint32

	sc *shm.SharedCache

	stats struct {
		upstream, hits, callbacks, localCallbacks int64
	}

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
		up:            up,
		client:        id,
		locals:        make(map[uint32]func(proto.SegKey) (bool, error)),
		copies:        make(map[proto.SegKey]map[uint32]bool),
		images:        make(map[proto.SegKey]*cachedSeg),
		RevokeTimeout: time.Second,
	}
	sc, err := shm.NewSharedCache(cacheSlots, frames, &pageBacking{ns: ns})
	if err != nil {
		return nil, err
	}
	ns.sc = sc
	// Upstream revocations arrive here; forward to the locals.
	type callbackSetter interface {
		SetCallback(uint32, func(proto.SegKey) (bool, error)) error
	}
	switch c := up.(type) {
	case interface {
		SetCallback(func(proto.SegKey) bool)
	}:
		c.SetCallback(func(k proto.SegKey) bool { return ns.onUpstreamCallback(k) })
	case callbackSetter:
		if err := c.SetCallback(id, func(k proto.SegKey) (bool, error) {
			return ns.onUpstreamCallback(k), nil
		}); err != nil {
			return nil, err
		}
	}
	return ns, nil
}

// Snapshot returns the node's counters.
func (ns *NodeServer) Snapshot() Stats {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return Stats{
		UpstreamFetches: ns.stats.upstream,
		LocalHits:       ns.stats.hits,
		Callbacks:       ns.stats.callbacks,
		LocalCallbacks:  ns.stats.localCallbacks,
	}
}

// SharedCache exposes the node's shared cache for shared-memory-mode
// processes (Figure 3).
func (ns *NodeServer) SharedCache() *shm.SharedCache { return ns.sc }

// AttachShared attaches a shared-memory-mode process.
func (ns *NodeServer) AttachShared() (*shm.Process, error) { return ns.sc.Attach() }

// onUpstreamCallback revokes the node's copy of seg: every local copy must
// drop first, then the image cache and shared cache entries go.
func (ns *NodeServer) onUpstreamCallback(seg proto.SegKey) (refused bool) {
	ns.mu.Lock()
	ns.stats.callbacks++
	ns.mu.Unlock()
	if ns.revokeLocals(seg, 0) != nil {
		return true
	}
	ns.dropImage(seg)
	return false
}

// revokeLocals asks every local holder except `except` to drop seg.
func (ns *NodeServer) revokeLocals(seg proto.SegKey, except uint32) error {
	deadline := time.Now().Add(ns.RevokeTimeout)
	for {
		ns.mu.Lock()
		var cbs []func(proto.SegKey) (bool, error)
		var ids []uint32
		for lid := range ns.copies[seg] {
			if lid == except {
				continue
			}
			if cb := ns.locals[lid]; cb != nil {
				cbs = append(cbs, cb)
				ids = append(ids, lid)
			}
		}
		ns.mu.Unlock()
		if len(cbs) == 0 {
			return nil
		}
		anyRefused := false
		for i, cb := range cbs {
			ns.mu.Lock()
			ns.stats.localCallbacks++
			ns.mu.Unlock()
			refused, err := cb(seg)
			if err != nil || refused {
				anyRefused = true
				continue
			}
			ns.mu.Lock()
			if set := ns.copies[seg]; set != nil {
				delete(set, ids[i])
				if len(set) == 0 {
					delete(ns.copies, seg)
				}
			}
			ns.mu.Unlock()
		}
		if !anyRefused {
			return nil
		}
		if time.Now().After(deadline) {
			return ErrRevocation
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (ns *NodeServer) dropImage(seg proto.SegKey) {
	ns.mu.Lock()
	delete(ns.images, seg)
	ns.mu.Unlock()
}

// --- proto.Conn for local applications ---

// Hello registers a local application. Upstream there is only one client —
// the node server itself.
func (ns *NodeServer) Hello(name string) (uint32, error) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.nextLocal++
	id := ns.nextLocal
	ns.locals[id] = nil
	return id, nil
}

// SetCallback installs a local application's revocation handler.
func (ns *NodeServer) SetCallback(local uint32, cb func(proto.SegKey) (bool, error)) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if _, ok := ns.locals[local]; !ok {
		return errors.New("nodeserver: unknown local client")
	}
	ns.locals[local] = cb
	return nil
}

// OpenDB delegates upstream.
func (ns *NodeServer) OpenDB(name string, create bool) (uint32, uint16, error) {
	db, host, err := ns.up.OpenDB(name, create)
	if err == nil {
		ns.mu.Lock()
		ns.defaultDB = db
		ns.mu.Unlock()
	}
	return db, host, err
}

// NewTx delegates upstream.
func (ns *NodeServer) NewTx() (uint64, error) { return ns.up.NewTx() }

// RegisterType delegates upstream.
func (ns *NodeServer) RegisterType(db uint32, t proto.TypeInfo) (proto.TypeInfo, error) {
	return ns.up.RegisterType(db, t)
}

// Types delegates upstream.
func (ns *NodeServer) Types(db uint32) ([]proto.TypeInfo, error) { return ns.up.Types(db) }

// AddArea delegates upstream.
func (ns *NodeServer) AddArea(db uint32) (uint32, error) { return ns.up.AddArea(db) }

// NewFileID delegates upstream.
func (ns *NodeServer) NewFileID(db uint32) (uint32, error) { return ns.up.NewFileID(db) }

// CreateSegment delegates upstream.
func (ns *NodeServer) CreateSegment(db, fileID uint32, slottedPages, dataPages, areaHint int) (proto.SegKey, error) {
	return ns.up.CreateSegment(db, fileID, slottedPages, dataPages, areaHint)
}

// SegInfo delegates upstream.
func (ns *NodeServer) SegInfo(seg proto.SegKey) (int, error) { return ns.up.SegInfo(seg) }

// The node's cached images are shared by its local sessions, and a fetched
// image is the caller's to write to (proto.Conn): every fetch below hands out
// a copy of the cached bytes, on a hit and on the fill alike.

// FetchSlotted serves from the node cache when possible; otherwise it
// fetches upstream under the node server's client id and caches the image.
func (ns *NodeServer) FetchSlotted(local uint32, seg proto.SegKey) ([]byte, []byte, error) {
	ns.mu.Lock()
	img := ns.images[seg]
	if img != nil {
		ns.stats.hits++
		ns.recordCopyLocked(seg, local)
		sl, ov := img.slotted, img.overflow
		ns.mu.Unlock()
		return bytes.Clone(sl), bytes.Clone(ov), nil
	}
	ns.mu.Unlock()
	sl, ov, err := ns.up.FetchSlotted(ns.client, seg)
	if err != nil {
		return nil, nil, err
	}
	ns.mu.Lock()
	ns.stats.upstream++
	ns.images[seg] = &cachedSeg{slotted: sl, overflow: ov}
	ns.recordCopyLocked(seg, local)
	ns.mu.Unlock()
	return bytes.Clone(sl), bytes.Clone(ov), nil
}

func (ns *NodeServer) recordCopyLocked(seg proto.SegKey, local uint32) {
	set := ns.copies[seg]
	if set == nil {
		set = make(map[uint32]bool)
		ns.copies[seg] = set
	}
	set[local] = true
}

// FetchData serves from the node cache when possible.
func (ns *NodeServer) FetchData(local uint32, seg proto.SegKey) ([]byte, error) {
	ns.mu.Lock()
	if img := ns.images[seg]; img != nil && img.data != nil {
		ns.stats.hits++
		d := img.data
		ns.mu.Unlock()
		return bytes.Clone(d), nil
	}
	ns.mu.Unlock()
	d, err := ns.up.FetchData(ns.client, seg)
	if err != nil {
		return nil, err
	}
	ns.mu.Lock()
	ns.stats.upstream++
	if img := ns.images[seg]; img != nil {
		img.data = d
		d = bytes.Clone(d)
	}
	ns.mu.Unlock()
	return d, nil
}

// FetchSeg serves the combined fetch from the node cache when all three
// images are present; otherwise one upstream FetchSeg fills the whole cache
// entry (a cold touch through the node costs one upstream round trip).
func (ns *NodeServer) FetchSeg(local uint32, seg proto.SegKey) ([]byte, []byte, []byte, error) {
	ns.mu.Lock()
	if img := ns.images[seg]; img != nil && img.data != nil {
		ns.stats.hits++
		ns.recordCopyLocked(seg, local)
		sl, ov, d := img.slotted, img.overflow, img.data
		ns.mu.Unlock()
		return bytes.Clone(sl), bytes.Clone(ov), bytes.Clone(d), nil
	}
	ns.mu.Unlock()
	sl, ov, d, err := ns.up.FetchSeg(ns.client, seg)
	if err != nil {
		return nil, nil, nil, err
	}
	ns.mu.Lock()
	ns.stats.upstream++
	ns.images[seg] = &cachedSeg{slotted: sl, overflow: ov, data: d}
	ns.recordCopyLocked(seg, local)
	ns.mu.Unlock()
	return bytes.Clone(sl), bytes.Clone(ov), bytes.Clone(d), nil
}

// SnapOpen forwards: snapshots live on the owning server, whose commit
// stamps define the version clock. Node-cached images are never served to a
// snapshot — they track the live state, not the as-of one.
func (ns *NodeServer) SnapOpen(local uint32) (uint64, uint64, error) {
	ns.mu.Lock()
	ns.stats.upstream++
	ns.mu.Unlock()
	return ns.up.SnapOpen(ns.client)
}

// SnapClose forwards.
func (ns *NodeServer) SnapClose(local uint32, snap uint64) error {
	ns.mu.Lock()
	ns.stats.upstream++
	ns.mu.Unlock()
	return ns.up.SnapClose(ns.client, snap)
}

// SnapFetchSeg forwards (as-of images bypass the node image cache).
func (ns *NodeServer) SnapFetchSeg(local uint32, snap uint64, seg proto.SegKey) ([]byte, []byte, []byte, error) {
	ns.mu.Lock()
	ns.stats.upstream++
	ns.mu.Unlock()
	return ns.up.SnapFetchSeg(ns.client, snap, seg)
}

// FetchLarge delegates upstream (large objects are not image-cached).
func (ns *NodeServer) FetchLarge(local uint32, seg proto.SegKey, slot int) ([]byte, error) {
	ns.mu.Lock()
	ns.stats.upstream++
	ns.mu.Unlock()
	return ns.up.FetchLarge(ns.client, seg, slot)
}

// Resolve delegates upstream.
func (ns *NodeServer) Resolve(db uint32, headerOff uint64) (proto.SegKey, int, error) {
	return ns.up.Resolve(db, headerOff)
}

// Lock acquires upstream under the node server's client id (the node server
// "acquires locks on behalf of the local applications").
func (ns *NodeServer) Lock(local uint32, tx uint64, seg proto.SegKey, mode proto.LockMode) error {
	if err := ns.up.Lock(ns.client, tx, seg, mode); err != nil {
		return err
	}
	// Intra-node consistency: an exclusive intent revokes the other local
	// applications' copies before the write proceeds.
	if mode == proto.LockX || mode == proto.LockSIX || mode == proto.LockIX {
		if err := ns.revokeLocals(seg, local); err != nil {
			return err
		}
	}
	return nil
}

// LockObject forwards under the node server's client id. Object locks are
// logical; cache revocation stays tied to segment X locks.
func (ns *NodeServer) LockObject(local uint32, tx uint64, seg proto.SegKey, slot int, mode proto.LockMode) error {
	return ns.up.LockObject(ns.client, tx, seg, slot, mode)
}

// Commit invalidates the node's images of the shipped segments (their disk
// state changes) and forwards.
func (ns *NodeServer) Commit(local uint32, tx uint64, segs []proto.SegImage) error {
	if err := ns.up.Commit(ns.client, tx, segs); err != nil {
		return err
	}
	// Refresh image cache with the committed state so other locals see it.
	ns.mu.Lock()
	for _, si := range segs {
		ns.images[si.Seg] = &cachedSeg{slotted: si.Slotted, overflow: si.Overflow, data: si.Data}
	}
	ns.mu.Unlock()
	return nil
}

// Abort forwards.
func (ns *NodeServer) Abort(local uint32, tx uint64) error {
	return ns.up.Abort(ns.client, tx)
}

// Prepare forwards the 2PC vote.
func (ns *NodeServer) Prepare(local uint32, tx uint64, segs []proto.SegImage) error {
	err := ns.up.Prepare(ns.client, tx, segs)
	if err == nil {
		ns.mu.Lock()
		for _, si := range segs {
			ns.images[si.Seg] = &cachedSeg{slotted: si.Slotted, overflow: si.Overflow, data: si.Data}
		}
		ns.mu.Unlock()
	}
	return err
}

// Decide forwards the 2PC decision.
func (ns *NodeServer) Decide(tx uint64, commit bool) error { return ns.up.Decide(tx, commit) }

// SegmentsOf delegates upstream.
func (ns *NodeServer) SegmentsOf(db, fileID uint32) ([]proto.SegKey, error) {
	return ns.up.SegmentsOf(db, fileID)
}

// Released drops a local copy; the upstream copy is released only when no
// local still caches the segment.
func (ns *NodeServer) Released(local uint32, seg proto.SegKey) error {
	ns.mu.Lock()
	if set := ns.copies[seg]; set != nil {
		delete(set, local)
		if len(set) > 0 {
			ns.mu.Unlock()
			return nil
		}
		delete(ns.copies, seg)
	}
	delete(ns.images, seg)
	ns.mu.Unlock()
	return ns.up.Released(ns.client, seg)
}

// CreateLarge forwards and invalidates the image.
func (ns *NodeServer) CreateLarge(local uint32, tx uint64, seg proto.SegKey, typ uint32, content []byte) (int, error) {
	slot, err := ns.up.CreateLarge(ns.client, tx, seg, typ, content)
	if err == nil {
		ns.dropImage(seg)
	}
	return slot, err
}

// AllocRun forwards.
func (ns *NodeServer) AllocRun(db uint32, nPages int) (uint32, int64, int, error) {
	return ns.up.AllocRun(db, nPages)
}

// FreeRun forwards.
func (ns *NodeServer) FreeRun(db, area uint32, start int64) error {
	return ns.up.FreeRun(db, area, start)
}

// ReadRun forwards.
func (ns *NodeServer) ReadRun(db, area uint32, start int64, nPages int) ([]byte, error) {
	return ns.up.ReadRun(db, area, start, nPages)
}

// WriteRun forwards.
func (ns *NodeServer) WriteRun(db, area uint32, start int64, data []byte) error {
	return ns.up.WriteRun(db, area, start, data)
}

// NameBind forwards.
func (ns *NodeServer) NameBind(db uint32, name string, o oid.OID) error {
	return ns.up.NameBind(db, name, o)
}

// NameLookup forwards.
func (ns *NodeServer) NameLookup(db uint32, name string) (oid.OID, error) {
	return ns.up.NameLookup(db, name)
}

// NameUnbind forwards.
func (ns *NodeServer) NameUnbind(db uint32, name string) error {
	return ns.up.NameUnbind(db, name)
}

// NameRemoveOID forwards.
func (ns *NodeServer) NameRemoveOID(db uint32, o oid.OID) error {
	return ns.up.NameRemoveOID(db, o)
}

var _ proto.Conn = (*NodeServer)(nil)

// pageBacking adapts the upstream raw-run interface to the shared cache's
// page fetch/write-back.
type pageBacking struct{ ns *NodeServer }

func (b *pageBacking) Fetch(id page.ID) ([]byte, error) {
	b.ns.mu.Lock()
	db := b.ns.defaultDB
	b.ns.mu.Unlock()
	return b.ns.up.ReadRun(db, uint32(id.Area), int64(id.Page), 1)
}

func (b *pageBacking) WriteBack(id page.ID, data []byte) error {
	b.ns.mu.Lock()
	db := b.ns.defaultDB
	b.ns.mu.Unlock()
	return b.ns.up.WriteRun(db, uint32(id.Area), int64(id.Page), data)
}
