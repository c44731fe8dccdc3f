package client

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"bess/internal/detect"
	"bess/internal/hooks"
	"bess/internal/largeobj"
	"bess/internal/lockcheck"
	"bess/internal/oid"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/segment"
	"bess/internal/swizzle"
	"bess/internal/vmem"
)

// Errors returned by sessions.
var (
	ErrNoTx      = errors.New("client: no active transaction")
	ErrTxActive  = errors.New("client: transaction already active")
	ErrStaleRoot = errors.New("client: root object OID is stale")
	ErrTooLarge  = errors.New("client: object exceeds transparent large-object limit")
)

// Stats are per-session counters: the quantities E2/E6 report.
type Stats struct {
	Snapshots   int64 // snapshot transactions opened (E16)
	LocalGrants int64 // segment accesses served from the inter-tx cache
	SegsShipped int64 // segment images shipped at commits
	Drops       int64 // cached copies given up to callbacks, refused ones when their transaction ends
	Refusals    int64 // callbacks refused (copy in use)
}

// Session is one application's copy-on-access connection to a database:
// a private address space and buffer pool, segments cached across
// transactions, callback-maintained consistency, and commit shipping.
type Session struct {
	mu     lockcheck.Mutex
	conn   proto.Conn
	remote *Remote // non-nil when conn is RPC-backed
	client uint32
	db     uint32
	host   uint16
	types  *segment.Registry
	space  *vmem.Space
	mapper *swizzle.Mapper
	fetch  *fetcher
	det    *detect.Detector

	txID    uint64                // guarded by mu
	inTx    bool                  // guarded by mu
	xLocked map[proto.SegKey]bool // guarded by mu
	touched map[proto.SegKey]bool // guarded by mu
	// onEnd holds what runs when the transaction ends (runStore.OnEnd).
	onEnd []func(committed bool) // guarded by mu
	// runFile is the file the segments a run store allocates belong to, 0
	// until the first (runStore.Alloc).
	runFile uint32 // guarded by mu

	// The segments the session creates (CreateSegment) are made of run pairs
	// the server reserved to it: spare holds, by the geometry asked for, the
	// pairs not used yet; created holds, in creation order, the segments no
	// commit has published yet, and unpublished their keys. Nobody else can
	// find, lock or fetch those: they are X-held here, and the session is the
	// only holder of a copy.
	spare       map[geometry]*spares  // guarded by mu
	created     []createdSeg          // guarded by mu
	unpublished map[proto.SegKey]bool // guarded by mu

	// Snapshot mode (snapshot.go): while snapMode is set the session is a
	// read-only transaction pinned to snapStamp. snapFetched tracks as-of
	// images cached by the fetcher and snapDrops the copies revoked during
	// the snapshot; both are dropped at EndSnapshot.
	snapMode    bool                   // guarded by mu
	snapID      uint64                 // guarded by mu
	snapStamp   uint64                 // guarded by mu
	snapFetched map[swizzle.SegID]bool // guarded by mu
	snapDrops   map[proto.SegKey]bool  // guarded by mu
	// pendingDrops holds callback revocations accepted between
	// transactions; the application thread applies them at the next Begin
	// (the mapper is single-threaded by design, so the RPC goroutine never
	// touches it). refused holds the copies the current transaction refused
	// to give up: they are dropped, and named in one Released, when it ends.
	pendingDrops map[proto.SegKey]bool // guarded by mu
	refused      map[proto.SegKey]bool // guarded by mu

	// Streaming scan (prefetch.go). Not touched by the RPC goroutine.
	scanWindow int // credit window in image bytes: defaultScanWindow
	scanBatch  int // batch granularity asked of the server; 0 takes its default
	scanHook   func(images, bytes int)
	lastScan   *scanStream // most recent stream, kept for leak checks in tests

	stats Stats // guarded by mu
}

// Open connects a session to database dbName through conn (a direct
// server handle, a node server, or a Remote). create makes the database if
// absent.
func Open(conn proto.Conn, name, dbName string, create bool) (*Session, error) {
	s := &Session{
		conn:         conn,
		types:        segment.NewRegistry(),
		space:        vmem.New(),
		xLocked:      make(map[proto.SegKey]bool),
		touched:      make(map[proto.SegKey]bool),
		pendingDrops: make(map[proto.SegKey]bool),
		refused:      make(map[proto.SegKey]bool),
		spare:        make(map[geometry]*spares),
		unpublished:  make(map[proto.SegKey]bool),
		scanWindow:   defaultScanWindow,
	}
	s.mu.Init("Session.mu", rankSessionMu)
	id, err := conn.Hello(name)
	if err != nil {
		return nil, err
	}
	s.client = id
	s.db, s.host, err = conn.OpenDB(dbName, create)
	if err != nil {
		return nil, err
	}
	// Load the database's registered types.
	infos, err := conn.Types(s.db)
	if err != nil {
		return nil, err
	}
	for _, ti := range infos {
		if _, err := s.types.Register(ti.ToDesc()); err != nil {
			return nil, err
		}
	}
	s.fetch = &fetcher{s: s, fresh: make(map[swizzle.SegID]freshSeg)}
	s.mapper = swizzle.NewMapper(s.space, s.fetch, s.types)
	s.det = detect.New(s.mapper)
	s.det.SetAccessFunc(s.onAccess)
	s.remote, _ = conn.(*Remote)
	err = conn.SetCallback(id, func(k proto.SegKey) (bool, error) { return s.onCallback(k), nil })
	if err != nil {
		return nil, err
	}
	return s, nil
}

// rankSessionMu places Session.mu innermost of the server's and the rpc
// layer's locks (internal/server/lockorder.go): it is never held across a
// call of the session's Conn, whose first ranked lock would be out of order,
// so a callback that takes it never waits on the session's own call.
const rankSessionMu lockcheck.Rank = 65

// segKey / segID convert between wire and mapper segment names.
func segKey(id swizzle.SegID) proto.SegKey {
	return proto.SegKey{Area: uint32(id.Area), Start: int64(id.Start)}
}

func segID(k proto.SegKey) swizzle.SegID {
	return swizzle.SegID{Area: page.AreaID(k.Area), Start: page.No(k.Start)}
}

// DB returns the open database id.
func (s *Session) DB() uint32 { return s.db }

// Client returns the server-assigned client id.
func (s *Session) Client() uint32 { return s.client }

// Types returns the session's type registry.
func (s *Session) Types() *segment.Registry { return s.types }

// Mapper exposes the underlying mapper (benches and tools).
func (s *Session) Mapper() *swizzle.Mapper { return s.mapper }

// Hooks returns the session's hook registry (§2.4): the large-object data
// hooks run here, where the content is built (CreateLarge) and read.
func (s *Session) Hooks() *hooks.Registry { return s.mapper.Hooks() }

// Snapshot returns the session counters.
func (s *Session) Snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// RegisterType registers a type with the database and the local registry.
func (s *Session) RegisterType(td segment.TypeDesc) (*segment.TypeDesc, error) {
	info, err := s.conn.RegisterType(s.db, proto.FromDesc(&td))
	if err != nil {
		return nil, err
	}
	return s.types.Register(info.ToDesc())
}

// --- fetcher: the mapper's view of the connection ---

// fetcher is the mapper's view of the connection. A segment travels as one
// image — slotted, overflow and data in one round trip — but the mapper
// asks in steps: the slotted size, then the slotted part, then, when a data
// page is first touched, the data part. Between those steps the image waits
// in ready, which also takes the images a streaming scan was pushed ahead of
// demand. A held image is let go whenever the cached segment is dropped
// (Session.dropSeg), so a refetch never sees stale data.
//
// A segment this session created does not travel at all: its initial image is
// a function of the geometry of the runs it was made of (segment.Empty, the
// segment the server's commit writes when nothing of it ships), kept in fresh
// until the mapper first asks and built then, decoded already, with its zero
// data section: nothing of it came off the wire, so nothing of it is decoded
// or verified. The commit that publishes the segment records the creator in
// the server's copy table, so from then on the note is a registered copy like
// any other: a revocation reaches it through dropSeg, and nothing is built
// from it afterwards.
type fetcher struct {
	s *Session

	mu    sync.Mutex
	ready map[swizzle.SegID]held     // guarded by mu
	fresh map[swizzle.SegID]freshSeg // guarded by mu
}

// held is an image on its way to the mapper. built is its decoded slotted
// segment, which keeps img.Slotted, when the image was built from the note of
// the segment's creation; nil for one that came off the wire.
type held struct {
	img   *proto.SegImage
	built *segment.Seg
}

// freshSeg is what the initial image of a segment is made of.
type freshSeg struct {
	fileID       uint32
	slottedPages int
	dataStart    int64
	dataPages    int
}

// hold keeps img for the mapper's next step on id. An image held while a
// snapshot is open is an as-of image — pushed by the snapshot's scan or
// fetched at its stamp — and this is the one place it is marked for the
// end-of-snapshot drop. (Data held over from a live fetch that preceded the
// snapshot is not held again, so a registered copy stays cached.)
func (f *fetcher) hold(id swizzle.SegID, h held) {
	f.mu.Lock()
	if f.ready == nil {
		f.ready = make(map[swizzle.SegID]held)
	}
	f.ready[id] = h
	f.mu.Unlock()
	f.s.markSnapFetched(id)
}

// created notes a segment this session just created.
func (f *fetcher) created(id swizzle.SegID, n freshSeg) {
	f.mu.Lock()
	f.fresh[id] = n
	f.mu.Unlock()
}

// unbuilt lists the created segments whose image nobody has asked for yet.
func (f *fetcher) unbuilt() []swizzle.SegID {
	f.mu.Lock()
	defer f.mu.Unlock()
	ids := make([]swizzle.SegID, 0, len(f.fresh))
	for id := range f.fresh {
		ids = append(ids, id)
	}
	return ids
}

// drop lets go of whatever is held or noted for id.
func (f *fetcher) drop(id swizzle.SegID) {
	f.mu.Lock()
	delete(f.ready, id)
	delete(f.fresh, id)
	f.mu.Unlock()
}

// image hands over id's image: the held one if there is one, else fetched
// in one round trip as of the open snapshot's stamp, else built from the note
// of its creation, else fetched live.
func (f *fetcher) image(id swizzle.SegID) (held, error) {
	f.mu.Lock()
	h, ok := f.ready[id]
	delete(f.ready, id)
	n, created := f.fresh[id]
	delete(f.fresh, id) // whichever image the mapper gets now, the note is spent
	f.mu.Unlock()
	if ok {
		return h, nil
	}
	img := &proto.SegImage{Seg: segKey(id)}
	var err error
	if snap, inSnap := f.s.snapState(); inSnap {
		img.Slotted, img.Overflow, img.Data, err = f.s.conn.SnapFetchSeg(f.s.client, snap, img.Seg)
	} else if created {
		var built *segment.Seg
		built, img.Slotted = segment.Empty(n.fileID, n.slottedPages, n.dataPages, id.Area, page.No(n.dataStart))
		img.Data = make([]byte, n.dataPages*page.Size)
		return held{img, built}, nil
	} else {
		img.Slotted, img.Overflow, img.Data, err = f.s.conn.FetchSeg(f.s.client, img.Seg)
	}
	if err != nil {
		return held{}, err
	}
	return held{img: img}, nil
}

// SlottedPages is asked once per segment and session — the reservation it
// sizes outlives every drop (swizzle.Mapper.DropSeg). It answers from the note
// of the segment's creation; else from the image held for id; else — a
// reservation fetches nothing — from SegInfo; else, in a snapshot, where the
// segment may postdate the stamp, from the as-of image, which it holds for
// the FetchSlotted that follows.
func (f *fetcher) SlottedPages(id swizzle.SegID) (int, error) {
	f.mu.Lock()
	h, ok := f.ready[id]
	n, created := f.fresh[id]
	f.mu.Unlock()
	if created {
		return n.slottedPages, nil
	}
	if !ok {
		if _, inSnap := f.s.snapState(); !inSnap {
			return f.s.conn.SegInfo(segKey(id))
		}
		var err error
		if h, err = f.image(id); err != nil {
			return 0, err
		}
		f.hold(id, h)
	}
	return len(h.img.Slotted) / page.Size, nil
}

// FetchSlotted and FetchData are the end-to-end verification at cache
// fault-in, each over its part of the one image: wire or transport
// corruption is caught before the bytes enter the client cache. A built
// image is handed over as it was built.
func (f *fetcher) FetchSlotted(id swizzle.SegID) (*segment.Seg, error) {
	h, err := f.image(id)
	if err != nil {
		return nil, err
	}
	dec := h.built
	if dec == nil {
		// DecodeSlotted checks the header and slot-region CRCs; the overflow
		// bytes are checked against the header's recorded section checksum.
		if dec, err = segment.DecodeSlotted(h.img.Slotted); err != nil {
			return nil, err
		}
		dec.Overflow = h.img.Overflow
		if err := dec.VerifySections(); err != nil {
			return nil, err
		}
	}
	f.hold(id, h) // the data part waits for FetchData
	return dec, nil
}

func (f *fetcher) FetchData(id swizzle.SegID, dec *segment.Seg) ([]byte, error) {
	h, err := f.image(id)
	if err != nil {
		return nil, err
	}
	// Checked against the cached header's checksum (skipped when the caller
	// has no decoded header or the bytes are not the full on-disk section).
	if data := h.img.Data; h.built == nil && dec != nil && len(data) == int(dec.Hdr.DataPages)*page.Size {
		if err := dec.VerifyData(data); err != nil {
			return nil, err
		}
	}
	return h.img.Data, nil
}

func (f *fetcher) Resolve(headerOff uint64) (swizzle.SegID, int, error) {
	k, slot, err := f.s.conn.Resolve(f.s.db, headerOff)
	if err != nil {
		return swizzle.SegID{}, 0, err
	}
	return segID(k), slot, nil
}

// --- update detection → locking ---

// onAccess runs inside the fault handler when a transaction first touches a
// page: reads are granted locally (the cached copy is the paper's retained
// lock); the first write to a segment acquires X at the server.
func (s *Session) onAccess(k detect.PageKey, write bool) error {
	key := segKey(k.Seg)
	s.mu.Lock()
	if !s.inTx {
		s.mu.Unlock()
		return ErrNoTx
	}
	if s.snapMode && write {
		s.mu.Unlock()
		return ErrSnapshotRead
	}
	s.markTouchedLocked(key)
	s.mu.Unlock()
	if !write {
		return nil
	}
	return s.writeLock(key)
}

// writeLock takes X on key at the server unless this transaction has it, or
// the segment is one the session created and has not published, whose
// publishing commit takes X.
func (s *Session) writeLock(key proto.SegKey) error {
	s.mu.Lock()
	have, txid := s.xLocked[key] || s.unpublished[key], s.txID
	s.mu.Unlock()
	if have {
		return nil
	}
	if err := s.conn.Lock(s.client, txid, key, proto.LockX); err != nil {
		return err
	}
	s.mu.Lock()
	s.xLocked[key] = true
	s.mu.Unlock()
	return nil
}

// onCallback handles a server revocation. It runs on the RPC goroutine, so
// it never touches the (single-threaded) mapper: while the current
// transaction uses the copy the callback is refused — the paper's "callback
// waits until the client's transaction ends" — and the copy is given up when
// it does (endTx); otherwise the drop is queued for the application thread
// to apply at the next Begin.
func (s *Session) onCallback(key proto.SegKey) (refused bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// A snapshot always accepts: the revoking writer's commit stamp is
	// strictly above this snapshot's (the callback precedes its commit,
	// which follows our stamp pin), so the cached pre-write copy is exactly
	// the as-of image. It keeps serving until EndSnapshot drops it.
	if s.snapMode {
		s.snapDrops[key] = true
		s.stats.Drops++
		return false
	}
	// Refuse while the current transaction is using this copy; copies of
	// segments the transaction has not touched may be promised away — the
	// drop is applied by the application thread before any later access
	// (drainDropLocked).
	if s.inTx && (s.touched[key] || s.xLocked[key]) {
		s.stats.Refusals++
		s.refused[key] = true
		return true
	}
	s.pendingDrops[key] = true
	s.stats.Drops++
	return false
}

// drainDrop atomically marks key as touched by the current transaction
// (so no callback can revoke it from here to end of transaction) and
// applies any queued revocation before the caller resolves an address in
// the segment. Runs on the application thread. The touch-before-drain
// order is load-bearing: marking first closes the window in which a
// revocation could be accepted after the drain but before the access.
func (s *Session) drainDrop(key proto.SegKey) error {
	s.mu.Lock()
	pending := s.pendingDrops[key]
	if pending {
		delete(s.pendingDrops, key)
	}
	if s.inTx {
		s.markTouchedLocked(key)
	}
	s.mu.Unlock()
	if !pending {
		return nil
	}
	return s.dropSeg(segID(key))
}

// dropSeg drops a cached segment and whatever image the fetcher holds for
// it, so a revoked or aborted copy can never satisfy the next fetch.
func (s *Session) dropSeg(id swizzle.SegID) error {
	s.fetch.drop(id)
	return s.mapper.DropSeg(id)
}

// --- transactions ---

// Begin starts a transaction, first applying any revocations accepted
// since the last one (the copies were promised to the server).
func (s *Session) Begin() error {
	s.mu.Lock()
	if s.inTx {
		s.mu.Unlock()
		return ErrTxActive
	}
	// Mark the transaction active before applying queued drops so a
	// callback racing this Begin is refused rather than queued behind the
	// drain (it would otherwise go unapplied until the next Begin while
	// this transaction reads the copy).
	s.inTx = true
	s.txID = 0
	drops := s.pendingDrops
	s.pendingDrops = make(map[proto.SegKey]bool)
	s.mu.Unlock()
	for key := range drops {
		if err := s.dropSeg(segID(key)); err != nil {
			s.mu.Lock()
			s.inTx = false
			s.mu.Unlock()
			return err
		}
	}
	id, err := s.conn.NewTx()
	if err != nil {
		s.mu.Lock()
		s.inTx = false
		s.mu.Unlock()
		return err
	}
	s.mu.Lock()
	s.txID = id
	s.touched = make(map[proto.SegKey]bool)
	s.mu.Unlock()
	return nil
}

// TxID returns the current transaction id.
func (s *Session) TxID() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.txID, s.inTx
}

// shipImages builds the commit payload from the dirty segments: the slotted
// image as the segment keeps it (the server is authoritative for the section
// checksums and sets them over the bytes that land on disk) and, when the
// data part is mapped, the data with every reference in persistent form. A
// segment whose data cannot be unswizzled fails the commit: shipping its
// slots without it would be acknowledging an update and dropping it.
func (s *Session) shipImages() ([]proto.SegImage, error) {
	var images []proto.SegImage
	for _, id := range s.mapper.DirtySegs() {
		seg, ok := s.mapper.Seg(id)
		if !ok {
			continue
		}
		data, err := s.mapper.UnswizzledData(id)
		if err != nil {
			return nil, fmt.Errorf("client: commit image of segment %v: %w", id, err)
		}
		images = append(images, proto.SegImage{Seg: segKey(id), Slotted: seg.EncodeSlots(), Overflow: seg.Overflow, Data: data})
	}
	return images, nil
}

// ensureWriteLocks acquires X on every dirty segment that was modified
// through trusted paths (object creation) rather than page faults.
func (s *Session) ensureWriteLocks(images []proto.SegImage) error {
	for _, img := range images {
		if err := s.writeLock(img.Seg); err != nil {
			return err
		}
	}
	return nil
}

// Commit ships the dirty segments and commits at the server. Cached data
// stays resident for the next transaction.
func (s *Session) Commit() error {
	s.mu.Lock()
	snap := s.snapMode
	s.mu.Unlock()
	if snap {
		return s.EndSnapshot() // a snapshot commits nothing; just close it
	}
	images, err := s.ship(false)
	if err != nil {
		if err != ErrNoTx {
			_ = s.Abort()
		}
		return err
	}
	for _, img := range images {
		s.mapper.MarkClean(segID(img.Seg))
	}
	// The commit stands whatever the Released says: a holder record the
	// server keeps costs one accepted callback later.
	_ = s.endTx(true, nil)
	return nil
}

// PrepareCommit is the distributed variant's phase-1: ship images and vote.
// FinishCommit delivers the coordinator's decision.
func (s *Session) PrepareCommit() error {
	_, err := s.ship(true)
	return err
}

// ship is what Commit and PrepareCommit share: it builds the commit payload,
// takes X on every segment in it and hands it to the server under the
// current transaction — to commit, or to prepare for a 2PC decision — with
// every segment the session created and has not published, and returns what
// it shipped. A refusal that changed nothing (proto.Refused) gives those
// segments' runs back to the spares, as an abort does; after any other
// answer they are spent: published, or the server's to keep as it left them.
func (s *Session) ship(prepare bool) ([]proto.SegImage, error) {
	s.mu.Lock()
	if !s.inTx {
		s.mu.Unlock()
		return nil, ErrNoTx
	}
	txid := s.txID
	created := make([]proto.Created, len(s.created))
	for i, c := range s.created {
		created[i] = c.Created
	}
	s.mu.Unlock()
	images, err := s.shipImages()
	if err == nil {
		err = s.ensureWriteLocks(images)
	}
	if err != nil {
		return nil, err
	}
	err = s.conn.Publish(s.client, txid, created, images, prepare)
	if proto.Refused(err) {
		return nil, errors.Join(err, s.unpublish())
	}
	s.mu.Lock()
	for _, c := range s.created[:len(created)] {
		delete(s.unpublished, c.Seg)
	}
	s.created = s.created[len(created):]
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.stats.SegsShipped += int64(len(images))
	s.mu.Unlock()
	return images, nil
}

// FinishCommit completes a prepared transaction with the 2PC decision.
func (s *Session) FinishCommit(commit bool) error {
	s.mu.Lock()
	if !s.inTx {
		s.mu.Unlock()
		return ErrNoTx
	}
	txid := s.txID
	s.mu.Unlock()
	err := s.conn.Decide(txid, commit)
	if commit && err == nil {
		for _, id := range s.mapper.DirtySegs() {
			s.mapper.MarkClean(id)
		}
		_ = s.endTx(true, nil) // as after Commit
		return nil
	}
	return errors.Join(err, s.endTx(false, s.rolledBack()))
}

// Abort rolls back: local changes are discarded (dirty cached copies are
// dropped so the next access refetches committed state) and the server
// releases locks. The segments the session created and has not published,
// before Begin or since, are taken back (unpublish).
func (s *Session) Abort() error {
	s.mu.Lock()
	if s.snapMode {
		s.mu.Unlock()
		return s.EndSnapshot() // nothing to roll back
	}
	if !s.inTx {
		s.mu.Unlock()
		return ErrNoTx
	}
	txid := s.txID
	s.mu.Unlock()
	err := errors.Join(s.unpublish(), s.conn.Abort(s.client, txid))
	return errors.Join(err, s.endTx(false, s.rolledBack()))
}

// unpublish takes back every segment the session created and has not
// published: its image goes and its runs go back to the spares, still
// reserved to the session. Nobody else ever saw it.
func (s *Session) unpublish() error {
	s.mu.Lock()
	back := s.created
	s.created = nil
	clear(s.unpublished)
	s.mu.Unlock()
	var errs []error
	for _, c := range back {
		errs = append(errs, s.dropSeg(segID(c.Seg)))
		s.mu.Lock()
		s.spare[c.geom].runs = append(s.spare[c.geom].runs, c.Reserved)
		s.mu.Unlock()
	}
	return errors.Join(errs...)
}

// rolledBack lists the copies a rollback gives up: every one the transaction
// changed, and every segment created and not looked at since. What the
// session reads next of any of them comes from the server.
func (s *Session) rolledBack() []swizzle.SegID {
	return append(s.mapper.DirtySegs(), s.fetch.unbuilt()...) // never loaded, so in neither list twice
}

// release drops the cached copies of ids and tells the server so in one
// message. A segment is named to the server even if dropping it failed: the
// session will not serve it again either way. A segment the session has not
// published is no copy: it stays.
func (s *Session) release(ids []swizzle.SegID) error {
	if len(ids) == 0 {
		return nil
	}
	kept := ids[:0]
	s.mu.Lock()
	for _, id := range ids {
		if !s.unpublished[segKey(id)] {
			kept = append(kept, id)
		}
	}
	s.mu.Unlock()
	ids = kept
	if len(ids) == 0 {
		return nil
	}
	var errs []error
	keys := make([]proto.SegKey, 0, len(ids))
	for _, id := range ids {
		errs = append(errs, s.dropSeg(id))
		keys = append(keys, segKey(id))
	}
	return errors.Join(append(errs, s.conn.Released(s.client, keys))...)
}

// endTx ends the transaction at the session, once it has ended at the
// server: drop is what it gives up (a rollback's copies), and with them go
// the copies it refused a callback for, all named in one Released.
func (s *Session) endTx(committed bool, drop []swizzle.SegID) error {
	s.det.EndTransaction()
	s.mu.Lock()
	s.inTx = false
	s.txID = 0
	s.xLocked = make(map[proto.SegKey]bool)
	s.touched = make(map[proto.SegKey]bool)
	for key := range s.refused {
		if id := segID(key); !slices.Contains(drop, id) {
			drop = append(drop, id)
		}
	}
	s.stats.Drops += int64(len(s.refused))
	clear(s.refused)
	ends := s.onEnd
	s.onEnd = nil
	s.mu.Unlock()
	err := s.release(drop)
	for _, end := range ends {
		end(committed)
	}
	return err
}

// updateTx returns the transaction an update runs under: there is none in a
// snapshot, which is read-only, or outside a transaction.
func (s *Session) updateTx() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.snapMode:
		return 0, ErrSnapshotRead
	case !s.inTx:
		return 0, ErrNoTx
	}
	return s.txID, nil
}

// --- object operations ---

// LockObject takes an explicit object-level lock on the object at ref —
// the software-based finer-granularity locking of §2.3/[27]. Page-level
// detection still drives segment X locks on actual writes; object locks
// let applications serialize logical conflicts below segment granularity.
func (s *Session) LockObject(ref vmem.Addr, exclusive bool) error {
	txid, err := s.updateTx() // snapshots hold no locks, S included
	if err != nil {
		return err
	}
	obj, err := s.Deref(ref)
	if err != nil {
		return err
	}
	id, _, _, ok := s.mapper.FrameInfo(ref.Frame())
	if !ok {
		return swizzle.ErrUnknownAddr
	}
	mode := proto.LockS
	if exclusive {
		mode = proto.LockX
	}
	return s.conn.LockObject(s.client, txid, segKey(id), obj.Slot, mode)
}

// CreateSegment creates a new object segment in the session's database, of
// a run pair reserved to the session, and sends nothing: the pairs come in
// batches (ReserveSegments, one message per batch, each batch of a geometry
// twice its last up to proto.MaxReserve), and the session's next commit publishes the
// segment. Until then it is X-held by the session and nobody else can find
// it; an abort gives its runs back to the session. The runs' geometry is all
// the session needs to build the segment's image itself when it first looks
// (fetcher.image).
func (s *Session) CreateSegment(fileID uint32, slottedPages, dataPages, areaHint int) (proto.SegKey, error) {
	s.mu.Lock()
	snap := s.snapMode
	s.mu.Unlock()
	if snap {
		return proto.SegKey{}, ErrSnapshotRead
	}
	g := geometry{slottedPages, dataPages, areaHint}
	r, err := s.reserved(g)
	if err != nil {
		return proto.SegKey{}, err
	}
	id := segID(r.Seg)
	s.fetch.created(id, freshSeg{fileID: fileID, slottedPages: slottedPages, dataStart: r.DataStart, dataPages: r.DataPages})
	// Reserved now, while the size is at hand: the reservation outlives a
	// drop of the note, so no later touch has to ask the server for it.
	if _, err := s.mapper.ReserveSeg(id); err != nil {
		s.fetch.drop(id)
		s.mu.Lock()
		s.spare[g].runs = append(s.spare[g].runs, r)
		s.mu.Unlock()
		return proto.SegKey{}, err
	}
	s.mu.Lock()
	s.created = append(s.created, createdSeg{proto.Created{Reserved: r, FileID: fileID}, g})
	s.unpublished[r.Seg] = true
	s.mu.Unlock()
	return r.Seg, nil
}

// geometry is what a CreateSegment asks for: the runs' sizes and the area.
type geometry struct{ slotted, data, areaHint int }

// spares are the run pairs of one geometry no segment is made of yet, and how
// many the geometry's next ReserveSegments asks for.
type spares struct {
	runs []proto.Reserved
	next int
}

// createdSeg is a segment the session created and has not published, and
// the geometry it was asked for.
type createdSeg struct {
	proto.Created
	geom geometry
}

// reserved takes a spare run pair of geometry g, first refilling the spares
// with one ReserveSegments when there is none.
func (s *Session) reserved(g geometry) (proto.Reserved, error) {
	s.mu.Lock()
	sp := s.spare[g]
	if sp == nil {
		sp = &spares{next: 1}
		s.spare[g] = sp
	}
	if len(sp.runs) > 0 {
		r := sp.runs[0]
		sp.runs = sp.runs[1:]
		s.mu.Unlock()
		return r, nil
	}
	n := sp.next
	sp.next = min(2*n, proto.MaxReserve)
	s.mu.Unlock()
	runs, err := s.conn.ReserveSegments(s.client, s.db, g.areaHint, g.slotted, g.data, n)
	if err == nil && len(runs) == 0 {
		err = fmt.Errorf("client: the server reserved none of %d run pairs", n)
	}
	if err != nil {
		return proto.Reserved{}, err
	}
	s.mu.Lock()
	sp.runs = append(sp.runs, runs[1:]...)
	s.mu.Unlock()
	return runs[0], nil
}

// SegmentsOf lists the segments of file fileID as the session finds them: the
// server's, then those the session created and has not published.
func (s *Session) SegmentsOf(fileID uint32) ([]proto.SegKey, error) {
	segs, err := s.conn.SegmentsOf(s.db, fileID)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.created {
		if c.FileID == fileID {
			segs = append(segs, c.Seg)
		}
	}
	return segs, nil
}

// Deref resolves a reference (slot virtual address) to an object handle,
// marking the segment as touched by this transaction.
func (s *Session) Deref(ref vmem.Addr) (*swizzle.Object, error) {
	s.mu.Lock()
	if !s.inTx {
		s.mu.Unlock()
		return nil, ErrNoTx
	}
	s.mu.Unlock()
	if id, _, _, ok := s.mapper.FrameInfo(ref.Frame()); ok {
		if err := s.drainDrop(segKey(id)); err != nil {
			return nil, err
		}
	}
	obj, err := s.mapper.Deref(ref)
	if err != nil {
		return nil, err
	}
	if id, _, _, ok := s.mapper.FrameInfo(ref.Frame()); ok {
		s.mu.Lock()
		s.markTouchedLocked(segKey(id))
		s.mu.Unlock()
	}
	return obj, nil
}

// markTouchedLocked records the first use of a segment in this transaction;
// a use served entirely from the inter-transaction cache is a "local grant"
// (no server interaction), the quantity E6 reports. Callers hold s.mu.
func (s *Session) markTouchedLocked(key proto.SegKey) {
	s.mu.AssertHeld()
	if !s.touched[key] {
		s.touched[key] = true
		s.stats.LocalGrants++
	}
}

// AddrOfSlot returns a reference to (seg, slot), reserving lazily.
func (s *Session) AddrOfSlot(seg proto.SegKey, slot int) (vmem.Addr, error) {
	if err := s.drainDrop(seg); err != nil {
		return vmem.NilAddr, err
	}
	return s.mapper.AddrOfSlot(segID(seg), slot)
}

// CreateObject allocates an object in seg, returning its slot address. The
// segment is X-locked and its image ships at commit.
func (s *Session) CreateObject(seg proto.SegKey, typ segment.TypeID, data []byte) (vmem.Addr, error) {
	if _, err := s.updateTx(); err != nil {
		return vmem.NilAddr, err
	}
	if err := s.writeLock(seg); err != nil {
		return vmem.NilAddr, err
	}
	if err := s.drainDrop(seg); err != nil {
		return vmem.NilAddr, err
	}
	id := segID(seg)
	if err := s.mapper.EnsureData(id); err != nil {
		return vmem.NilAddr, err
	}
	var slot int
	err := s.mapper.TrustedSlotUpdate(id, func(sg *segment.Seg) error {
		var err error
		slot, err = sg.CreateObject(typ, data)
		if err == segment.ErrDataFull {
			// The data section moves to a run of twice the pages;
			// references name slots, so none changes.
			if err := s.moveSection(sg, true, max(2*int(sg.Hdr.DataPages), 1)); err != nil {
				return err
			}
			if err := s.mapper.RelocateData(id); err != nil {
				return err
			}
			slot, err = sg.CreateObject(typ, data)
		}
		return err
	})
	if err != nil {
		return vmem.NilAddr, err
	}
	s.mapper.MarkDataDirty(id)
	s.mu.Lock()
	s.touched[seg] = true
	s.mu.Unlock()
	return s.mapper.AddrOfSlot(id, slot)
}

// DeleteObject removes the object at ref; its slot's uniquifier is bumped
// and its name (if it is a root object) is unbound.
func (s *Session) DeleteObject(ref vmem.Addr) error {
	s.mu.Lock()
	if s.snapMode {
		s.mu.Unlock()
		return ErrSnapshotRead
	}
	s.mu.Unlock()
	obj, err := s.Deref(ref)
	if err != nil {
		return err
	}
	id, _, _, _ := s.mapper.FrameInfo(ref.Frame())
	key := segKey(id)
	if err := s.writeLock(key); err != nil {
		return err
	}
	o := s.OIDOf(ref)
	if err := s.mapper.TrustedSlotUpdate(id, func(sg *segment.Seg) error {
		return sg.DeleteObject(obj.Slot)
	}); err != nil {
		return err
	}
	s.mapper.MarkDataDirty(id)
	// Referential integrity for root objects (§2.5): removing the object
	// removes its name.
	if !o.IsNil() {
		_ = s.conn.NameRemoveOID(s.db, o)
	}
	return nil
}

// OIDOf computes the 96-bit OID of the object at ref.
func (s *Session) OIDOf(ref vmem.Addr) oid.OID {
	id, kind, _, ok := s.mapper.FrameInfo(ref.Frame())
	if !ok || kind != swizzle.FrameSlotted {
		return oid.Nil
	}
	obj, err := s.mapper.Deref(ref)
	if err != nil {
		return oid.Nil
	}
	seg, _ := s.mapper.Seg(id)
	return oid.OID{
		Host:   s.host,
		DB:     uint16(s.db),
		Offset: swizzle.HeaderOffset(id, obj.Slot),
		Unique: seg.Slots[obj.Slot].Unique,
	}
}

// DerefOID resolves an OID (the global_ref<T> path: slower, validated
// against the slot uniquifier).
func (s *Session) DerefOID(o oid.OID) (*swizzle.Object, error) {
	id, slot, err := s.conn.Resolve(s.db, o.Offset)
	if err != nil {
		return nil, err
	}
	// Through the session's AddrOfSlot so a pending revocation of the
	// segment is applied before resolving a (then-fresh) address.
	addr, err := s.AddrOfSlot(proto.SegKey{Area: uint32(id.Area), Start: int64(id.Start)}, slot)
	if err != nil {
		return nil, err
	}
	obj, err := s.Deref(addr)
	if err != nil {
		return nil, err
	}
	seg, _ := s.mapper.Seg(segID(id))
	if seg.Slots[slot].Unique != o.Unique {
		return nil, ErrStaleRoot
	}
	return obj, nil
}

// SetRoot names the object at ref ("root" objects, §2.5).
func (s *Session) SetRoot(name string, ref vmem.Addr) error {
	o := s.OIDOf(ref)
	if o.IsNil() {
		return swizzle.ErrUnknownAddr
	}
	return s.conn.NameBind(s.db, name, o)
}

// Root resolves a named root object.
func (s *Session) Root(name string) (*swizzle.Object, error) {
	o, err := s.conn.NameLookup(s.db, name)
	if err != nil {
		return nil, err
	}
	return s.DerefOID(o)
}

// UnsetRoot removes a name.
func (s *Session) UnsetRoot(name string) error {
	return s.conn.NameUnbind(s.db, name)
}

// CreateLarge stores a transparent large object in seg, returning its slot
// address. Its content, as the flush-side hooks (§2.4: compression) leave it,
// is the data section of a segment of its own, created from the session's
// reserved runs as a run store's is, with no message; the session adds a
// descriptor naming that segment to its copy of seg, as CreateObject adds a
// small object. Both ship at commit, which publishes the content segment, and
// until then no other client can find the object. The creator reads it from
// its own copy, with no fetch; another reader fetches the content segment
// like any other (swizzle's loadLarge).
func (s *Session) CreateLarge(seg proto.SegKey, typ segment.TypeID, content []byte) (vmem.Addr, error) {
	if _, err := s.updateTx(); err != nil {
		return vmem.NilAddr, err
	}
	if len(content) > segment.MaxTransparentLarge {
		return vmem.NilAddr, ErrTooLarge
	}
	if err := s.writeLock(seg); err != nil {
		return vmem.NilAddr, err
	}
	if err := s.drainDrop(seg); err != nil {
		return vmem.NilAddr, err
	}
	id := segID(seg)
	if err := s.mapper.EnsureLoaded(id); err != nil {
		return vmem.NilAddr, err
	}
	stored := content
	if err := s.Hooks().FireData(hooks.EvObjectFlush, id, &stored); err != nil {
		return vmem.NilAddr, err
	}
	rs := runStore{s}
	run, _, err := rs.Alloc(max((len(stored)+page.Size-1)/page.Size, 1))
	if err == nil {
		err = rs.WriteRun(run, stored)
	}
	if err != nil {
		return vmem.NilAddr, err
	}
	k := runKey(run)
	desc := segment.LargeDesc{Area: page.AreaID(k.Area), Start: page.No(k.Start), Stored: uint32(len(stored)), CRC: page.Checksum(stored)}
	var slot int
	err = s.mapper.TrustedSlotUpdate(id, func(sg *segment.Seg) error {
		if sg.Hdr.OverPages == 0 {
			if err := s.moveSection(sg, false, 1); err != nil {
				return err
			}
		}
		var err error
		slot, err = sg.CreateDescriptor(segment.KindLarge, typ, uint32(len(content)), desc.Encode())
		return err
	})
	if err == nil {
		err = s.mapper.MapLarge(id, slot, content)
	}
	if err != nil {
		return vmem.NilAddr, err
	}
	s.mapper.MarkDataDirty(id)
	return s.mapper.AddrOfSlot(id, slot)
}

// moveSection moves a section of sg that outgrows its run — its data (data
// set) or its overflow — to a lone run of at least pages pages reserved to
// the session, and sizes it to the run the area granted. The shipped header
// names the run, and so does the commit (Created), which publishes it: the
// server allocates nothing while committing. An abort gives the run back to
// the spares, as it gives back a created segment's runs; so does a second
// move in the same transaction give back the run the first one took.
func (s *Session) moveSection(sg *segment.Seg, data bool, pages int) error {
	g := geometry{0, pages, -1}
	r, err := s.reserved(g)
	if err != nil {
		return err
	}
	h := &sg.Hdr
	area, start := &h.OverArea, &h.OverStart
	if data {
		area, start = &h.DataArea, &h.DataStart
		if err := sg.ResizeData(r.DataPages); err != nil { // never: the run only grows
			return err
		}
	} else {
		sg.EnsureOverflow(r.DataPages)
	}
	from := proto.SegKey{Area: uint32(*area), Start: int64(*start)}
	*area, *start = page.AreaID(r.Seg.Area), page.No(r.DataStart)
	s.mu.Lock()
	defer s.mu.Unlock()
	if i := slices.IndexFunc(s.created, func(c createdSeg) bool { return c.SlottedPages == 0 && c.Seg == from }); i >= 0 {
		s.spare[s.created[i].geom].runs = append(s.spare[s.created[i].geom].runs, s.created[i].Reserved)
		s.created = slices.Delete(s.created, i, i+1)
	}
	s.created = append(s.created, createdSeg{proto.Created{Reserved: r}, g})
	return nil
}

// Conn exposes the underlying connection (the core layer issues catalog
// operations through it).
func (s *Session) Conn() proto.Conn { return s.conn }

// ScanSegment iterates over the live objects of one segment.
func (s *Session) ScanSegment(k proto.SegKey, fn func(addr vmem.Addr, obj *swizzle.Object) error) error {
	if err := s.drainDrop(k); err != nil {
		return err
	}
	id := segID(k)
	if err := s.mapper.EnsureLoaded(id); err != nil {
		return err
	}
	seg, _ := s.mapper.Seg(id)
	for _, slot := range seg.LiveSlots() {
		addr, err := s.mapper.AddrOfSlot(id, slot)
		if err != nil {
			return err
		}
		obj, err := s.Deref(addr)
		if err != nil {
			return err
		}
		if err := fn(addr, obj); err != nil {
			return err
		}
	}
	return nil
}

// Scan iterates over the live objects of every segment of file fileID,
// calling fn with each object's address. This is the cursor mechanism files
// provide (§2).
func (s *Session) Scan(fileID uint32, fn func(addr vmem.Addr, obj *swizzle.Object) error) error {
	segs, err := s.SegmentsOf(fileID)
	if err != nil {
		return err
	}
	for _, k := range segs {
		if err := s.ScanSegment(k, fn); err != nil {
			// A segment listed by SegmentsOf may be dropped before the
			// cursor reaches it; that is a skip, not a scan failure.
			if isNoSegment(err) {
				continue
			}
			return err
		}
	}
	return nil
}

// runStore is a largeobj.TxStore over the session's segments: every run a
// very large object allocates is a segment of its own, with no object in it,
// whose data section holds the run's pages. It is created from the session's
// reserved runs (CreateSegment: no message), and read and written through the
// mapper like any segment: a fetch goes through the server's read pipeline,
// the first write of a transaction takes X (update detection), and the
// commit ships it and publishes a new one. A run's address packs its
// segment's area above its start, as a header offset does (Resolve), so an
// object's descriptor names its runs whatever area they are in.
type runStore struct{ s *Session }

// RunStore returns a largeobj.TxStore over this session's database.
func (s *Session) RunStore() largeobj.TxStore { return runStore{s} }

func runAddr(k proto.SegKey) page.No { return page.No(int64(k.Area)<<32 | k.Start) }

func runKey(p page.No) proto.SegKey {
	return proto.SegKey{Area: uint32(p >> 32), Start: int64(p & (1<<32 - 1))}
}

// OnEnd implements largeobj.TxStore: end runs when the session's
// transaction ends.
func (r runStore) OnEnd(end func(committed bool)) error {
	if _, err := r.s.updateTx(); err != nil {
		return err
	}
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	r.s.onEnd = append(r.s.onEnd, end)
	return nil
}

// Alloc creates a segment of at least nPages data pages for the session's
// transaction to write, in the file of the session's runs, which the first
// Alloc asks the server for.
func (r runStore) Alloc(nPages int) (page.No, int, error) {
	s := r.s
	if _, err := s.updateTx(); err != nil {
		return 0, 0, err
	}
	s.mu.Lock()
	file := s.runFile
	s.mu.Unlock()
	if file == 0 {
		var err error
		if file, err = s.conn.NewFileID(s.db); err != nil {
			return 0, 0, err
		}
		s.mu.Lock()
		s.runFile = file
		s.mu.Unlock()
	}
	k, err := s.CreateSegment(file, 1, nPages, -1)
	if err != nil {
		return 0, 0, err
	}
	if k.Start>>32 != 0 {
		return 0, 0, fmt.Errorf("client: segment start %d does not fit a run address", k.Start)
	}
	data, err := r.data(k)
	return runAddr(k), len(data) / page.Size, err
}

// Free keeps the segment: the log holds its pages' history, which restart
// would replay over anything allocated there later (DESIGN.md §5).
func (r runStore) Free(page.No) error { return nil }

// ReadRun reads the run as the session's transaction sees it: its segment's
// data as the session's copy holds it.
func (r runStore) ReadRun(start page.No, n int, buf []byte) error {
	data, err := r.data(runKey(start))
	if err != nil {
		return err
	}
	if n*page.Size > len(data) {
		return fmt.Errorf("client: %d pages read of a run of %d", n, len(data)/page.Size)
	}
	copy(buf, data[:n*page.Size])
	return nil
}

// WriteRun writes data over the run as a change of the session's
// transaction: its first write takes X on the segment, and the commit ships
// it.
func (r runStore) WriteRun(start page.No, data []byte) error {
	if _, err := r.s.updateTx(); err != nil {
		return err
	}
	k := runKey(start)
	if _, err := r.data(k); err != nil {
		return err
	}
	return r.s.mapper.WriteData(segID(k), data)
}

// data is the data section of the session's copy of segment k, loaded.
func (r runStore) data(k proto.SegKey) ([]byte, error) {
	if err := r.s.drainDrop(k); err != nil {
		return nil, err
	}
	id := segID(k)
	if err := r.s.mapper.EnsureData(id); err != nil {
		return nil, err
	}
	seg, _ := r.s.mapper.Seg(id)
	return seg.Data, nil
}

// DropAllCached drops every cached segment, and the note of every segment
// created and not looked at since (benchmarks compare cold/warm behaviour),
// and tells the server in one message.
func (s *Session) DropAllCached() error {
	return s.release(append(s.mapper.CachedSegs(), s.fetch.unbuilt()...))
}
