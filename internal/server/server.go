// Package server implements the BeSS server (paper §3): it owns storage
// areas and provides distributed transaction management, concurrency
// control, and recovery for the databases stored in them. Clients cache
// data between transactions; consistency is maintained with the callback
// locking algorithm. Commits use the write-ahead log; distributed commits
// run two-phase commit with the server as a participant.
//
// The same Server value serves three configurations: linked directly into
// an application (the "open server" of §1 — trusted code calls methods),
// fronted by the RPC loop (ServePeer) for remote clients, and wrapped by a
// node server.
package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bess/internal/area"
	"bess/internal/cache"
	"bess/internal/goleak"
	"bess/internal/hooks"
	"bess/internal/lock"
	"bess/internal/oid"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/segment"
	"bess/internal/tx"
	"bess/internal/wal"
)

// Errors returned by the server.
var (
	ErrNoArea    = errors.New("server: no such storage area")
	ErrNoSegment = errors.New("server: no such segment")
	ErrNotLocked = errors.New("server: transaction does not hold the required lock")
	ErrUnknownTx = errors.New("server: unknown transaction")
	ErrShutdown  = errors.New("server: shut down")
	ErrNotStaged = errors.New("server: segment overwrite not staged with the version store by this transaction")
	// ErrShortSection refuses a commit that ships a data or overflow section
	// shorter than the run it overwrites.
	ErrShortSection = errors.New("server: commit ships a section shorter than its run")
)

// Stats are cumulative server counters (experiment E6 reads them).
type Stats struct {
	Messages         int64 // client requests handled
	SlottedFetches   int64
	DataFetches      int64
	Commits          int64
	Aborts           int64
	Callbacks        int64
	CallbackRefusals int64
	PagesWritten     int64
	FormatPages      int64 // pages formatSegment wrote, with no record
	SnapFetches      int64 // as-of segment fetches served to snapshots
	Released         int64 // Released calls: copies given up
	WriteBackWaits   int64 // reads that waited out a published commit's page writes

	// WAL counters (group commit, experiment E11): Syncs stays far below
	// Commits under concurrency because committers share fsyncs.
	WALAppends        int64
	WALFlushes        int64
	WALSyncs          int64
	WALGroupedCommits int64
	WALWrittenAhead   int64 // bytes the log writer wrote ahead of their force

	// Areas sums the open areas' counters: pages and store calls, and
	// writeback hints.
	Areas area.Stats
}

// Server is one BeSS server.
//
// Locking is striped per concern so fetches, lock calls, and commits from
// different clients do not contend on one server-wide mutex: the reader's
// areaMu guards the area table (read-mostly), the lock manager's mutex its
// one holder table of clients, copies and locks (lock.Manager), and the
// transaction table is the transaction manager's (tx.Manager: the only one).
// None of these locks is ever held while acquiring another; the permitted
// nesting order, should one ever be introduced, is the ranks their Init calls
// name (lockorder.go), enforced by internal/lockcheck in `-tags invariants`
// builds.
type Server struct {
	host uint16
	dir  string // "" = in-memory

	// reader is the read pipeline with the state it runs on (read.go):
	// areas, catalog, log, version store, quarantine, counters.
	reader

	// res holds the reserved runs and the published segments not yet in the
	// catalog (reserve.go).
	res reservations

	closed atomic.Bool

	// The background scrubber (corrupt.go): StartScrub starts it once, in a
	// group StopScrub and Close stop.
	scrub     goleak.Group
	scrubOnce sync.Once

	// media, when non-nil, supplies the durable devices instead of dir
	// (OpenMedia: fault-injection harnesses run the full stack over
	// simulated stores).
	media *Media

	// locks is the one holder table (§3): the connected clients, the
	// transactions' locks, and which clients cache which segment.
	locks *lock.Manager
	txm   *tx.Manager
	hk    *hooks.Registry

	nextTx atomic.Uint64
}

// NewMem creates an in-memory server (tests, benches).
func NewMem(host uint16) *Server {
	s, err := open("", host, nil)
	if err != nil {
		panic(err) // memory backing cannot fail
	}
	return s
}

// Open creates or reopens a file-backed server rooted at dir, running
// restart over its log: the catalog first, then ARIES for the pages.
func Open(dir string, host uint16) (*Server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return open(dir, host, nil)
}

// Media supplies the durable devices for OpenMedia: a WAL backing plus a
// factory invoked for each storage area the server attaches — and, over a
// log that is not empty, for each area restart finds cataloged, which must
// hand back that area's device. It lets fault harnesses (experiments E13 and
// E19) run the full server stack — commit, WAL, checksums, repair, restart —
// over simulated media with injected faults.
type Media struct {
	Log     wal.Backing
	NewArea func(id uint32) (area.Store, error)
}

// OpenMedia creates or reopens a server over the given devices (see Media),
// running restart over the log as Open does.
func OpenMedia(m Media, host uint16) (*Server, error) {
	return open("", host, &m)
}

func open(dir string, host uint16, media *Media) (*Server, error) {
	s := &Server{
		host:   host,
		dir:    dir,
		media:  media,
		reader: reader{areas: make(map[uint32]*area.Area)},
		locks:  lock.NewManager(),
		hk:     hooks.NewRegistry(),
	}
	s.areaMu.Init("reader.areaMu", rankAreaMu)
	// A client whose callback fails is gone: what else the server keeps for
	// it goes too.
	s.locks.Gone = s.Disconnect
	s.locks.DefaultTimeout = 5 * time.Second
	var err error
	switch {
	case media != nil:
		s.log, err = wal.Open(media.Log)
	case dir == "":
		s.log = wal.NewMem()
	default:
		s.log, err = wal.OpenFile(filepath.Join(dir, "wal.log"))
	}
	if err != nil {
		return nil, err
	}
	s.cat = newCatalog(s.log)
	if err = s.restart(); err != nil {
		errs := []error{err, s.log.Close()}
		for _, a := range s.openAreas() {
			errs = append(errs, a.Close())
		}
		return nil, errors.Join(errs...)
	}
	// Multiversion reads (DESIGN.md §7): the version store registers the
	// snapshots and retains superseded segment images while they are open,
	// fed by the tx commit/abort hooks and trimmed at the watermark. Its
	// version clock restarts above every pre-crash commit.
	var clock page.LSN
	if nl := s.log.NextLSN(); nl > 0 {
		clock = nl - 1
	}
	s.vs = cache.NewVersionStore(clock)
	// A transaction's end, either way, enters the segments it published in
	// the catalog, before its locks release. A commit stages them first, with
	// no pre-image (they are new), so that reads wait for its write-back of
	// them as for the segments it ships; the written hook ends the wait.
	s.txm.SetCommitHook(func(id uint64, lsn page.LSN) {
		ops := s.ended(id)
		for _, op := range ops {
			if op.Kind == proto.CatAddSegment {
				s.vs.StageWrite(id, vkeyOf(op.Seg))
			}
		}
		s.vs.CommitTx(id, lsn)
		s.enter(ops)
	})
	s.txm.SetAbortHook(func(id uint64) { s.vs.AbortTx(id); s.enter(s.ended(id)) })
	s.txm.SetWrittenHook(s.vs.Landed)
	s.txm.SetRollbackHook(s.formatAborted)
	s.txm.SetRepair(s.repairWrites)
	s.nextTx.Store(uint64(host)<<48 | 1)
	return s, nil
}

// restart brings a server's storage to what its log describes — nothing, for
// a memory server's empty log — outermost structure first: the catalog
// (rebuilt from the ops the log holds, found in the one analysis pass over
// it), then the storage those ops name — an area file created, a segment's
// runs allocated and formatted — and only then the pages and the transaction
// table (tx.Restart: repeat history, roll back losers, keep in-doubt 2PC
// branches for the coordinator's decision), which need both. Only a
// file-backed server owns a directory whose unnamed area files it removes.
func (s *Server) restart() error {
	an, segs, err := s.cat.replay()
	if err != nil {
		return err
	}
	if s.dir != "" {
		if err := s.removeOrphanAreas(); err != nil {
			return err
		}
	}
	for _, aid := range s.cat.areaIDs() {
		a, err := s.reopenArea(aid)
		if err != nil {
			return fmt.Errorf("server: open area %d: %w", aid, err)
		}
		s.areaMu.Lock()
		s.areas[aid] = a
		s.areaMu.Unlock()
	}
	for _, op := range segs {
		if err := s.redoSegment(op, an); err != nil {
			return fmt.Errorf("server: redo of segment %d/%d (lsn %d): %w", op.Seg.Area, op.Seg.Start, op.lsn, err)
		}
	}
	if s.txm, _, err = tx.Restart(an, s.locks, s, s.hk); err != nil {
		return fmt.Errorf("server: recovery: %w", err)
	}
	return nil
}

// reopenArea opens area aid, which a replayed add-area op names, as restart
// finds it — creating it afresh when the crash lost its file or device (the
// record outlived the directory entry).
func (s *Server) reopenArea(aid uint32) (*area.Area, error) {
	if s.media == nil {
		a, err := area.OpenFile(s.areaPath(aid))
		if errors.Is(err, os.ErrNotExist) {
			return s.createArea(aid)
		}
		return a, err
	}
	st, err := s.media.NewArea(aid)
	if err != nil {
		return nil, err
	}
	if size, err := st.Size(); err == nil && size == 0 {
		return area.Create(st, page.AreaID(aid), 1, true)
	}
	return area.Load(st, true)
}

// ErrUnnamedArea reports an area file the log does not name that holds an
// allocation: the log that named it is lost, or is another directory's.
// Open refuses to start over it rather than remove its data.
var ErrUnnamedArea = errors.New("server: an area file the log does not name holds data")

// removeOrphanAreas removes the area files of the directory the catalog does
// not name, if each is what AddArea leaves when it crashes before its record
// is durable — a file that does not load as an area, or an area with nothing
// allocated in it — and fails with ErrUnnamedArea, removing none, if one is
// not.
func (s *Server) removeOrphanAreas() error {
	files, err := filepath.Glob(filepath.Join(s.dir, "area-*.bess"))
	if err != nil {
		return err
	}
	named := make(map[uint32]bool)
	for _, aid := range s.cat.areaIDs() {
		named[aid] = true
	}
	var orphans []string
	for _, f := range files {
		var aid uint32
		if _, err := fmt.Sscanf(filepath.Base(f), "area-%d.bess", &aid); err != nil || named[aid] {
			continue
		}
		if a, err := area.OpenFile(f); err == nil {
			empty := a.Empty()
			if err := a.Close(); err != nil {
				return err
			}
			if !empty {
				return fmt.Errorf("%w: %s", ErrUnnamedArea, f)
			}
		}
		orphans = append(orphans, f)
	}
	for _, f := range orphans {
		if err := os.Remove(f); err != nil {
			return err
		}
	}
	return nil
}

func (s *Server) areaPath(id uint32) string {
	return filepath.Join(s.dir, fmt.Sprintf("area-%d.bess", id))
}

// SetLockTimeout adjusts how long a lock request (a fetch's copy too) waits
// before the timeout-based (distributed) deadlock detection gives up (§3).
func (s *Server) SetLockTimeout(d time.Duration) { s.locks.DefaultTimeout = d }

// Hooks exposes the server's hook registry ("value added" code registers
// commit counters, compression, etc.).
func (s *Server) Hooks() *hooks.Registry { return s.hk }

// Log exposes the WAL (checkpointing, tools).
func (s *Server) Log() *wal.Log { return s.log }

// Snapshot returns cumulative statistics.
func (s *Server) Snapshot() Stats {
	ls, lk := s.log.Stats(), s.locks.Snapshot()
	var as area.Stats
	for _, a := range s.openAreas() {
		st := a.Stats()
		as.Reads, as.Writes, as.WriteCalls = as.Reads+st.Reads, as.Writes+st.Writes, as.WriteCalls+st.WriteCalls
		as.Grows, as.Hints = as.Grows+st.Grows, as.Hints+st.Hints
	}
	return Stats{
		Messages:         s.stats.messages.Load(),
		SlottedFetches:   s.stats.slottedFetches.Load(),
		DataFetches:      s.stats.dataFetches.Load(),
		Commits:          s.stats.commits.Load(),
		Aborts:           s.stats.aborts.Load(),
		Callbacks:        lk.Callbacks,
		CallbackRefusals: lk.Refusals,
		PagesWritten:     s.stats.pagesWritten.Load(),
		FormatPages:      s.stats.formatPages.Load(),
		SnapFetches:      s.stats.snapFetches.Load(),
		Released:         s.stats.released.Load(),
		WriteBackWaits:   s.vs.VersionStats().Written,

		WALAppends:        ls.Appends,
		WALFlushes:        ls.Flushes,
		WALSyncs:          ls.Syncs,
		WALGroupedCommits: ls.GroupedCommits,
		WALWrittenAhead:   ls.WrittenAhead,
		Areas:             as,
	}
}

// --- wal.Pager over the storage areas ---

// lookupArea returns the open area with the given id, or nil.
func (rd *reader) lookupArea(id uint32) *area.Area {
	rd.areaMu.RLock()
	a := rd.areas[id]
	rd.areaMu.RUnlock()
	return a
}

// ReadPage implements wal.Pager.
func (rd *reader) ReadPage(id page.ID, buf []byte) error {
	a := rd.lookupArea(uint32(id.Area))
	if a == nil {
		return ErrNoArea
	}
	return a.ReadPage(id.Page, buf)
}

// WriteRun implements wal.Pager: the page-store choke point for every logged
// mutation. It hands the proofs to the area of the first, which writes the
// pages their records changed in one write and nothing else, so there is no
// calling it for a page nothing was logged for (DESIGN.md §4f).
func (rd *reader) WriteRun(proofs []wal.Logged, data []byte) error {
	var a *area.Area
	if len(proofs) > 0 {
		a = rd.lookupArea(uint32(proofs[0].Page().Area))
	}
	if a == nil {
		// A zero proof, or none, names no area: say what is wrong with them.
		if _, err := wal.RunOf(proofs, data); err != nil {
			return err
		}
		return ErrNoArea
	}
	if err := a.WriteRun(proofs, data); err != nil {
		return err
	}
	rd.stats.pagesWritten.Add(int64(len(proofs)))
	return nil
}

// --- client registry ---

// Hello implements proto.Conn.
func (s *Server) Hello(name string) (uint32, error) {
	if s.closed.Load() {
		return 0, ErrShutdown
	}
	return s.locks.Register(), nil
}

// SetCallback implements proto.Conn: in-process clients pass a closure;
// ServePeer wires the RPC callback.
func (s *Server) SetCallback(client uint32, cb func(proto.SegKey) (bool, error)) error {
	var lcb lock.Callback
	if cb != nil {
		lcb = func(n lock.Name) (bool, error) { return cb(proto.SegKey{Area: uint32(n.Q0), Start: int64(n.Q1)}) }
	}
	return s.locks.SetCallback(client, lcb)
}

// Disconnect drops a client: its cached copies are forgotten, the runs
// reserved to it and not published go free, its active transactions are
// aborted, and its open snapshots closed (unpinning the version watermark). A
// branch it prepared is not this server's to abort: it stays in doubt, locks
// held, until Decide (tx.Manager.AbortOwned).
func (s *Server) Disconnect(client uint32) {
	s.vs.CloseOwner(client)
	s.locks.Remove(client)
	s.freeReserved(client)
	// A rollback that fails leaves its transaction in the table, as a failed
	// Abort does; there is no caller to tell.
	_ = s.txm.AbortOwned(client)
}

// --- databases, areas, segments ---

// OpenDB implements proto.Conn.
func (s *Server) OpenDB(name string, create bool) (uint32, uint16, error) {
	s.stats.messages.Add(1)
	if m, ok := s.cat.dbByName(name); ok {
		return m.ID, s.host, nil
	}
	if !create {
		return 0, 0, fmt.Errorf("server: no database %q", name)
	}
	m, err := s.cat.createDB(name)
	if err != nil {
		return 0, 0, err
	}
	if _, err := s.AddArea(m.ID); err != nil {
		return 0, 0, err
	}
	_ = s.hk.Fire(hooks.EvDatabaseOpen, name)
	return m.ID, s.host, nil
}

// AddArea implements proto.Conn: attach one more storage area to db. The area
// is durable when AddArea returns.
func (s *Server) AddArea(db uint32) (uint32, error) {
	s.stats.messages.Add(1)
	m, err := s.cat.db(db)
	if err != nil {
		return 0, err
	}
	// The area exists, whole, before the record that names it: a crash in
	// between leaves an empty area file no catalog names, which restart removes.
	s.cat.mu.Lock()
	aid := s.cat.NextArea
	var lsn page.LSN
	a, err := s.createArea(aid)
	if err == nil {
		lsn, err = s.cat.change(&proto.CatalogOp{Kind: proto.CatAddArea, DB: m.ID, ID: aid}, nil)
	}
	s.cat.mu.Unlock()
	if err != nil {
		if a != nil {
			err = errors.Join(err, s.discardArea(a, aid))
		}
		return 0, err
	}
	s.areaMu.Lock()
	s.areas[aid] = a
	s.areaMu.Unlock()
	return aid, s.log.Flush(lsn)
}

// createArea creates storage area aid, empty, on the server's medium. A file
// or a device is synced before anything can name it.
func (s *Server) createArea(aid uint32) (*area.Area, error) {
	var a *area.Area
	var err error
	switch {
	case s.media != nil:
		var st area.Store
		if st, err = s.media.NewArea(aid); err == nil {
			a, err = area.Create(st, page.AreaID(aid), 1, true)
		}
	case s.dir == "":
		return area.NewMem(page.AreaID(aid), 1, true)
	default:
		a, err = area.CreateFile(s.areaPath(aid), page.AreaID(aid), 1)
	}
	if err != nil {
		return nil, err
	}
	if err := a.Sync(); err != nil {
		return nil, errors.Join(err, s.discardArea(a, aid))
	}
	return a, nil
}

// discardArea closes an area createArea made and nothing names, and removes
// its file.
func (s *Server) discardArea(a *area.Area, aid uint32) error {
	if s.dir == "" {
		return a.Close()
	}
	return errors.Join(a.Close(), os.Remove(s.areaPath(aid)))
}

// NewFileID implements proto.Conn. The id is durable with the next log force:
// no later than the commit of anything stored under it.
func (s *Server) NewFileID(db uint32) (uint32, error) {
	s.stats.messages.Add(1)
	m, err := s.cat.db(db)
	if err != nil {
		return 0, err
	}
	return s.cat.newFileID(m)
}

// NewTx implements proto.Conn.
func (s *Server) NewTx() (uint64, error) {
	s.stats.messages.Add(1)
	return s.nextTx.Add(1), nil
}

// RegisterType implements proto.Conn.
func (s *Server) RegisterType(db uint32, t proto.TypeInfo) (proto.TypeInfo, error) {
	s.stats.messages.Add(1)
	m, err := s.cat.db(db)
	if err != nil {
		return proto.TypeInfo{}, err
	}
	return s.cat.registerType(m, t)
}

// Types implements proto.Conn.
func (s *Server) Types(db uint32) ([]proto.TypeInfo, error) {
	s.stats.messages.Add(1)
	m, err := s.cat.db(db)
	if err != nil {
		return nil, err
	}
	return s.cat.types(m), nil
}

// areaOf returns the db's area chosen by hint (-1 = first).
func (s *Server) areaOf(m *dbMeta, hint int) (*area.Area, uint32, error) {
	s.cat.mu.Lock()
	if len(m.Areas) == 0 {
		s.cat.mu.Unlock()
		return nil, 0, ErrNoArea
	}
	idx := 0
	if hint >= 0 {
		idx = hint % len(m.Areas)
	}
	aid := m.Areas[idx]
	s.cat.mu.Unlock()
	a := s.lookupArea(aid)
	if a == nil {
		return nil, 0, ErrNoArea
	}
	return a, aid, nil
}

// redoSegment re-establishes at restart the storage of a replayed add-segment
// op: both runs are made live in the extent map (the map write may not have
// survived the crash), and the initial images are written again unless the
// segment is already there. It must never clobber: every add-segment op is
// replayed, though the segment may have been updated and committed after it
// with page redo starting later still (at a checkpoint past the commit,
// DESIGN.md §5), so a page the log changed after the op is left to redo and
// repair, and a slotted page that verifies as this segment is left alone.
//
// An add-run op's run is made live, and no more: its pages are the log's.
func (s *Server) redoSegment(op loggedOp, an *wal.Analysis) error {
	a := s.lookupArea(op.Seg.Area)
	if a == nil {
		return ErrNoArea
	}
	slStart := page.No(op.Seg.Start)
	if op.Kind == proto.CatAddRun {
		return a.EnsureSegment(slStart, op.DataPages)
	}
	if err := a.EnsureSegment(slStart, op.SlottedPages); err != nil {
		return err
	}
	if err := a.EnsureSegment(page.No(op.DataStart), op.DataPages); err != nil {
		return err
	}
	// Every commit to a segment rewrites checksums in its first slotted page,
	// and no page is changed before the op that allocates it (segments are
	// never dropped), so the page's first committed change after the op is
	// an anchor (the logging rule), and its latest anchor is past the op.
	if al, _ := an.Anchor(page.ID{Area: a.ID(), Page: slStart}); al > op.lsn {
		return nil
	}
	sl := make([]byte, op.SlottedPages*page.Size)
	if err := a.ReadRun(slStart, sl); err != nil {
		return err
	}
	if on, err := segment.DecodeSlotted(sl); err == nil && // magic, header and slot CRCs, geometry
		on.Hdr.FileID == op.FileID && on.Hdr.DataStart == page.No(op.DataStart) {
		return nil
	}
	return s.formatSegment(a, op.CatalogOp)
}

// SegInfo implements proto.Conn.
func (s *Server) SegInfo(seg proto.SegKey) (int, error) {
	s.stats.messages.Add(1)
	sm, _, ok := s.cat.segMetaOf(seg)
	if !ok {
		return 0, ErrNoSegment
	}
	return sm.SlottedPages, nil
}

// FetchSeg implements proto.Conn: the one way a live segment image leaves
// the server — slotted, overflow and data in a single message — under the
// client's copy (lock.Manager.Copy), taken before the read behind another
// client's X, so callbacks reach every image that leaves. Both per-kind fetch
// counters advance (E3's fault accounting counts segment faults, not
// messages).
func (s *Server) FetchSeg(client uint32, seg proto.SegKey) ([]byte, []byte, []byte, error) {
	s.stats.messages.Add(1)
	s.stats.slottedFetches.Add(1)
	s.stats.dataFetches.Add(1)
	if _, _, ok := s.cat.segMetaOf(seg); !ok {
		return nil, nil, nil, ErrNoSegment // nobody waits on a segment before it exists
	}
	if err := s.locks.Copy(client, segLockName(seg)); err != nil {
		return nil, nil, nil, err
	}
	_, img, over, data, err := s.readImage(seg, secAll, s.live())
	if err != nil {
		return nil, nil, nil, err
	}
	_ = s.hk.Fire(hooks.EvSegmentFault, seg)
	return img, over, data, nil
}

// Resolve implements proto.Conn.
func (s *Server) Resolve(db uint32, headerOff uint64) (proto.SegKey, int, error) {
	s.stats.messages.Add(1)
	m, err := s.cat.db(db)
	if err != nil {
		return proto.SegKey{}, 0, err
	}
	areaID := uint32(headerOff >> 32)
	byteOff := headerOff & 0xFFFFFFFF
	key, ok := s.cat.resolve(m, areaID, byteOff)
	if !ok {
		return proto.SegKey{}, 0, ErrNoSegment
	}
	rel := byteOff - uint64(key.Start)*page.Size
	slot, err := segment.SlotIndexForOffset(rel)
	if err != nil {
		return proto.SegKey{}, 0, err
	}
	return key, slot, nil
}

// SegmentsOf implements proto.Conn.
func (s *Server) SegmentsOf(db uint32, fileID uint32) ([]proto.SegKey, error) {
	s.stats.messages.Add(1)
	m, err := s.cat.db(db)
	if err != nil {
		return nil, err
	}
	return s.cat.segmentsOf(m, fileID), nil
}

// Released implements proto.Conn: the client dropped its cached copies.
func (s *Server) Released(client uint32, segs []proto.SegKey) error {
	s.stats.messages.Add(1)
	s.stats.released.Add(1)
	for _, seg := range segs {
		s.locks.Drop(client, segLockName(seg))
	}
	return nil
}

// --- locking with callbacks ---

func segLockName(seg proto.SegKey) lock.Name {
	return lock.Name{Kind: lock.KindSegment, Q0: uint64(seg.Area), Q1: uint64(seg.Start)}
}

// Lock implements proto.Conn. An X calls back the other clients' cached
// copies of the segment before it is granted (callback locking, §3).
//
// A key the catalog does not have — a reserved run's, or a segment whose
// publishing transaction has not ended — is ErrNoSegment: nobody waits on a
// segment before it exists, and its publisher never waits on anybody.
func (s *Server) Lock(client uint32, txid uint64, seg proto.SegKey, mode proto.LockMode) error {
	s.stats.messages.Add(1)
	if _, _, ok := s.cat.segMetaOf(seg); !ok {
		return ErrNoSegment
	}
	return s.txm.Ensure(txid, client).Lock(segLockName(seg), lock.Mode(mode))
}

// LockObject implements proto.Conn: software object-level locking
// (§2.3/[27]). The object lock is taken under the matching intention lock
// on its segment. It is a *logical* lock: cache revocation still happens
// when an actual write escalates to the segment X lock, so readers of
// other objects in the segment keep their copies.
func (s *Server) LockObject(client uint32, txid uint64, seg proto.SegKey, slot int, mode proto.LockMode) error {
	s.stats.messages.Add(1)
	t := s.txm.Ensure(txid, client)
	lm := lock.Mode(mode)
	intent := lock.IS
	if lm == lock.X || lm == lock.IX || lm == lock.SIX {
		intent = lock.IX
	}
	if err := t.Lock(segLockName(seg), intent); err != nil {
		return err
	}
	return t.Lock(lock.ObjectName(seg.Area, seg.Start, slot), lm)
}

// --- commit / abort / 2PC ---

// apply is what a commit and a prepare share: it publishes created, then
// logs the shipped images under txid's branch, which must hold X (or SIX) on
// each of their segments, and returns the branch, rolled back if an image
// fails, and the LSN of the last segment it published. An image of a
// segment the branch has not locked, or a created entry that does not name
// runs reserved to client, refuses the whole call before anything changes
// (proto.ErrRefused). apply writes no page — the records are redo-only, and the
// branch's commit writes their pages once its commit record is durable
// (tx.Tx.Commit) — and forces nothing: the one force of the commit or prepare
// record covers these buffered records, so a commit never pays a second fsync
// or waits on another transaction's tail.
func (s *Server) apply(client uint32, txid uint64, created []proto.Created, segs []proto.SegImage) (*tx.Tx, page.LSN, error) {
	s.stats.messages.Add(1)
	for _, si := range segs {
		if slices.ContainsFunc(created, func(c proto.Created) bool { return c.Seg == si.Seg }) {
			continue
		}
		if err := s.requireX(txid, si.Seg); err != nil {
			return nil, 0, fmt.Errorf("%w: %w", proto.ErrRefused, err)
		}
	}
	ops, err := s.take(client, created)
	if err != nil {
		return nil, 0, err
	}
	t := s.txm.Ensure(txid, client)
	t.Grow(shippedPages(segs, ops))
	lsn, err := s.publish(client, t, ops)
	mine := s.published(t.ID())
	for _, si := range segs {
		if err != nil {
			break
		}
		err = s.applyOne(t, si, mine)
	}
	for _, op := range ops {
		if err != nil {
			break
		}
		if op.Kind == proto.CatAddSegment && !slices.ContainsFunc(segs, func(si proto.SegImage) bool { return si.Seg == op.Seg }) {
			err = s.logFormat(t, op)
		}
	}
	if err != nil {
		_ = t.Abort()
		return nil, 0, err
	}
	return t, lsn, nil
}

// shippedPages is about how many pages apply logs for segs and for the
// segments ops add — a created segment that ships counts twice — for t.Grow.
func shippedPages(segs []proto.SegImage, ops []*proto.CatalogOp) int {
	n := 0
	for _, si := range segs {
		n += (len(si.Slotted) + len(si.Overflow) + len(si.Data) + page.Size - 1) / page.Size
	}
	for _, op := range ops {
		n += op.SlottedPages + op.DataPages
	}
	return n
}

// applyOne logs one shipped segment under t, which publishes ops. It reads
// the current image once — or, for a segment t publishes (fresh), builds it
// decoded, as formatSegment would write it (segment.Empty; cur keeps the image,
// and nothing changes cur) — and stages it with the version store: the
// image is the before-image of every run that stays where it is, and the
// version chain's pre-update image, which the store owns from here on, so
// nobody writes its bytes. Until t ends, snapshot reads of the segment
// wait out the overwrite; unstaged, an open snapshot's Recheck would pass (the
// stamp never advanced) while pages change underneath it. The data and
// overflow sections then take one step each (place), and the slotted image,
// re-encoded over their final geometry, is logged ahead of them
// (logShipped). Every page of a fresh segment or run is logged whole, zeros
// too, and written by t's commit: nothing was ever written to it, so its
// change is from nothing, not from the format it is built from.
func (s *Server) applyOne(t *tx.Tx, si proto.SegImage, ops []*proto.CatalogOp) error {
	nu, err := segment.DecodeSlotted(si.Slotted)
	if err != nil {
		return fmt.Errorf("server: commit image: %w", err)
	}
	var cur *segment.Seg
	var old cache.VImage
	i := slices.IndexFunc(ops, func(op *proto.CatalogOp) bool { return op.Kind == proto.CatAddSegment && op.Seg == si.Seg })
	if i >= 0 {
		fresh := ops[i]
		cur, old.Slotted = segment.Empty(fresh.FileID, fresh.SlottedPages, fresh.DataPages, page.AreaID(fresh.Seg.Area), page.No(fresh.DataStart))
		old.Data = zeroRun[: fresh.DataPages*page.Size : fresh.DataPages*page.Size]
	} else {
		cur, old.Slotted, old.Overflow, old.Data, err = s.readImage(si.Seg, secAll, s.live())
	}
	if err != nil {
		return err
	}
	staged := s.vs.StageUpdate(t.ID(), vkeyOf(si.Seg), old)
	nh, ch := &nu.Hdr, &cur.Hdr
	secs := [2]section{
		{nu: dataFields(nh), cur: dataFields(ch), ship: si.Data, before: old.Data},
		{nu: overFields(nh), cur: overFields(ch), ship: si.Overflow, before: old.Overflow},
	}
	for i := range secs {
		if err := place(&secs[i], ops); err != nil {
			return err
		}
	}
	img := nu.EncodeSlotted()
	before := old.Slotted
	if i >= 0 {
		before, secs[0].before = nil, nil
	}
	return s.logShipped(t, staged, si.Seg, before, img[:len(old.Slotted)], secs[:])
}

// section is one section of a shipped segment, its data or its overflow, on
// its way to the log: its fields in the shipped header (which the server
// rewrites) and in the current one, the bytes shipped for it (none: it does
// not ship) and the run's current content (nil for a fresh run: once it
// moves, or in a fresh segment).
type section struct {
	nu, cur      fields
	ship, before []byte
}

// fields are the header fields of one section: where its run lies and its
// checksum, valid when bit is set in flags.
type fields struct {
	area  *page.AreaID
	start *page.No
	pages *uint32
	crc   *uint32
	flags *uint8
	bit   uint8
}

func dataFields(h *segment.Header) fields {
	return fields{&h.DataArea, &h.DataStart, &h.DataPages, &h.DataCRC, &h.CRCFlags, segment.CRCData}
}

func overFields(h *segment.Header) fields {
	return fields{&h.OverArea, &h.OverStart, &h.OverPages, &h.OverCRC, &h.CRCFlags, segment.CRCOver}
}

// place settles where sec lands and what its checksum is. A section whose
// shipped header names another run than its current one moves there — it
// outgrew its run, or relocates on the fly (references name slots, so none
// changes) — and the run must be a lone run ops publish: one reserved to the
// committing client and named in its commit, so the server allocates nothing
// here. The section's bytes land zero-padded to the pages the area granted
// the run. One that stays keeps the current run, and covers it whole if it
// ships: the server checksums what lands on disk, and could not vouch for a
// run it received only part of. The server is authoritative for the
// checksum — the shipped header's may predate the padding, or cover a cached
// section this commit does not ship: it covers the bytes that land in the run
// when the section ships, is carried from the current (verified) header when
// the run stays untouched, and is claimed for nothing else. A run of no pages
// lands nothing, so its section ships none.
func place(sec *section, ops []*proto.CatalogOp) error {
	nu, cur := sec.nu, sec.cur
	switch {
	case *nu.area != *cur.area || *nu.start != *cur.start:
		to := proto.SegKey{Area: uint32(*nu.area), Start: int64(*nu.start)}
		i := slices.IndexFunc(ops, func(op *proto.CatalogOp) bool { return op.Kind == proto.CatAddRun && op.Seg == to })
		if i < 0 {
			return fmt.Errorf("%w: a section moves to run %d/%d, which the commit does not publish", proto.ErrNotReserved, to.Area, to.Start)
		}
		run := make([]byte, ops[i].DataPages*page.Size)
		copy(run, sec.ship)
		*nu.pages, sec.ship, sec.before = uint32(ops[i].DataPages), run, nil
	case *nu.pages > *cur.pages:
		return fmt.Errorf("%w: a section outgrows its run without moving", proto.ErrNotReserved)
	case len(sec.ship) > 0 && len(sec.ship) < int(*cur.pages)*page.Size:
		return ErrShortSection
	default:
		*nu.pages = *cur.pages
	}
	n := int(*nu.pages) * page.Size
	if n == 0 {
		sec.ship = nil
	}
	switch {
	case len(sec.ship) > 0:
		sec.ship = sec.ship[:n]
		*nu.crc, *nu.flags = page.Checksum(sec.ship), *nu.flags|nu.bit
	case *cur.pages > 0 && *cur.flags&cur.bit != 0:
		*nu.crc, *nu.flags = *cur.crc, *nu.flags|nu.bit
	default:
		*nu.flags &^= nu.bit
	}
	return nil
}

// logShipped logs the runs of a shipped segment seg for t: its slotted image
// over before, then each section that ships. staged is applyOne's proof that
// t staged seg with the version store; no page of a segment is logged
// without it.
func (s *Server) logShipped(t *tx.Tx, staged cache.Staged, seg proto.SegKey, before, slotted []byte, secs []section) error {
	if !staged.By(t.ID()) {
		return ErrNotStaged
	}
	if err := s.eachPage(t, seg.Area, page.No(seg.Start), before, slotted); err != nil {
		return err
	}
	for _, sec := range secs {
		if len(sec.ship) > 0 {
			if err := s.eachPage(t, uint32(*sec.nu.area), *sec.nu.start, sec.before, sec.ship); err != nil {
				return err
			}
		}
	}
	return nil
}

// eachPage logs each page of the run at start that data changes as a
// redo-only record (tx.Tx.LogRedo) — the runs of bytes that differ, or the
// page's whole-image anchor when one is due (internal/tx/logging.go) — whose page t's commit
// writes, whole, after its force. Nothing here can write one: LogRedo hands
// back no proof. Unchanged pages are neither logged nor written. before is the
// run's current content in whole pages, as the caller read it; a nil before
// is a fresh run, nothing ever written to it, whose every page is logged
// whole and written. data is whole pages: every caller cuts or pads it to its
// run, and LogRedo refuses a page it would end inside.
func (s *Server) eachPage(t *tx.Tx, areaID uint32, start page.No, before, data []byte) error {
	for lo := 0; lo < len(data); lo += page.Size {
		hi := min(lo+page.Size, len(data))
		var b []byte
		if before != nil {
			b = before[lo:hi]
		}
		if err := t.LogRedo(page.ID{Area: page.AreaID(areaID), Page: start + page.No(lo/page.Size)}, b, data[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// requireX verifies the tx holds X (or SIX) on seg.
func (s *Server) requireX(txid uint64, seg proto.SegKey) error {
	if m := s.locks.Holds(lock.TxID(txid), segLockName(seg)); m != lock.X && m != lock.SIX {
		return fmt.Errorf("%w: %v holds %v on %v", ErrNotLocked, txid, m, seg)
	}
	return nil
}

// Abort implements proto.Conn.
func (s *Server) Abort(client uint32, txid uint64) error {
	s.stats.messages.Add(1)
	t := s.txm.Lookup(txid)
	if t == nil {
		return nil // nothing ever reached the server: trivial abort
	}
	err := t.Abort()
	s.stats.aborts.Add(1)
	return err
}

// Decide implements proto.Conn: 2PC phase-2 decision delivery.
func (s *Server) Decide(txid uint64, commit bool) error {
	s.stats.messages.Add(1)
	t := s.txm.Lookup(txid)
	if t == nil {
		return ErrUnknownTx
	}
	var err error
	if commit {
		if !s.vs.HasStaged(txid) {
			// A branch restart adopted staged nothing: its segments join
			// the write-back's wait here, found from the pages it changed.
			for _, seg := range s.segmentsHolding(t.Pages()) {
				s.vs.StageWrite(txid, vkeyOf(seg))
			}
		}
		err = t.Commit()
		s.stats.commits.Add(1)
	} else {
		err = t.Abort()
		s.stats.aborts.Add(1)
	}
	return err
}

// --- names ---

// NameBind implements proto.Conn. Like the other name changes it is durable
// when it returns.
func (s *Server) NameBind(db uint32, name string, o oid.OID) error {
	s.stats.messages.Add(1)
	m, err := s.cat.db(db)
	if err != nil {
		return err
	}
	return s.cat.nameBind(m, name, o)
}

// NameLookup implements proto.Conn.
func (s *Server) NameLookup(db uint32, name string) (oid.OID, error) {
	s.stats.messages.Add(1)
	m, err := s.cat.db(db)
	if err != nil {
		return oid.Nil, err
	}
	return m.Names.Lookup(name)
}

// NameUnbind implements proto.Conn.
func (s *Server) NameUnbind(db uint32, name string) error {
	s.stats.messages.Add(1)
	m, err := s.cat.db(db)
	if err != nil {
		return err
	}
	return s.cat.nameUnbind(m, name)
}

// NameRemoveOID implements proto.Conn: referential integrity on object
// deletion.
func (s *Server) NameRemoveOID(db uint32, o oid.OID) error {
	s.stats.messages.Add(1)
	m, err := s.cat.db(db)
	if err != nil {
		return err
	}
	return s.cat.nameRemoveOID(m, o)
}

// DBInfo summarizes one database for tools.
type DBInfo struct {
	ID       uint32
	Name     string
	Areas    []uint32
	Types    int
	Segments int
	Files    int
	Roots    []string
}

// InspectInfo is the server summary bess-inspect prints.
type InspectInfo struct {
	// Replayed is the number of catalog records restart applied.
	Replayed  int
	Databases []DBInfo
}

// Inspect reports the catalog contents.
func (s *Server) Inspect() InspectInfo {
	var out InspectInfo
	s.cat.mu.Lock()
	out.Replayed = s.cat.replayed
	metas := append([]*dbMeta(nil), s.cat.Created...)
	s.cat.mu.Unlock()
	for _, m := range metas {
		di := DBInfo{ID: m.ID, Name: m.Name, Areas: append([]uint32(nil), m.Areas...)}
		s.cat.mu.Lock()
		di.Types = len(m.Types)
		di.Segments = len(m.Segments)
		di.Files = len(m.Files)
		s.cat.mu.Unlock()
		di.Roots = m.Names.Names()
		out.Databases = append(out.Databases, di)
	}
	return out
}

// Checkpoint makes what the log's earlier part describes durable outside it
// and writes a fuzzy checkpoint record, in this order: let the log writer's
// complete chunks land (wal.Log.Settle) → sync every area → append and force
// the checkpoint record. Restart redoes only the pages the record lists and
// those the log changes after it, so every page write of a transaction that
// ended before the sync is on the device by then; a commit still writing its
// pages has them listed (tx.Manager.Checkpoint).
func (s *Server) Checkpoint() error {
	s.log.Settle()
	for _, a := range s.openAreas() {
		if err := a.Sync(); err != nil {
			return err
		}
	}
	_, err := s.txm.Checkpoint()
	return err
}

// openAreas lists the attached areas.
func (s *Server) openAreas() []*area.Area {
	s.areaMu.RLock()
	defer s.areaMu.RUnlock()
	areas := make([]*area.Area, 0, len(s.areas))
	for _, a := range s.areas {
		areas = append(areas, a)
	}
	return areas
}

// WaitWriteBacks returns once every commit writing its pages when it is
// called has written them, released its locks and left the transaction
// table; it waits for no commit published later. Over the wire a commit
// answers before it writes its pages (ServePeer): counters that include its
// writes, and its locks, are read after this.
func (s *Server) WaitWriteBacks() { s.vs.WaitLanded() }

// Close flushes the log and shuts down; closing an area syncs it. Everything
// is closed whatever fails on the way; the errors come back joined.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.StopScrub()
	s.WaitWriteBacks()
	errs := []error{s.log.Close()}
	for _, a := range s.openAreas() {
		errs = append(errs, a.Close())
	}
	s.locks.Close()
	return errors.Join(errs...)
}

var _ proto.Conn = (*Server)(nil)
