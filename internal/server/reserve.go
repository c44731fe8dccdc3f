package server

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"bess/internal/area"
	"bess/internal/callback"
	"bess/internal/lock"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/segment"
	"bess/internal/tx"
)

// reservations are the run pairs and lone runs ReserveSegments handed out and
// nobody has published yet, and the segments published by transactions that
// have not ended. A segment is created in three steps: its runs are reserved
// to a client (in memory only: no extent map and no log record names them);
// the client's commit publishes it (its add-segment op is logged, its runs
// entered in their extent maps, X taken for the transaction, and every page
// of its runs queued as the commit's change, written after its force); and
// when that transaction ends it enters the catalog, where every other client
// finds it — formatted by the rollback if the transaction aborts. A lone run
// takes the first two steps: the commit that moves a section to it logs its
// add-run op and enters it in its extent map.
// Reservation is the only way to a run: nothing allocates while committing.
// mu is a plain mutex, held while taking no other lock.
type reservations struct {
	mu      sync.Mutex
	runs    map[proto.SegKey]reservation  // guarded by mu; by slotted run
	pending map[uint64][]*proto.CatalogOp // guarded by mu; by transaction
}

// reservation is one reserved run pair, the client it is reserved to and the
// database whose area holds it.
type reservation struct {
	client uint32
	db     uint32
	run    proto.Reserved
}

// ReserveSegments implements proto.Conn.
func (s *Server) ReserveSegments(client uint32, db uint32, areaHint, slottedPages, dataPages, n int) ([]proto.Reserved, error) {
	s.stats.messages.Add(1)
	if n < 1 || n > proto.MaxReserve {
		return nil, fmt.Errorf("server: %d run pairs asked for, not 1 to %d", n, proto.MaxReserve)
	}
	runs, err := s.reserve(client, db, areaHint, slottedPages, dataPages, n)
	if err == nil && !s.copies.Registered(client) { // reserved after Disconnect freed the client's
		s.freeReserved(client)
		return nil, callback.ErrUnknownClient
	}
	return runs, err
}

// reserve takes n run pairs — lone runs, with no slotted pages — in db's
// area areaHint and reserves them to client: all of them, or none.
func (s *Server) reserve(client uint32, db uint32, areaHint, slottedPages, dataPages, n int) ([]proto.Reserved, error) {
	m, err := s.cat.db(db)
	if err != nil {
		return nil, err
	}
	a, aid, err := s.areaOf(m, areaHint)
	if err != nil {
		return nil, err
	}
	runs := make([]proto.Reserved, 0, n)
	var starts []page.No
	for range n {
		var sl, dt page.No
		var granted int
		if slottedPages > 0 {
			if sl, _, err = a.Reserve(slottedPages); err != nil {
				break
			}
			starts = append(starts, sl)
		}
		if dt, granted, err = a.Reserve(dataPages); err != nil {
			break
		}
		starts = append(starts, dt)
		if slottedPages == 0 {
			sl = dt
		}
		runs = append(runs, proto.Reserved{Seg: proto.SegKey{Area: aid, Start: int64(sl)},
			SlottedPages: slottedPages, DataStart: int64(dt), DataPages: granted})
	}
	if err != nil {
		for _, start := range starts {
			err = errors.Join(err, a.FreeSegment(start))
		}
		return nil, err
	}
	s.res.mu.Lock()
	if s.res.runs == nil {
		s.res.runs = make(map[proto.SegKey]reservation)
	}
	for _, r := range runs {
		s.res.runs[r.Seg] = reservation{client: client, db: m.ID, run: r}
	}
	s.res.mu.Unlock()
	return runs, nil
}

// freeReserved gives the runs reserved to client back to their areas: the
// client is gone.
func (s *Server) freeReserved(client uint32) {
	var mine []proto.Reserved
	s.res.mu.Lock()
	for k, r := range s.res.runs {
		if r.client == client {
			mine = append(mine, r.run)
			delete(s.res.runs, k)
		}
	}
	s.res.mu.Unlock()
	for _, r := range mine {
		if a := s.lookupArea(r.Seg.Area); a != nil {
			// A run nobody ever wrote or named: freeing it writes nothing,
			// and there is no caller to tell if it fails. A lone run's key is
			// its start.
			if r.SlottedPages > 0 {
				_ = a.FreeSegment(page.No(r.Seg.Start))
			}
			_ = a.FreeSegment(page.No(r.DataStart))
		}
	}
}

// starts lists the runs op adds: a segment's two, or a lone run.
func starts(op *proto.CatalogOp) []page.No {
	if op.Kind == proto.CatAddRun {
		return []page.No{page.No(op.Seg.Start)}
	}
	return []page.No{page.No(op.Seg.Start), page.No(op.DataStart)}
}

// take checks that every entry of created names runs reserved to client, as
// reserved, once — a run pair for a file, a lone run for none — and takes
// them out of the reservations: all of them, returned as the ops that add
// their segments and runs, or — refused with proto.ErrNotReserved — none.
func (s *Server) take(client uint32, created []proto.Created) ([]*proto.CatalogOp, error) {
	if len(created) == 0 {
		return nil, nil
	}
	s.res.mu.Lock()
	defer s.res.mu.Unlock()
	ops := make([]*proto.CatalogOp, len(created))
	for i, c := range created {
		r, ok := s.res.runs[c.Seg]
		dup := slices.ContainsFunc(created[:i], func(d proto.Created) bool { return d.Seg == c.Seg })
		lone := c.SlottedPages == 0
		if !ok || r.client != client || r.run != c.Reserved || (c.FileID == 0) != lone || dup {
			return nil, fmt.Errorf("%w: %w: segment %d/%d", proto.ErrRefused, proto.ErrNotReserved, c.Seg.Area, c.Seg.Start)
		}
		ops[i] = &proto.CatalogOp{Kind: proto.CatAddSegment, DB: r.db, Seg: c.Seg, FileID: c.FileID,
			SlottedPages: c.SlottedPages, DataStart: c.DataStart, DataPages: c.DataPages}
		if lone {
			ops[i] = &proto.CatalogOp{Kind: proto.CatAddRun, DB: r.db, Seg: c.Seg, DataPages: c.DataPages}
		}
	}
	for _, c := range created {
		delete(s.res.runs, c.Seg)
	}
	return ops, nil
}

// publish creates the segments ops add, of runs take took: X-locked for t,
// which never waits (no other transaction can ask for a lock on a key the
// catalog does not have), the creator recorded as holding a copy, each op
// logged, and the runs entered in their extent maps, each map written once.
// It writes no page of a segment t publishes: t's commit writes every page of
// its runs after the force — the image t ships of it, or its format
// (logFormat) — and its rollback formats it (formatAborted). With no t the
// segment is formatted at once. A lone run is logged and entered, and no
// more: its pages come from the section t moves there. The segments enter the
// catalog when t ends (reveal), or at once with no t. It returns the LSN of
// the last record it logged: the segments are durable once the log is forced
// that far. The runs of an op not logged go free, and its lock and holder
// record with them.
func (s *Server) publish(client uint32, t *tx.Tx, ops []*proto.CatalogOp) (page.LSN, error) {
	var err error
	for _, op := range ops {
		if op.Kind == proto.CatAddRun {
			continue
		}
		if t != nil {
			if err = t.Lock(segLockName(op.Seg), lock.X); err != nil {
				break
			}
		}
		s.copies.Record(op.Seg, client)
	}
	areas := make([]*area.Area, len(ops))
	for i, op := range ops {
		areas[i] = s.lookupArea(op.Seg.Area) // areaMu ranks before catalog.mu
	}
	logged := 0
	var lsn page.LSN
	if err == nil {
		s.cat.mu.Lock()
		for i, op := range ops {
			var format func() error // a lone run's pages are the log's, and so are t's
			if op.Kind == proto.CatAddSegment && t == nil {
				format = func() error { return s.formatSegment(areas[i], op) }
			}
			var l page.LSN
			l, err = s.cat.record(op, format)
			if l != 0 {
				lsn = l
				logged++
			}
			if err != nil {
				break
			}
		}
		s.cat.mu.Unlock()
	}
	for i, op := range ops[logged:] {
		if op.Kind == proto.CatAddSegment {
			if t != nil {
				s.locks.Release(lock.TxID(t.ID()), segLockName(op.Seg))
			}
			s.copies.Drop(op.Seg, client)
		}
		for _, start := range starts(op) {
			err = errors.Join(err, areas[logged+i].FreeSegment(start))
		}
	}
	ops = ops[:logged]
	// Restart re-establishes a logged op's runs whatever its extent map says.
	byArea := make(map[*area.Area][]page.No)
	for i, op := range ops {
		byArea[areas[i]] = append(byArea[areas[i]], starts(op)...)
	}
	for a, starts := range byArea {
		err = errors.Join(err, a.Publish(starts...))
	}
	if t == nil {
		s.enter(ops)
		return lsn, err
	}
	s.res.mu.Lock()
	if s.res.pending == nil {
		s.res.pending = make(map[uint64][]*proto.CatalogOp)
	}
	s.res.pending[t.ID()] = append(s.res.pending[t.ID()], ops...)
	s.res.mu.Unlock()
	return lsn, err
}

// published lists the ops transaction txid published and that have not
// entered the catalog: t has not ended.
func (s *Server) published(txid uint64) []*proto.CatalogOp {
	s.res.mu.Lock()
	defer s.res.mu.Unlock()
	return slices.Clone(s.res.pending[txid])
}

// formatAborted formats the segments transaction txid published: it is
// rolling back, and they enter the catalog as restart would rebuild them from
// their ops — formatted and empty. It runs before the rollback reads a page
// (tx.Manager.SetRollbackHook), so what the rollback re-anchors a page to is
// the format, not whatever the fresh run held. A lone run needs nothing: no
// section of the aborted transaction lands there.
func (s *Server) formatAborted(txid uint64) error {
	var err error
	for _, op := range s.published(txid) {
		if op.Kind != proto.CatAddSegment {
			continue
		}
		a := s.lookupArea(op.Seg.Area)
		if a == nil {
			err = errors.Join(err, ErrNoArea)
			continue
		}
		err = errors.Join(err, s.formatSegment(a, op))
	}
	return err
}

// logFormat queues the initial images of the segment op adds — the empty
// slotted segment and the zeroed data section, every page whole — as t's
// change of its pages, for t's commit to write after its force: t publishes
// the segment and ships no image of it.
func (s *Server) logFormat(t *tx.Tx, op *proto.CatalogOp) error {
	sl := segment.Format(op.FileID, op.SlottedPages, op.DataPages, page.AreaID(op.Seg.Area), page.No(op.DataStart))
	if err := s.eachPage(t, op.Seg.Area, page.No(op.Seg.Start), nil, sl); err != nil {
		return err
	}
	return s.eachPage(t, op.Seg.Area, page.No(op.DataStart), nil, zeroRun[:op.DataPages*page.Size])
}

// reveal enters the segments transaction txid published in the catalog: it
// has ended. Committed, its pages are written; aborted, its segments are
// what restart would rebuild from their ops — formatted and empty.
func (s *Server) reveal(txid uint64) {
	s.res.mu.Lock()
	ops := s.res.pending[txid]
	delete(s.res.pending, txid)
	s.res.mu.Unlock()
	s.enter(ops)
}

// enter applies logged add-segment ops to the catalog.
func (s *Server) enter(ops []*proto.CatalogOp) {
	if len(ops) == 0 {
		return
	}
	s.cat.mu.Lock()
	defer s.cat.mu.Unlock()
	for _, op := range ops {
		// The key was reserved, so no segment has it: apply cannot refuse.
		_ = s.cat.apply(op)
	}
}

// Publish implements proto.Conn: apply's publish and images, then the commit
// or the prepare. A commit's records are redo-only, and its pages are written
// after its commit record is durable (tx.Tx.Commit); one that logs no record
// of its own forces the published segments' records itself. A prepare (2PC
// phase-1 vote) writes nothing: the branch stays prepared, locks held, until
// Decide, whose commit writes the pages from the branch's log chain.
func (s *Server) Publish(client uint32, txid uint64, created []proto.Created, segs []proto.SegImage, prepare bool) error {
	t, lsn, err := s.apply(client, txid, created, segs)
	if err != nil {
		return err
	}
	if prepare {
		return t.Prepare()
	}
	if err = t.Commit(); err == nil && lsn != 0 {
		err = s.log.Flush(lsn)
	}
	if err == nil {
		s.stats.commits.Add(1)
	}
	return err
}

// Commit is Publish for an in-process caller that creates no segments and
// commits: a single-server commit of the shipped images.
func (s *Server) Commit(client uint32, txid uint64, segs []proto.SegImage) error {
	return s.Publish(client, txid, nil, segs, false)
}

// CreateSegment creates a segment of file fileID in db for an in-process
// caller, as a session's create and publish do: one run pair reserved to
// client and published at once — under txid, X-locked for it, formatted by
// its commit (or its rollback) and found by others when it ends, or with txid
// 0 formatted, unlocked and in the catalog when CreateSegment returns.
// Nothing is forced: the segment is durable with the next log force.
func (s *Server) CreateSegment(client uint32, txid uint64, db, fileID uint32, slottedPages, dataPages, areaHint int) (proto.Created, error) {
	if fileID == 0 {
		return proto.Created{}, errors.New("server: fileID 0 is reserved")
	}
	runs, err := s.reserve(client, db, areaHint, slottedPages, dataPages, 1)
	if err != nil {
		return proto.Created{}, err
	}
	c := proto.Created{Reserved: runs[0], FileID: fileID}
	ops, err := s.take(client, []proto.Created{c}) // the pair reserve just handed out
	if err != nil {
		return proto.Created{}, err
	}
	if txid == 0 {
		_, err = s.publish(client, nil, ops)
		return c, err
	}
	t := s.ensureTx(client, txid)
	if _, err = s.publish(client, t, ops); err == nil {
		err = s.logFormat(t, ops[0])
	}
	return c, err
}
