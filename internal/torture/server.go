package torture

import (
	"bytes"
	"fmt"
	"slices"

	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/segment"
	"bess/internal/server"
	"bess/internal/wal"
)

// --- the server history ---
//
// One deterministic history drives a full server (server.OpenMedia on a
// world's devices): segments created and committed with one object each, then
// updated three times; a checkpoint; a large object; a relocating growth; a
// raw run (srvWorkload's only: no checksum covers one, so rot in it is
// served silently); a 2PC branch; a session-style commit that publishes two
// segments made of reserved runs; and a segment created and abandoned, whose
// initial image has no logged history — the designed unrepairable case. E19's
// pages and wal-body categories rot it; srvWorkload kills it.

const (
	srvSegs     = 6 // committed segments (each created, populated, updated)
	srvRotBytes = 2 // flipped bytes per corruption point
)

// srvWorld is a server open on a world, and the object-level model of what
// its history committed.
type srvWorld struct {
	*World
	srv    *server.Server
	db, cl uint32
	setup  int64          // events before the first segment is created
	keys   []proto.SegKey // the segments the history created, in order
	rawRun bool           // the history writes a raw run
	geoms  [][2]int       // the slotted and data pages of every run pair and run it allocated

	published pubSegs // the segments a commit published

	objs  []*object
	acked map[uint64]wal.Type // commits (TCommit) and yes votes (TPrepare) acknowledged
}

// object is one thing the history writes and reads back through the server,
// and the value each transaction that wrote it gave it, in order. Tx 0's
// value is what the object holds before any commit of it.
type object struct {
	name   string
	read   func(s *server.Server) ([]byte, error)
	writes []objWrite
	run    proto.SegKey // a raw run's area and start: free space once its allocation is lost
}

type objWrite struct {
	tx  uint64
	val []byte
}

// pubSeg is a segment made of reserved runs and the transaction whose commit
// published it.
type pubSeg struct {
	key proto.SegKey
	tx  uint64
}

// allocated notes a geometry the history allocated.
func (sw *srvWorld) allocated(slotted, data int) {
	if g := [2]int{slotted, data}; !slices.Contains(sw.geoms, g) {
		sw.geoms = append(sw.geoms, g)
	}
}

// want returns what o holds when the transactions in won are the winners:
// the last winner's value, and whether there is one.
func (o *object) want(won func(tx uint64) bool) (v []byte, ok bool) {
	for _, w := range o.writes {
		if w.tx == 0 || won(w.tx) {
			v, ok = w.val, true
		}
	}
	return v, ok
}

// holds checks what s reads of o when the transactions in won are the
// winners: the last winner's value, byte-exact, or without one a failed read.
func (o *object) holds(s *server.Server, won func(tx uint64) bool) error {
	want, ok := o.want(won)
	switch got, err := o.read(s); {
	case ok && err != nil:
		return fmt.Errorf("%s: %w", o.name, err)
	case ok && !bytes.Equal(got, want):
		return fmt.Errorf("%s reads %d bytes that are not its last winner's", o.name, len(got))
	case !ok && err == nil:
		return fmt.Errorf("%s reads %d bytes, and no commit of it survived", o.name, len(got))
	}
	return nil
}

// slot returns the object at slot of seg, read through FetchSeg.
func slot(name string, seg proto.SegKey, i int) *object {
	return &object{name: name, read: func(s *server.Server) ([]byte, error) {
		sl, ov, data, err := s.FetchSeg(0, seg)
		if err != nil {
			return nil, err
		}
		dec, err := segment.DecodeSlotted(sl)
		if err != nil {
			return nil, err
		}
		dec.Overflow, dec.Data = ov, data
		return dec.ObjectBytes(i)
	}}
}

// srvOpen opens a server on w and makes the history's database and client.
func srvOpen(w *World) (*srvWorld, error) {
	sw := &srvWorld{World: w, acked: make(map[uint64]wal.Type)}
	var err error
	if sw.srv, err = server.OpenMedia(w.media(), 1); err != nil {
		return sw, fmt.Errorf("open media server: %w", err)
	}
	if sw.db, _, err = sw.srv.OpenDB("e19", true); err != nil {
		return sw, err
	}
	if sw.cl, err = sw.srv.Hello("e19"); err != nil {
		return sw, err
	}
	sw.setup = w.Area.Events()
	return sw, nil
}

// srvHistory opens a server on w and runs the history on it, stopping at its
// first error, which it returns for the caller to classify.
func srvHistory(w *World) (*srvWorld, error) {
	sw, err := srvOpen(w)
	if err == nil {
		err = sw.history()
	}
	return sw, err
}

// history runs the history, to its end or its first error.
func (sw *srvWorld) history() error {
	srv := sw.srv
	body := func(i, round int) []byte {
		return []byte(fmt.Sprintf("e19 object %d round %d: %032d", i, round, i*7919+round))
	}
	for i := 0; i < srvSegs; i++ {
		created, err := srv.CreateSegment(0, 0, sw.db, 1, 1, 2, -1)
		if err != nil {
			return fmt.Errorf("create segment %d: %w", i, err)
		}
		sw.keys = append(sw.keys, created.Seg)
		sw.allocated(1, 2)
		sw.objs = append(sw.objs, slot(fmt.Sprintf("segment %d/%d", created.Seg.Area, created.Seg.Start), created.Seg, 0))
		if _, err := sw.put(i, body(i, 0), false); err != nil {
			return fmt.Errorf("commit segment %d: %w", i, err)
		}
	}
	// Update rounds: the repaired image must be the latest committed state,
	// not the first, and every commit extends the repairable event space.
	for round := 1; round <= 3; round++ {
		for i := range sw.keys {
			if _, err := sw.put(i, body(i, round), false); err != nil {
				return fmt.Errorf("update %d of segment %d: %w", round, i, err)
			}
		}
	}
	// A checkpoint: restart redoes only what it lists and what follows it.
	if err := srv.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	// One multi-page large object, stored as a client stores one: the content
	// by StoreLarge, the descriptor in the segment's shipped image.
	key := sw.keys[0]
	big := bytes.Repeat([]byte("E19-large-object-payload."), 400) // ~10 KB, 3 pages
	var at int
	large := &object{name: "large object", read: func(s *server.Server) ([]byte, error) { return s.FetchLarge(0, key, at) }}
	sw.objs = append(sw.objs, large)
	sw.allocated(1, (len(big)+page.Size-1)/page.Size)
	if _, err := sw.ship(key, false, func(txid uint64, seg *segment.Seg) error {
		desc, err := srv.StoreLarge(sw.cl, txid, key, big)
		if err != nil {
			return err
		}
		seg.EnsureOverflow(1)
		large.writes = append(large.writes, objWrite{txid, big})
		at, err = seg.CreateDescriptor(segment.KindLarge, 7, uint32(len(big)), desc)
		return err
	}); err != nil {
		return fmt.Errorf("create large: %w", err)
	}
	// A relocating growth: the second segment's object outgrows its data
	// section, which moves to a fresh run of twice the pages.
	grown := bytes.Repeat([]byte("E19-grown-object."), 700) // ~12 KB
	if _, err := sw.ship(sw.keys[1], false, func(txid uint64, seg *segment.Seg) error {
		sw.objs[1].writes = append(sw.objs[1].writes, objWrite{txid, grown})
		if err := seg.ResizeData(2 * int(seg.Hdr.DataPages)); err != nil {
			return err
		}
		sw.allocated(1, int(seg.Hdr.DataPages))
		return seg.ResizeObject(0, grown)
	}); err != nil {
		return fmt.Errorf("grow segment 1: %w", err)
	}
	// A raw run, written by a transaction and committed with no segment.
	if sw.rawRun {
		if err := sw.writeRun(); err != nil {
			return fmt.Errorf("write run: %w", err)
		}
	}
	// A 2PC branch: a yes vote on the third segment, then the commit decision.
	txid, err := sw.put(2, body(2, 4), true)
	if err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	if err := sw.ack(txid, wal.TCommit, srv.Decide(txid, true)); err != nil {
		return fmt.Errorf("decide: %w", err)
	}
	if err := sw.publish(); err != nil {
		return fmt.Errorf("publish: %w", err)
	}
	// The abandoned segment: slotted image on disk, nothing in the log.
	if _, err := srv.CreateSegment(0, 0, sw.db, 2, 1, 1, -1); err != nil {
		return fmt.Errorf("create bare segment: %w", err)
	}
	sw.allocated(1, 1)
	return nil
}

// publish commits as a session does what it created: two segments made of
// run pairs reserved to the client, one reserved before the transaction began
// and one inside it, published by the commit that ships an object into the
// first; the second ships nothing.
func (sw *srvWorld) publish() error {
	s := sw.srv
	before, err := s.ReserveSegments(sw.cl, sw.db, -1, 1, 2, 1)
	if err != nil {
		return err
	}
	txid, err := s.NewTx()
	if err != nil {
		return err
	}
	inside, err := s.ReserveSegments(sw.cl, sw.db, -1, 1, 2, 1)
	if err != nil {
		return err
	}
	sw.allocated(1, 2)
	created := []proto.Created{{Reserved: before[0], FileID: 3}, {Reserved: inside[0], FileID: 3}}
	r := before[0]
	seg := segment.New(3, r.SlottedPages, r.DataPages, page.AreaID(r.Seg.Area), page.No(r.DataStart))
	body := []byte("e19 published object: created before its transaction began")
	if _, err := seg.CreateObject(0, body); err != nil {
		return err
	}
	o := slot(fmt.Sprintf("published segment %d/%d", r.Seg.Area, r.Seg.Start), r.Seg, 0)
	o.writes = []objWrite{{txid, body}}
	sw.objs = append(sw.objs, o)
	for _, c := range created {
		sw.published = append(sw.published, pubSeg{c.Seg, txid})
	}
	img := []proto.SegImage{{Seg: r.Seg, Slotted: seg.EncodeSlots(), Data: seg.Data}}
	return sw.ack(txid, wal.TCommit, s.Publish(sw.cl, txid, created, img, false))
}

// writeRun allocates a raw run of two pages and has one transaction write
// it whole (server.WriteRun) and commit.
func (sw *srvWorld) writeRun() error {
	s := sw.srv
	aid, start, _, err := s.AllocRun(sw.db, 2)
	if err != nil {
		return err
	}
	txid, err := s.NewTx()
	if err != nil {
		return err
	}
	data := bytes.Repeat([]byte("E19 raw run. "), 2*page.Size/13+1)[:2*page.Size]
	sw.objs = append(sw.objs, &object{name: "raw run", writes: []objWrite{{0, make([]byte, len(data))}, {txid, data}},
		read: func(s *server.Server) ([]byte, error) { return s.ReadRun(sw.db, aid, start, 2) },
		run:  proto.SegKey{Area: aid, Start: start}})
	if err := s.WriteRun(sw.cl, txid, sw.db, aid, start, data); err != nil {
		return err
	}
	return sw.ack(txid, wal.TCommit, s.Commit(sw.cl, txid, nil))
}

// ship has one transaction change key's image and ship it, to commit or, with
// prepare set, to vote yes. It returns the transaction.
func (sw *srvWorld) ship(key proto.SegKey, prepare bool, change func(txid uint64, seg *segment.Seg) error) (uint64, error) {
	s := sw.srv
	sl, ov, data, err := s.FetchSeg(0, key)
	if err != nil {
		return 0, err
	}
	seg, err := segment.DecodeSlotted(sl)
	if err != nil {
		return 0, err
	}
	seg.Overflow, seg.Data = ov, data
	txid, err := s.NewTx()
	if err != nil {
		return 0, err
	}
	if err := s.Lock(sw.cl, txid, key, proto.LockX); err != nil {
		return 0, err
	}
	if err := change(txid, seg); err != nil {
		return 0, err
	}
	// The header ships with the checksums it was fetched with, as a session
	// ships it (EncodeSlots): the server computes what lands on disk.
	img := []proto.SegImage{{Seg: key, Slotted: seg.EncodeSlots(), Overflow: seg.Overflow, Data: seg.Data}}
	typ := wal.TCommit
	if prepare {
		typ = wal.TPrepare
	}
	return txid, sw.ack(txid, typ, s.Publish(sw.cl, txid, nil, img, prepare))
}

// ack records that the server acknowledged typ of txid, unless err.
func (sw *srvWorld) ack(txid uint64, typ wal.Type, err error) error {
	if err == nil {
		sw.acked[txid] = typ
	}
	return err
}

// put ships body as the object at slot 0 of the i-th segment, to commit or,
// with prepare set, to vote yes.
func (sw *srvWorld) put(i int, body []byte, prepare bool) (uint64, error) {
	o := sw.objs[i]
	return sw.ship(sw.keys[i], prepare, func(txid uint64, seg *segment.Seg) error {
		o.writes = append(o.writes, objWrite{txid, body})
		if seg.Live(0) {
			return seg.ResizeObject(0, body)
		}
		_, err := seg.CreateObject(0, body)
		return err
	})
}

func (sw *srvWorld) close() {
	if sw.srv != nil {
		_ = sw.srv.Close()
	}
}

// --- the server history as a crash workload ---
//
// srvWorkload kills the history's server at every device event after its
// database exists, restarts a server on what survived, and holds it to the
// object-level model: (1) every acknowledged commit and yes vote is durable;
// (2) every object reads back byte-exact (FetchSeg, FetchLarge, ReadRun) as
// its last durable commit left it, and one with none reads as nothing; (3) a
// branch whose prepare survived is in doubt, and its coordinator's commit
// (every mode but torn) or abort then holds; (4) a published segment exists
// exactly when its add-segment record survived, which its durable publishing
// commit implies, and without that commit it exists empty; (5) with one new
// segment of every geometry the history allocated, over whatever runs restart
// left free, every object still reads back as (2) says; (6) ScrubOnce finds
// no corruption; (7) a second restart changes no byte of any device.
func srvWorkload(seed int64) (trial, error) {
	sw, err := srvOpen(crashWorld(seed))
	if err != nil {
		sw.close()
		return nil, err
	}
	sw.rawRun = true
	return sw, nil
}

func (sw *srvWorld) run()          { _ = sw.history() }
func (sw *srvWorld) world() *World { return sw.World }
func (sw *srvWorld) tally() (int64, int64, int, int64) {
	return sw.setup, 0, len(sw.acked), int64(sw.srv.Log().NextLSN())
}

func (sw *srvWorld) check(commit bool) (int, error) {
	sw.close() // a dead process's: what it does now is lost
	r := sw.World.reboot()
	s, err := server.OpenMedia(r.media(), 1)
	if err != nil {
		return 0, fmt.Errorf("restart: %w", err)
	}
	defer func() { _ = s.Close() }()
	decided, err := decisions(s.Log(), sw.acked)
	if err != nil {
		return 0, err
	}
	won := func(tx uint64) bool { return decided[tx] == wal.TCommit }
	end := wal.TAbort
	if commit {
		end = wal.TCommit
	}
	logged, err := cataloged(s.Log())
	if err != nil {
		return 0, err
	}
	if err := sw.published.hold(s, won, logged); err != nil {
		return 0, err
	}
	for round := range 3 { // every object right after restart, after the decisions, and after new segments
		if round == 2 {
			for _, g := range sw.geoms {
				if _, err := s.CreateSegment(0, 0, sw.db, 9, g[0], g[1], -1); err != nil {
					return 0, fmt.Errorf("a segment of %d+%d pages after restart: %w", g[0], g[1], err)
				}
			}
		}
		for _, o := range sw.objs {
			if round == 2 && o.run != (proto.SegKey{}) && !logged[o.run] {
				continue // its allocation is lost with its commit: the new segments may take the run
			}
			if err := o.holds(s, won); err != nil {
				return 0, fmt.Errorf("restart (round %d): %w", round, err)
			}
		}
		for tx, typ := range decided {
			if typ == wal.TPrepare {
				decided[tx] = end
				if err := s.Decide(tx, commit); err != nil {
					return 0, fmt.Errorf("decision of branch %d: %w", tx, err)
				}
			}
		}
	}
	if st, err := s.ScrubOnce(); err != nil || st.CorruptionsFound != 0 {
		return 0, fmt.Errorf("scrub after restart: %d corruptions, %v", st.CorruptionsFound, err)
	}
	if err := s.Close(); err != nil {
		return 0, fmt.Errorf("close after restart: %w", err)
	}
	again := r.reboot()
	s2, err := server.OpenMedia(again.media(), 1)
	if err != nil {
		return 0, fmt.Errorf("second restart: %w", err)
	}
	defer func() { _ = s2.Close() }()
	if !again.same(r) {
		return 0, fmt.Errorf("a second restart changed the devices")
	}
	return 0, nil
}

// cataloged returns the segments and runs whose add-segment and add-run
// records are in l.
func cataloged(l *wal.Log) (map[proto.SegKey]bool, error) {
	added := make(map[proto.SegKey]bool)
	if err := l.Iterate(wal.FirstLSN(), func(_ page.LSN, rec *wal.Record) error {
		op := new(proto.CatalogOp)
		if rec.Type == wal.TCatalog && proto.Decode(rec.Body, op) == nil &&
			(op.Kind == proto.CatAddSegment || op.Kind == proto.CatAddRun) {
			added[op.Seg] = true
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("scan the surviving log: %w", err)
	}
	return added, nil
}

// pubSegs are the segments the history published.
type pubSegs []pubSeg

// hold checks the published segments on a restarted server s, where won says
// which transactions' commits survived: a segment exists exactly when its
// add-segment record is in the log, its publishing commit surviving implies
// that, and one that exists without it is empty — the formatted segment
// restart rebuilds from the record alone. added holds the segments whose
// record is in the log (cataloged).
func (ps pubSegs) hold(s *server.Server, won func(tx uint64) bool, added map[proto.SegKey]bool) error {
	for _, p := range ps {
		sl, _, _, err := s.FetchSeg(0, p.key)
		exists := err == nil
		switch {
		case exists != added[p.key]:
			return fmt.Errorf("published segment %v: exists %v (%v), its add-segment record durable %v", p.key, exists, err, added[p.key])
		case won(p.tx) && !exists:
			return fmt.Errorf("published segment %v: its commit %d survived, the segment did not", p.key, p.tx)
		case exists && !won(p.tx):
			dec, err := segment.DecodeSlotted(sl)
			if err != nil || len(dec.LiveSlots()) > 0 {
				return fmt.Errorf("published segment %v: its add-segment record survived its commit %d, and it is not empty (%v)", p.key, p.tx, err)
			}
		}
	}
	return nil
}
