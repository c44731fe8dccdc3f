package server

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"bess/internal/lockcheck"
	"bess/internal/names"
	"bess/internal/oid"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/wal"
)

// segMeta is the catalog's record of one object segment.
type segMeta struct {
	Seg          proto.SegKey
	FileID       uint32
	SlottedPages int
}

// dbMeta is the catalog's record of one database. Segments never leave the
// catalog.
type dbMeta struct {
	ID       uint32
	Name     string
	Areas    []uint32                  // storage areas, in attach order
	Segments map[proto.SegKey]*segMeta // every segment, by key
	Files    map[uint32][]proto.SegKey // every segment, by file, in creation order
	NextFile uint32
	Types    []proto.TypeInfo
	Names    *names.Directory // root objects
}

// catalog is the server's metadata: databases, their areas, object segments,
// type descriptors, and root-object directories.
//
// Every change to it is a proto.CatalogOp. The live path appends the op to
// the write-ahead log as a redo-only wal.TCatalog record and applies it
// (change); restart decodes the ops the log holds and applies them (replay).
// Both end in apply, the only code that mutates a catalog, so what restart
// rebuilds is what the live server had, and the log — BeSS's one recovery
// mechanism (paper §3) — is the catalog's only durable form.
type catalog struct {
	mu  lockcheck.Mutex
	log *wal.Log

	NextDB uint32 // guarded by mu
	// NextArea is global: area ids are unique per server.
	NextArea uint32             // guarded by mu
	Created  []*dbMeta          // guarded by mu; every database, in creation order
	DBs      map[string]*dbMeta // guarded by mu; Created by name
	ByID     map[uint32]*dbMeta // guarded by mu; Created by id

	replayed int // guarded by mu; ops restart applied
}

func newCatalog(log *wal.Log) *catalog {
	c := &catalog{
		log:    log,
		NextDB: 1, NextArea: 1,
		DBs:  make(map[string]*dbMeta),
		ByID: make(map[uint32]*dbMeta),
	}
	c.mu.Init("catalog.mu", rankCatalog)
	return c
}

// ErrCatalogCorrupt reports a catalog record in the log that does not decode,
// or does not apply to the catalog the records before it built.
var ErrCatalogCorrupt = errors.New("server: catalog record is corrupt")

// replay rebuilds the catalog from the log: it applies every catalog record,
// in log order, and returns the add-segment and add-run ops with their LSNs,
// for open to re-establish the storage they name. It finds the records in restart's one
// pass over the log (wal.Analyze), whose analysis it returns for the pages
// and the transactions (tx.Restart).
func (c *catalog) replay() (*wal.Analysis, []loggedOp, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var (
		segs []loggedOp
		n    int
	)
	an, err := wal.Analyze(c.log, func(lsn page.LSN, rec *wal.Record) error {
		if rec.Type != wal.TCatalog {
			return nil
		}
		// Decode copies what it keeps: rec is only lent.
		op := new(proto.CatalogOp)
		err := proto.Decode(rec.Body, op)
		if err == nil {
			err = c.apply(op)
		}
		if err != nil {
			return fmt.Errorf("%w: at lsn %d: %v", ErrCatalogCorrupt, lsn, err)
		}
		n++
		if op.Kind == proto.CatAddSegment || op.Kind == proto.CatAddRun {
			segs = append(segs, loggedOp{op, lsn})
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	c.replayed = n
	return an, segs, nil
}

// loggedOp is a catalog op with the LSN of its record.
type loggedOp struct {
	*proto.CatalogOp
	lsn page.LSN
}

// change is the live path of every catalog change: op's record is appended
// to the log, effect (if any) runs — storage work the op names — and op is
// applied. The caller holds mu throughout, so the log holds the ops in the
// order they were applied and a reader sees an op either not at all or
// complete. The caller has checked that op applies. The record is buffered:
// durable with the next log force, which the callers that promise durability
// in their reply make themselves, outside mu, with the LSN returned.
//
// The LSN is returned with an error too, once the record is in the log: a
// failed effect leaves the op logged but not applied, restart will apply it,
// and the caller must leave behind what the op's redo expects.
func (c *catalog) change(op *proto.CatalogOp, effect func() error) (page.LSN, error) {
	lsn, err := c.record(op, effect)
	if err != nil {
		return lsn, err
	}
	return lsn, c.apply(op)
}

// record is change but for the apply, which the caller makes later: a
// published segment is logged with its transaction's images and enters the
// catalog when the transaction ends (Server.reveal). No op a record leaves
// unapplied is one another op depends on.
func (c *catalog) record(op *proto.CatalogOp, effect func() error) (page.LSN, error) {
	c.mu.AssertHeld()
	body, err := proto.Encode(op)
	if err != nil {
		return 0, err
	}
	lsn, err := c.log.Append(&wal.Record{Type: wal.TCatalog, Body: body})
	if err != nil {
		return 0, err
	}
	if effect != nil {
		if err := effect(); err != nil {
			return lsn, err
		}
	}
	return lsn, nil
}

// apply makes the change op describes to the in-memory catalog. An error
// means op does not fit this catalog — at restart, that the log's catalog
// records disagree — and leaves the catalog as it was.
func (c *catalog) apply(op *proto.CatalogOp) error {
	c.mu.AssertHeld()
	m := c.ByID[op.DB]
	if m == nil && op.Kind != proto.CatCreateDB {
		return fmt.Errorf("%s names database %d, which the catalog does not have", op.Kind, op.DB)
	}
	switch op.Kind {
	case proto.CatCreateDB:
		if m != nil || c.DBs[op.Name] != nil {
			return fmt.Errorf("database %d %q exists", op.DB, op.Name)
		}
		m = &dbMeta{ID: op.DB, Name: op.Name, NextFile: 1, Names: names.New(),
			Segments: make(map[proto.SegKey]*segMeta), Files: make(map[uint32][]proto.SegKey)}
		c.NextDB = max(c.NextDB, op.DB+1)
		c.Created = append(c.Created, m)
		c.DBs[m.Name], c.ByID[m.ID] = m, m
	case proto.CatAddArea:
		m.Areas = append(m.Areas, op.ID)
		c.NextArea = max(c.NextArea, op.ID+1)
	case proto.CatNewFile:
		m.NextFile = max(m.NextFile, op.ID+1)
	case proto.CatRegisterType:
		m.Types = append(m.Types, op.Type)
		sort.Slice(m.Types, func(i, j int) bool { return m.Types[i].ID < m.Types[j].ID })
	case proto.CatAddSegment:
		if m.Segments[op.Seg] != nil {
			return fmt.Errorf("segment %d/%d exists", op.Seg.Area, op.Seg.Start)
		}
		sm := &segMeta{Seg: op.Seg, FileID: op.FileID, SlottedPages: op.SlottedPages}
		m.Segments[sm.Seg] = sm
		m.Files[sm.FileID] = append(m.Files[sm.FileID], sm.Seg)
	case proto.CatNameBind:
		return m.Names.Bind(op.Name, op.OID)
	case proto.CatNameUnbind:
		return m.Names.Unbind(op.Name)
	case proto.CatNameRemove:
		m.Names.ObjectRemoved(op.OID)
	case proto.CatAddRun:
		// Storage only: restart re-establishes the run (Server.restart).
	default:
		return fmt.Errorf("catalog op of unknown kind %d", op.Kind)
	}
	return nil
}

// createDB logs and applies the creation of database name.
func (c *catalog) createDB(name string) (*dbMeta, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.DBs[name]; dup {
		return nil, fmt.Errorf("server: database %q exists", name)
	}
	op := &proto.CatalogOp{Kind: proto.CatCreateDB, DB: c.NextDB, Name: name}
	if _, err := c.change(op, nil); err != nil {
		return nil, err
	}
	return c.ByID[op.DB], nil
}

func (c *catalog) db(id uint32) (*dbMeta, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.ByID[id]
	if m == nil {
		return nil, fmt.Errorf("server: no database %d", id)
	}
	return m, nil
}

func (c *catalog) dbByName(name string) (*dbMeta, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.DBs[name]
	return m, ok
}

// newFileID hands out db's next file id.
func (c *catalog) newFileID(db *dbMeta) (uint32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	op := &proto.CatalogOp{Kind: proto.CatNewFile, DB: db.ID, ID: db.NextFile}
	_, err := c.change(op, nil)
	return op.ID, err
}

// segmentsOf lists the segments of a file, in creation order.
func (c *catalog) segmentsOf(db *dbMeta, fileID uint32) []proto.SegKey {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]proto.SegKey(nil), db.Files[fileID]...)
}

// resolve finds the segment whose slotted range covers (area, byteOff).
func (c *catalog) resolve(db *dbMeta, areaID uint32, byteOff uint64) (proto.SegKey, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	const pageSize = 4096
	for key, sm := range db.Segments {
		if key.Area != areaID {
			continue
		}
		start := uint64(key.Start) * pageSize
		end := start + uint64(sm.SlottedPages)*pageSize
		if byteOff >= start && byteOff < end {
			return key, true
		}
	}
	return proto.SegKey{}, false
}

// segMetaOf fetches the catalog record of seg across all databases.
func (c *catalog) segMetaOf(seg proto.SegKey) (*segMeta, *dbMeta, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.ByID {
		if sm, ok := m.Segments[seg]; ok {
			return sm, m, true
		}
	}
	return nil, nil, false
}

// registerType adds (or finds) a type descriptor for db. A type that was
// added is durable when registerType returns.
func (c *catalog) registerType(db *dbMeta, t proto.TypeInfo) (proto.TypeInfo, error) {
	t, lsn, err := c.addType(db, t)
	if err != nil || lsn == 0 {
		return t, err
	}
	return t, c.log.Flush(lsn)
}

// addType is registerType up to the force; lsn is 0 for a type db had.
func (c *catalog) addType(db *dbMeta, t proto.TypeInfo) (_ proto.TypeInfo, lsn page.LSN, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	maxID := uint32(0)
	for _, have := range db.Types {
		if have.Name == t.Name {
			if have.Size != t.Size || len(have.RefOffsets) != len(t.RefOffsets) {
				return proto.TypeInfo{}, 0, fmt.Errorf("server: type %q layout conflict", t.Name)
			}
			for i := range have.RefOffsets {
				if have.RefOffsets[i] != t.RefOffsets[i] {
					return proto.TypeInfo{}, 0, fmt.Errorf("server: type %q offsets conflict", t.Name)
				}
			}
			return have, 0, nil
		}
		maxID = max(maxID, have.ID)
	}
	t.ID = maxID + 1
	lsn, err = c.change(&proto.CatalogOp{Kind: proto.CatRegisterType, DB: db.ID, Type: t}, nil)
	return t, lsn, err
}

// types lists db's registered types.
func (c *catalog) types(db *dbMeta) []proto.TypeInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]proto.TypeInfo(nil), db.Types...)
}

// changeNames logs and applies one of the name ops on db's directory once
// check, which sees the directory as the op will find it, passes; a nil op
// from check means there is nothing to change. The change is durable when
// changeNames returns.
func (c *catalog) changeNames(db *dbMeta, check func(*names.Directory) (*proto.CatalogOp, error)) error {
	lsn, err := func() (page.LSN, error) {
		c.mu.Lock()
		defer c.mu.Unlock()
		op, err := check(db.Names)
		if err != nil || op == nil {
			return 0, err
		}
		op.DB = db.ID
		return c.change(op, nil)
	}()
	if err != nil || lsn == 0 {
		return err
	}
	return c.log.Flush(lsn)
}

func (c *catalog) nameBind(db *dbMeta, name string, o oid.OID) error {
	return c.changeNames(db, func(d *names.Directory) (*proto.CatalogOp, error) {
		return &proto.CatalogOp{Kind: proto.CatNameBind, Name: name, OID: o}, d.CanBind(name, o)
	})
}

func (c *catalog) nameUnbind(db *dbMeta, name string) error {
	return c.changeNames(db, func(d *names.Directory) (*proto.CatalogOp, error) {
		_, err := d.Lookup(name)
		return &proto.CatalogOp{Kind: proto.CatNameUnbind, Name: name}, err
	})
}

// nameRemoveOID drops the name bound to o, if there is one.
func (c *catalog) nameRemoveOID(db *dbMeta, o oid.OID) error {
	return c.changeNames(db, func(d *names.Directory) (*proto.CatalogOp, error) {
		if _, bound := d.NameOf(o); !bound {
			return nil, nil
		}
		return &proto.CatalogOp{Kind: proto.CatNameRemove, OID: o}, nil
	})
}

// dbOfAreaLocked returns the id of the database area aid belongs to, 0 if
// none. The caller holds mu.
func (c *catalog) dbOfAreaLocked(aid uint32) uint32 {
	c.mu.AssertHeld()
	for _, m := range c.Created {
		if slices.Contains(m.Areas, aid) {
			return m.ID
		}
	}
	return 0
}

// areaIDs lists every attached area id across databases (startup).
func (c *catalog) areaIDs() []uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []uint32
	for _, m := range c.Created {
		out = append(out, m.Areas...)
	}
	return out
}

// allSegMetas snapshots every cataloged segment across databases, in a
// stable (area, start) order — the scrub walker's work list.
func (c *catalog) allSegMetas() []*segMeta {
	c.mu.Lock()
	var out []*segMeta
	for _, m := range c.ByID {
		for _, sm := range m.Segments {
			out = append(out, sm)
		}
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seg.Area != out[j].Seg.Area {
			return out[i].Seg.Area < out[j].Seg.Area
		}
		return out[i].Seg.Start < out[j].Seg.Start
	})
	return out
}
