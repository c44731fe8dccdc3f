package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
// catalog, so the list of them in creation order is the whole record;
// Segments and Files index it.
type dbMeta struct {
	ID       uint32
	Name     string
	Areas    []uint32                  // storage areas, in attach order
	Created  []*segMeta                // every segment, in creation order
	Segments map[proto.SegKey]*segMeta // Created by key
	Files    map[uint32][]proto.SegKey // Created by file, order kept
	NextFile uint32
	Types    []proto.TypeInfo
	NamesEnc []byte // encoded names.Directory, as of the last image
}

// catalog is the server's metadata: databases, their areas, object segments,
// type descriptors, and root-object directories.
//
// Every change to it is a proto.CatalogOp. The live path appends the op to
// the write-ahead log as a redo-only wal.TCatalog record and applies it
// (change); restart decodes the ops the log holds and applies them (replay).
// Both end in apply, the only code that mutates a catalog, so what restart
// rebuilds is what the live server had, and the log — BeSS's one recovery
// mechanism (paper §3) — is where the catalog is durable. catalog.bess is a
// checkpoint image: a snapshot stamped with the LSN below which every op is
// already in it, written by Server.Checkpoint and Server.Close so that
// restart replays a suffix of the log rather than all of it.
type catalog struct {
	mu   lockcheck.Mutex
	path string   // the image file; "" = memory only: ops are logged, no image is written
	log  *wal.Log // set by open, before the catalog is shared

	// LSN stamps the image on disk (0 = there is none): every op below it is
	// in that image, restart replays the ops at or above it. Fields encodes it.
	LSN    page.LSN // guarded by mu
	NextDB uint32   // guarded by mu
	// NextArea is global: area ids are unique per server.
	NextArea uint32             // guarded by mu
	Created  []*dbMeta          // guarded by mu; every database, in creation order
	DBs      map[string]*dbMeta // guarded by mu; Created by name
	ByID     map[uint32]*dbMeta // guarded by mu; Created by id

	// decoded name directories, lazily materialized from NamesEnc
	dirs map[uint32]*names.Directory // guarded by mu

	applied  page.LSN // guarded by mu; LSN of the last op applied, 0 = none since open
	replayed int      // guarded by mu; ops restart applied on top of the image
}

func newCatalog(path string) *catalog {
	c := &catalog{
		path:   path,
		NextDB: 1, NextArea: 1,
		DBs:  make(map[string]*dbMeta),
		ByID: make(map[uint32]*dbMeta),
		dirs: make(map[uint32]*names.Directory),
	}
	c.mu.Init("catalog.mu", rankCatalog)
	return c
}

// The image file is the catalog message below in the proto codec followed by
// a CRC-32C of those bytes. Only lists are written, each in creation order,
// so the same DDL sequence always produces the same catalog bytes. Version 2
// added the stamp; version 1 was the write-through catalog of the builds that
// rewrote the file on every change.
const (
	catalogMagic   uint32 = 0xBE55CA7A
	catalogVersion uint16 = 2
)

// ErrCatalogCorrupt reports a catalog image that fails its checksum or does
// not parse, or a catalog record in the log that does not apply to it;
// ErrCatalogOldFormat a data directory whose catalog was written by a build
// this one cannot read — gob, or the version-1 write-through file (no
// migration path: recreate the directory).
var (
	ErrCatalogCorrupt   = errors.New("server: catalog file is corrupt")
	ErrCatalogOldFormat = errors.New("server: the catalog was written by an older build; this build cannot read it")
)

// Fields is the image file's layout.
func (c *catalog) Fields(w *proto.Cursor) {
	c.mu.AssertHeld()
	magic, version := catalogMagic, catalogVersion
	w.U32(&magic)
	w.U16(&version)
	if magic != catalogMagic || version != catalogVersion {
		w.Failf("catalog magic %#08x version %d", magic, version)
	}
	w.U64((*uint64)(&c.LSN))
	w.U32(&c.NextDB)
	w.U32(&c.NextArea)
	dbs := proto.Repeat(w, &c.Created, dbMetaMin)
	for i := range dbs {
		if dbs[i] == nil { // decoding
			dbs[i] = new(dbMeta)
		}
		dbs[i].Fields(w)
	}
}

// dbMetaMin is the least a dbMeta occupies: its two words and the length or
// count of its five variable parts.
const dbMetaMin = 7 * 4

func (m *dbMeta) Fields(w *proto.Cursor) {
	w.U32(&m.ID)
	w.String(&m.Name)
	areas := proto.Repeat(w, &m.Areas, 4)
	for i := range areas {
		w.U32(&areas[i])
	}
	segs := proto.Repeat(w, &m.Created, 12+4+4)
	for i := range segs {
		if segs[i] == nil { // decoding
			segs[i] = new(segMeta)
		}
		w.SegKey(&segs[i].Seg)
		w.U32(&segs[i].FileID)
		w.Count(&segs[i].SlottedPages)
	}
	w.U32(&m.NextFile)
	types := proto.Repeat(w, &m.Types, proto.TypeInfoMin)
	for i := range types {
		types[i].Fields(w)
	}
	w.Section(&m.NamesEnc)
}

// index enters m, whose Created list is complete, into the catalog's maps
// and builds its own.
func (c *catalog) index(m *dbMeta) {
	c.mu.AssertHeld()
	c.DBs[m.Name], c.ByID[m.ID] = m, m
	m.Segments = make(map[proto.SegKey]*segMeta, len(m.Created))
	m.Files = make(map[uint32][]proto.SegKey)
	for _, sm := range m.Created {
		m.add(sm)
	}
}

// add indexes one segment of m.Created.
func (m *dbMeta) add(sm *segMeta) {
	m.Segments[sm.Seg] = sm
	m.Files[sm.FileID] = append(m.Files[sm.FileID], sm.Seg)
}

// loadCatalog reads the catalog image of a server directory; a directory
// without one gets an empty catalog, which replay then fills from the start
// of the log. A leftover catalog.bess.tmp — an image whose write a crash cut
// short — is removed. The returned value is not yet shared; c.mu is taken
// around the decode only because the codec and index assert it.
//
//bess:prepublish
func loadCatalog(dir string) (*catalog, error) {
	if _, err := os.Stat(filepath.Join(dir, "catalog.gob")); err == nil {
		return nil, fmt.Errorf("%w: catalog.gob", ErrCatalogOldFormat)
	}
	c := newCatalog(filepath.Join(dir, "catalog.bess"))
	if err := os.Remove(c.path + ".tmp"); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	b, err := os.ReadFile(c.path)
	if os.IsNotExist(err) {
		return c, nil
	}
	if err != nil {
		return nil, err
	}
	body := len(b) - 4
	if body < 0 || binary.BigEndian.Uint32(b[body:]) != page.Checksum(b[:body]) {
		return nil, fmt.Errorf("%w: %s: checksum mismatch", ErrCatalogCorrupt, c.path)
	}
	if body >= 6 && binary.BigEndian.Uint32(b) == catalogMagic && binary.BigEndian.Uint16(b[4:]) == 1 {
		return nil, fmt.Errorf("%w: %s is a version 1 file", ErrCatalogOldFormat, c.path)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := proto.Decode(b[:body], c); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCatalogCorrupt, c.path, err)
	}
	for _, m := range c.Created {
		c.index(m)
	}
	return c, nil
}

// replay applies, in log order, every catalog record at or above the image's
// stamp and returns the ops with their LSNs, for open to re-establish the
// storage they name. It finds them in restart's one pass over the log
// (wal.Analyze), whose analysis it returns for the pages and the transactions
// (tx.Restart). updated collects the last record of every page the same
// stretch of log changed — a page change only where it takes effect
// (wal.Replayer): redo of an add-segment op must not re-format a page the log
// has changed since (Server.redoSegment).
func (c *catalog) replay(updated map[page.ID]page.LSN) (*wal.Analysis, []loggedOp, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	stamp, end := c.LSN, c.log.NextLSN()
	if stamp > end {
		return nil, nil, fmt.Errorf("%w: the image is stamped %d but the log ends at %d", ErrCatalogCorrupt, stamp, end)
	}
	var ops []loggedOp
	atStamp := false
	changed := wal.NewReplayer(func(lsn page.LSN, c *wal.Change, _ wal.Logged) error {
		updated[c.Page] = max(updated[c.Page], lsn)
		return nil
	})
	an, err := wal.Analyze(c.log, func(lsn page.LSN, rec *wal.Record) error {
		if lsn < stamp {
			return nil
		}
		atStamp = atStamp || lsn == stamp
		if rec.Type != wal.TCatalog {
			return changed.Add(lsn, rec)
		}
		op := new(proto.CatalogOp)
		if err := proto.Decode(rec.Body, op); err != nil {
			return fmt.Errorf("%w: catalog record at lsn %d: %v", ErrCatalogCorrupt, lsn, err)
		}
		ops = append(ops, loggedOp{op, lsn})
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if !atStamp && stamp > 0 && stamp < end {
		return nil, nil, fmt.Errorf("%w: no log record starts at the image's stamp %d", ErrCatalogCorrupt, stamp)
	}
	for _, op := range ops {
		if err := c.apply(op.CatalogOp, op.lsn); err != nil {
			return nil, nil, fmt.Errorf("%w: catalog record at lsn %d: %v", ErrCatalogCorrupt, op.lsn, err)
		}
	}
	c.replayed = len(ops)
	return an, ops, nil
}

// loggedOp is a catalog op with the LSN of its record.
type loggedOp struct {
	*proto.CatalogOp
	lsn page.LSN
}

// change is the live path of every catalog change: op's record is appended
// to the log, effect (if any) runs — storage work that an image containing
// the op must find done — and op is applied. The caller holds mu throughout,
// so the log holds the ops in the order they were applied and a snapshot
// sees an op either not at all or complete. The caller has checked that op
// applies. The record is buffered: durable with the next log force, which the
// callers that promise durability in their reply make themselves, outside mu,
// with the LSN returned.
//
// The LSN is returned with an error too, once the record is in the log: a
// failed effect leaves the op logged but not applied, restart will apply it,
// and the caller must leave behind what the op's redo expects.
func (c *catalog) change(op *proto.CatalogOp, effect func() error) (page.LSN, error) {
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
	return lsn, c.apply(op, lsn)
}

// apply makes the change op describes, logged at lsn, to the in-memory
// catalog. An error means op does not fit this catalog — at restart, that the
// image and the log disagree — and leaves the catalog as it was.
func (c *catalog) apply(op *proto.CatalogOp, lsn page.LSN) error {
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
		m = &dbMeta{ID: op.DB, Name: op.Name, NextFile: 1}
		c.NextDB = max(c.NextDB, op.DB+1)
		c.Created = append(c.Created, m)
		c.index(m)
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
		m.Created = append(m.Created, sm)
		m.add(sm)
	case proto.CatNameBind, proto.CatNameUnbind, proto.CatNameRemove:
		d, err := c.namesDirLocked(m)
		if err != nil {
			return err
		}
		switch op.Kind {
		case proto.CatNameBind:
			err = d.Bind(op.Name, op.OID)
		case proto.CatNameUnbind:
			err = d.Unbind(op.Name)
		default:
			d.ObjectRemoved(op.OID)
		}
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("catalog op of unknown kind %d", op.Kind)
	}
	c.applied = lsn
	return nil
}

// snapshot encodes the catalog as the bytes of an image file stamped with the
// LSN the next log record will get: every op below the stamp is in the image
// (ops are appended and applied under mu), every later one will be at or
// above it. It returns nil when there is nothing to write: the catalog is
// memory-only, or no op was applied since the image on disk was taken —
// unless always is set, which re-stamps an unchanged catalog so that the next
// restart has no log to read past it.
func (c *catalog) snapshot(always bool) ([]byte, page.LSN, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.path == "" {
		return nil, 0, nil
	}
	onDisk, stamp := c.LSN, c.log.NextLSN()
	changed := c.applied != 0 && c.applied >= onDisk
	if !changed && !(always && stamp > onDisk) {
		return nil, 0, nil
	}
	// Serialize live directories back into their blobs first.
	for id, d := range c.dirs {
		if d.Dirty() {
			c.ByID[id].NamesEnc = d.Encode()
		}
	}
	// Fields writes c.LSN; it stays the stamp of the image on disk until
	// writeImage has replaced that image.
	c.LSN = stamp
	b, err := proto.Encode(c)
	c.LSN = onDisk
	if err != nil {
		return nil, 0, err
	}
	return binary.BigEndian.AppendUint32(b, page.Checksum(b)), stamp, nil
}

// writeImage replaces the image file with img, a snapshot stamped stamp. The
// log goes first: an image ahead of the durable log would, after a crash, sit
// above records yet to be written, and restart would skip them. The bytes are
// then synced under a temporary name and renamed into place, so a crash leaves
// the old image or the new one (and perhaps a .tmp for loadCatalog to remove).
// Server.saveCatalog, the only caller, syncs the areas before it calls.
func (c *catalog) writeImage(img []byte, stamp page.LSN) error {
	if err := c.log.Flush(0); err != nil {
		return err
	}
	tmp := c.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err = f.Write(img); err == nil {
		err = f.Sync()
	}
	if err != nil {
		err = errors.Join(err, f.Close())
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, c.path); err != nil {
		return err
	}
	c.mu.Lock()
	c.LSN = stamp
	c.mu.Unlock()
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

// namesDir returns db's root-object directory, decoding it on first use.
func (c *catalog) namesDir(db *dbMeta) (*names.Directory, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.namesDirLocked(db)
}

func (c *catalog) namesDirLocked(db *dbMeta) (*names.Directory, error) {
	c.mu.AssertHeld()
	if d, ok := c.dirs[db.ID]; ok {
		return d, nil
	}
	var d *names.Directory
	if len(db.NamesEnc) > 0 {
		var err error
		d, err = names.Decode(db.NamesEnc)
		if err != nil {
			return nil, err
		}
	} else {
		d = names.New()
	}
	c.dirs[db.ID] = d
	return d, nil
}

// changeNames logs and applies one of the name ops on db's directory once
// check, which sees the directory as the op will find it, passes; a nil op
// from check means there is nothing to change. The change is durable when
// changeNames returns.
func (c *catalog) changeNames(db *dbMeta, check func(*names.Directory) (*proto.CatalogOp, error)) error {
	lsn, err := func() (page.LSN, error) {
		c.mu.Lock()
		defer c.mu.Unlock()
		d, err := c.namesDirLocked(db)
		if err != nil {
			return 0, err
		}
		op, err := check(d)
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
