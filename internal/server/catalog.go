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
	"bess/internal/page"
	"bess/internal/proto"
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
	NamesEnc []byte // encoded names.Directory
}

// catalog is the server's persistent metadata: databases, their areas,
// object segments, type descriptors, and root-object directories. It is
// written through to disk (when file-backed) before any dependent data is
// used.
type catalog struct {
	mu     lockcheck.Mutex
	path   string // "" = memory only
	NextDB uint32 // guarded by mu
	// NextArea is global: area ids are unique per server.
	NextArea uint32             // guarded by mu
	Created  []*dbMeta          // guarded by mu; every database, in creation order
	DBs      map[string]*dbMeta // guarded by mu; Created by name
	ByID     map[uint32]*dbMeta // guarded by mu; Created by id

	// decoded name directories, lazily materialized from NamesEnc
	dirs map[uint32]*names.Directory // guarded by mu
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

// The catalog file is the catalog message below in the proto codec followed
// by a CRC-32C of those bytes. Only lists are written, each in creation
// order, so the same DDL sequence always produces the same file.
const (
	catalogMagic   uint32 = 0xBE55CA7A
	catalogVersion uint16 = 1
)

// ErrCatalogCorrupt reports a catalog file that fails its checksum or does
// not parse; ErrCatalogOldFormat a data directory whose catalog was written
// by a build that still used gob (no migration path: recreate the
// directory).
var (
	ErrCatalogCorrupt   = errors.New("server: catalog file is corrupt")
	ErrCatalogOldFormat = errors.New("server: catalog.gob was written by an older build; this build cannot read it")
)

// Fields is the catalog file's layout.
//
//bess:holds mu
func (c *catalog) Fields(w *proto.Cursor) {
	magic, version := catalogMagic, catalogVersion
	w.U32(&magic)
	w.U16(&version)
	if magic != catalogMagic || version != catalogVersion {
		w.Failf("catalog magic %#08x version %d", magic, version)
	}
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
//
//bess:holds mu
func (c *catalog) index(m *dbMeta) {
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

// loadCatalog reads the catalog of a server directory; a directory without
// one gets an empty catalog. The returned value is not yet shared, so
// fields are touched without c.mu.
//
//bess:prepublish
func loadCatalog(dir string) (*catalog, error) {
	if _, err := os.Stat(filepath.Join(dir, "catalog.gob")); err == nil {
		return nil, ErrCatalogOldFormat
	}
	c := newCatalog(filepath.Join(dir, "catalog.bess"))
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
	if err := proto.Decode(b[:body], c); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCatalogCorrupt, c.path, err)
	}
	for _, m := range c.Created {
		c.index(m)
	}
	return c, nil
}

// persistLocked writes the catalog through to disk. Called with c.mu held.
//
//bess:holds mu
func (c *catalog) persistLocked() error {
	// Serialize live directories back into their blobs first.
	for id, d := range c.dirs {
		if d.Dirty() {
			if m := c.ByID[id]; m != nil {
				m.NamesEnc = d.Encode()
			}
		}
	}
	if c.path == "" {
		return nil
	}
	b, err := proto.Encode(c)
	if err != nil {
		return err
	}
	b = binary.BigEndian.AppendUint32(b, page.Checksum(b))
	tmp := c.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err = f.Write(b); err == nil {
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
	return os.Rename(tmp, c.path)
}

func (c *catalog) createDB(name string) (*dbMeta, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.DBs[name]; dup {
		return nil, fmt.Errorf("server: database %q exists", name)
	}
	m := &dbMeta{ID: c.NextDB, Name: name, NextFile: 1}
	c.NextDB++
	c.Created = append(c.Created, m)
	c.index(m)
	return m, c.persistLocked()
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

// allocAreaID reserves the next area id and attaches it to db.
func (c *catalog) allocAreaID(db *dbMeta) (uint32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.NextArea
	c.NextArea++
	db.Areas = append(db.Areas, id)
	return id, c.persistLocked()
}

// addSegment records a new object segment.
func (c *catalog) addSegment(db *dbMeta, sm *segMeta) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	db.Created = append(db.Created, sm)
	db.add(sm)
	return c.persistLocked()
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

// registerType adds (or finds) a type descriptor for db.
func (c *catalog) registerType(db *dbMeta, t proto.TypeInfo) (proto.TypeInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, have := range db.Types {
		if have.Name == t.Name {
			if have.Size != t.Size || len(have.RefOffsets) != len(t.RefOffsets) {
				return proto.TypeInfo{}, fmt.Errorf("server: type %q layout conflict", t.Name)
			}
			for i := range have.RefOffsets {
				if have.RefOffsets[i] != t.RefOffsets[i] {
					return proto.TypeInfo{}, fmt.Errorf("server: type %q offsets conflict", t.Name)
				}
			}
			return have, nil
		}
	}
	// Assign the next id.
	maxID := uint32(0)
	for _, have := range db.Types {
		if have.ID > maxID {
			maxID = have.ID
		}
	}
	t.ID = maxID + 1
	db.Types = append(db.Types, t)
	sort.Slice(db.Types, func(i, j int) bool { return db.Types[i].ID < db.Types[j].ID })
	return t, c.persistLocked()
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

// persistNames writes a db's directory through.
func (c *catalog) persistNames() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.persistLocked()
}

// areaIDs lists every attached area id across databases (startup).
func (c *catalog) areaIDs() []uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []uint32
	for _, m := range c.ByID {
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
