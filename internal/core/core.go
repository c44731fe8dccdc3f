// Package core is the public BeSS storage-manager API — the layer a
// database implementor builds a relational, object-oriented, or home-grown
// DBMS on (paper §1). It wraps a client session with the paper's §2.5
// interface: databases holding BeSS files of clustered objects, implicit
// retrieval through typed references, explicit retrieval through OIDs
// (global references) and named root objects, multifiles spanning storage
// areas with parallel scans, and large objects.
//
// A Database talks to a BeSS server through any proto.Conn: a direct server
// handle (the open-server configuration), an RPC connection, or a node
// server.
package core

import (
	"errors"
	"fmt"
	"sync"

	"bess/internal/client"
	"bess/internal/goleak"
	"bess/internal/largeobj"
	"bess/internal/oid"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/segment"
	"bess/internal/swizzle"
	"bess/internal/vmem"
)

// Errors returned by the core API.
var (
	ErrNilRef = errors.New("core: nil reference")
)

// Segment geometry defaults for files.
const (
	defaultSlottedPages = 1
	defaultDataPages    = 8
)

// Database is an open BeSS database.
type Database struct {
	sess *client.Session

	mu    sync.Mutex
	files map[uint32]*File
}

// OpenDatabase opens (or creates) a database over conn.
func OpenDatabase(conn proto.Conn, appName, dbName string, create bool) (*Database, error) {
	sess, err := client.Open(conn, appName, dbName, create)
	if err != nil {
		return nil, err
	}
	return &Database{sess: sess, files: make(map[uint32]*File)}, nil
}

// Session exposes the underlying session (benchmarks, tools).
func (db *Database) Session() *client.Session { return db.sess }

// Begin starts a transaction.
func (db *Database) Begin() error { return db.sess.Begin() }

// Commit commits the current transaction.
func (db *Database) Commit() error { return db.sess.Commit() }

// Abort rolls the current transaction back.
func (db *Database) Abort() error { return db.sess.Abort() }

// Ref is a reference to a persistent object: the swizzled form is a virtual
// address of the object's header (slot), so dereference is direct — the
// ref<T> of §2.5 without the C++ operator sugar.
type Ref struct {
	addr vmem.Addr
	db   *Database
}

// NilRef is the null reference.
var NilRef = Ref{}

// IsNil reports whether r is null.
func (r Ref) IsNil() bool { return r.addr == vmem.NilAddr }

// Addr exposes the raw slot address (tools, benchmarks).
func (r Ref) Addr() vmem.Addr { return r.addr }

// GlobalRef is the explicit, OID-carrying reference (global_ref<T>):
// position-independent and valid across sessions, but slower to follow.
type GlobalRef struct {
	OID oid.OID
}

// Object is a dereferenced object handle.
type Object struct {
	obj *swizzle.Object
	db  *Database
}

// Deref follows a reference (implicit retrieval, §2.5).
func (db *Database) Deref(r Ref) (*Object, error) {
	if r.IsNil() {
		return nil, ErrNilRef
	}
	o, err := db.sess.Deref(r.addr)
	if err != nil {
		return nil, err
	}
	return &Object{obj: o, db: db}, nil
}

// DerefGlobal follows a global reference, validating its uniquifier.
func (db *Database) DerefGlobal(g GlobalRef) (*Object, error) {
	o, err := db.sess.DerefOID(g.OID)
	if err != nil {
		return nil, err
	}
	return &Object{obj: o, db: db}, nil
}

// GlobalRefOf converts a reference into its OID form.
func (db *Database) GlobalRefOf(r Ref) GlobalRef {
	return GlobalRef{OID: db.sess.OIDOf(r.addr)}
}

// Size returns the object's size in bytes.
func (o *Object) Size() int { return o.obj.Size }

// TypeID returns the object's type descriptor id.
func (o *Object) TypeID() segment.TypeID { return o.obj.Type }

// Read copies object bytes at off into buf (faults data in on demand).
func (o *Object) Read(off int, buf []byte) error { return o.obj.Read(off, buf) }

// Write updates object bytes in place; the first write to each page is
// detected through the VM protection and locks the segment exclusively.
func (o *Object) Write(off int, buf []byte) error { return o.obj.Write(off, buf) }

// Bytes returns the object's bytes (copy-free for small objects).
func (o *Object) Bytes() ([]byte, error) { return o.obj.Bytes() }

// Ref reads the reference field at byte offset off.
func (o *Object) Ref(off int) (Ref, error) {
	a, err := o.obj.RefField(off)
	if err != nil {
		return NilRef, err
	}
	return Ref{addr: a, db: o.db}, nil
}

// SetRef stores a reference at byte offset off.
func (o *Object) SetRef(off int, r Ref) error {
	return o.obj.SetRefField(off, r.addr)
}

// Self returns the reference to this object.
func (o *Object) Self() Ref {
	return Ref{addr: o.obj.Addr, db: o.db}
}

// Delete removes the object (and, for named root objects, its name).
func (o *Object) Delete() error { return o.db.sess.DeleteObject(o.obj.Addr) }

// --- type registration ---

// TypeDesc re-exports the type descriptor for API users.
type TypeDesc = segment.TypeDesc

// RegisterType registers (idempotently) a type with the database.
func (db *Database) RegisterType(td TypeDesc) (*TypeDesc, error) {
	return db.sess.RegisterType(td)
}

// --- files and multifiles ---

// File groups objects for clustering and scanning (§2). Objects created in
// the file land in its object segments; new segments are allocated when the
// current ones fill. A multifile's segments rotate over several storage
// areas, enabling parallel I/O.
type File struct {
	db           *Database
	id           uint32
	slottedPages int
	dataPages    int
	spread       int // number of areas to rotate over (1 = plain file)

	mu      sync.Mutex
	segs    []proto.SegKey
	created int // segments created by this handle (area rotation)
}

// FileOption customizes file creation.
type FileOption func(*File)

// WithGeometry sets the per-segment geometry (slotted pages, data pages).
func WithGeometry(slottedPages, dataPages int) FileOption {
	return func(f *File) {
		f.slottedPages = slottedPages
		f.dataPages = dataPages
	}
}

// AsMultifile spreads the file's segments over n storage areas ("they
// expand over multiple physical storage areas", §2). Additional areas are
// attached to the database as needed.
func AsMultifile(n int) FileOption {
	return func(f *File) {
		if n > 1 {
			f.spread = n
		}
	}
}

// CreateFile makes a new BeSS file and names it name (via the root
// directory, so it can be reopened).
func (db *Database) CreateFile(name string, opts ...FileOption) (*File, error) {
	id, err := db.sess.Conn().NewFileID(db.sess.DB())
	if err != nil {
		return nil, err
	}
	f := &File{db: db, id: id, slottedPages: defaultSlottedPages, dataPages: defaultDataPages, spread: 1}
	for _, o := range opts {
		o(f)
	}
	if f.spread > 1 {
		// Ensure enough areas exist for the rotation.
		for i := 1; i < f.spread; i++ {
			if _, err := db.sess.Conn().AddArea(db.sess.DB()); err != nil {
				return nil, err
			}
		}
	}
	if name != "" {
		fo := oid.OID{Host: 0xFFFF, DB: uint16(db.sess.DB()), Offset: uint64(id), Unique: uint16(f.spread)}
		if err := db.sess.Conn().NameBind(db.sess.DB(), "\x00file:"+name, fo); err != nil {
			return nil, err
		}
	}
	db.mu.Lock()
	db.files[id] = f
	db.mu.Unlock()
	return f, nil
}

// OpenFile reopens a named file.
func (db *Database) OpenFile(name string, opts ...FileOption) (*File, error) {
	fo, err := db.sess.Conn().NameLookup(db.sess.DB(), "\x00file:"+name)
	if err != nil {
		return nil, err
	}
	f := &File{
		db: db, id: uint32(fo.Offset),
		slottedPages: defaultSlottedPages, dataPages: defaultDataPages,
		spread: int(fo.Unique),
	}
	if f.spread < 1 {
		f.spread = 1
	}
	for _, o := range opts {
		o(f)
	}
	db.mu.Lock()
	db.files[f.id] = f
	db.mu.Unlock()
	return f, nil
}

// ID returns the file id.
func (f *File) ID() uint32 { return f.id }

// IsMultifile reports whether the file spreads over several areas.
func (f *File) IsMultifile() bool { return f.spread > 1 }

// segments refreshes and returns the file's segment list.
func (f *File) segments() ([]proto.SegKey, error) {
	segs, err := f.db.sess.SegmentsOf(f.id)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.segs = segs
	f.mu.Unlock()
	return segs, nil
}

// New creates an object of type td with the given bytes in this file,
// allocating a new object segment when the current ones are full. A
// segment's data part may grow to a few times its initial geometry; beyond
// that, clustering moves to a fresh segment (and, for multifiles, the next
// storage area).
func (f *File) New(td *TypeDesc, data []byte) (Ref, error) {
	segs, err := f.segments()
	if err != nil {
		return NilRef, err
	}
	// Try the most recent segment first, unless it has outgrown its
	// geometry.
	if len(segs) > 0 {
		newest := segs[len(segs)-1]
		if f.segmentHasRoom(newest) {
			addr, err := f.db.sess.CreateObject(newest, td.ID, data)
			if err == nil {
				return Ref{addr: addr, db: f.db}, nil
			}
			if !errors.Is(err, segment.ErrNoSlot) && !errors.Is(err, segment.ErrDataFull) {
				return NilRef, err
			}
		}
	}
	// Allocate a fresh segment, rotating areas for multifiles.
	f.mu.Lock()
	hint := -1
	if f.spread > 1 {
		hint = f.created % f.spread
	}
	f.created++
	f.mu.Unlock()
	seg, err := f.db.sess.CreateSegment(f.id, f.slottedPages, f.dataPages, hint)
	if err != nil {
		return NilRef, err
	}
	addr, err := f.db.sess.CreateObject(seg, td.ID, data)
	if err != nil {
		return NilRef, err
	}
	return Ref{addr: addr, db: f.db}, nil
}

// growCap bounds how many data pages a file segment may reach before New
// prefers a fresh segment.
func (f *File) growCap() int {
	c := 4 * f.dataPages
	if c < f.dataPages+1 {
		c = f.dataPages + 1
	}
	return c
}

// segmentHasRoom loads the newest segment's header and checks slot and
// data-growth headroom.
func (f *File) segmentHasRoom(key proto.SegKey) bool {
	id := swizzle.SegID{Area: page.AreaID(key.Area), Start: page.No(key.Start)}
	if err := f.db.sess.Mapper().EnsureLoaded(id); err != nil {
		return false
	}
	seg, ok := f.db.sess.Mapper().Seg(id)
	if !ok {
		return false
	}
	if seg.Hdr.NObjects >= seg.Hdr.NSlots {
		return false
	}
	return int(seg.Hdr.DataPages) < f.growCap()
}

// Scan visits every live object in the file through a cursor (§2). On an
// rpc connection the server pushes segment images ahead of the cursor, so a
// cold scan costs one round trip instead of two per segment (DESIGN.md §6);
// on a direct connection, which has no stream to push over, it pulls.
func (f *File) Scan(fn func(*Object) error) error {
	return f.db.sess.StreamScan(f.id, func(_ vmem.Addr, obj *swizzle.Object) error {
		return fn(&Object{obj: obj, db: f.db})
	})
}

// StreamScanFiles streams several files' scans in parallel, one session —
// and therefore one independent push pipeline — per file: the multifile
// parallel-scan configuration of §10. open returns a fresh connection for
// scan i; fn must be safe for concurrent use.
func StreamScanFiles(open func(i int) (proto.Conn, error), dbName string, files []uint32, fn func(file uint32, typ segment.TypeID, data []byte) error) error {
	errs := make([]error, len(files))
	var workers goleak.Group
	for i, fileID := range files {
		workers.Go("core.streamScan", func(<-chan struct{}) {
			conn, err := open(i)
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = scanWorker(conn, fmt.Sprintf("stream-scan-%d", i), dbName, func(sess *client.Session) error {
				return sess.StreamScan(fileID, func(_ vmem.Addr, obj *swizzle.Object) error {
					b, err := obj.Bytes()
					if err != nil {
						return err
					}
					return fn(fileID, obj.Type, b)
				})
			})
		})
	}
	workers.Stop()
	return firstError(errs)
}

// scanWorker runs scan in a transaction of a session of its own over conn.
func scanWorker(conn proto.Conn, name, dbName string, scan func(*client.Session) error) error {
	sess, err := client.Open(conn, name, dbName, false)
	if err != nil {
		return err
	}
	if err := sess.Begin(); err != nil {
		return err
	}
	if err := scan(sess); err != nil {
		return err
	}
	return sess.Commit()
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ParallelScan partitions the file's segments over `workers` goroutines,
// each with its own session — the parallel I/O a multifile enables when its
// areas sit on different devices (§2). fn must be safe for concurrent use;
// it receives the object's type id and bytes.
func (f *File) ParallelScan(conn proto.Conn, dbName string, workers int, fn func(typ segment.TypeID, data []byte) error) error {
	segs, err := f.segments()
	if err != nil {
		return err
	}
	if workers < 1 {
		workers = 1
	}
	errs := make([]error, workers)
	var pool goleak.Group
	for w := 0; w < workers; w++ {
		pool.Go("core.parallelScan", func(<-chan struct{}) {
			errs[w] = scanWorker(conn, fmt.Sprintf("scan-%d", w), dbName, func(sess *client.Session) error {
				for i := w; i < len(segs); i += workers {
					if err := scanOneSegment(sess, segs[i], fn); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
	pool.Stop()
	return firstError(errs)
}

func scanOneSegment(sess *client.Session, seg proto.SegKey, fn func(segment.TypeID, []byte) error) error {
	return sess.ScanSegment(seg, func(_ vmem.Addr, obj *swizzle.Object) error {
		b, err := obj.Bytes()
		if err != nil {
			return err
		}
		return fn(obj.Type, b)
	})
}

// --- root objects ---

// SetRoot gives the object a name (root objects, §2.5).
func (db *Database) SetRoot(name string, r Ref) error {
	if r.IsNil() {
		return ErrNilRef
	}
	return db.sess.SetRoot(name, r.addr)
}

// Root retrieves a named root object.
func (db *Database) Root(name string) (*Object, error) {
	o, err := db.sess.Root(name)
	if err != nil {
		return nil, err
	}
	return &Object{obj: o, db: db}, nil
}

// UnsetRoot removes a name without deleting the object.
func (db *Database) UnsetRoot(name string) error { return db.sess.UnsetRoot(name) }

// --- large objects ---

// NewLarge stores a transparent large object (≤64KB) in the file's newest
// segment; it is read through Object like a small object.
func (f *File) NewLarge(typ segment.TypeID, content []byte) (Ref, error) {
	segs, err := f.segments()
	if err != nil {
		return NilRef, err
	}
	var seg proto.SegKey
	if len(segs) == 0 {
		seg, err = f.db.sess.CreateSegment(f.id, f.slottedPages, f.dataPages, -1)
		if err != nil {
			return NilRef, err
		}
	} else {
		seg = segs[len(segs)-1]
	}
	addr, err := f.db.sess.CreateLarge(seg, typ, content)
	if err != nil {
		return NilRef, err
	}
	return Ref{addr: addr, db: f.db}, nil
}

// VLO is a very large object opened for byte-range operations (§2.1's class
// interface: read, write, insert, delete, append, truncate).
type VLO = largeobj.Object

// NewVLO creates a very large object; sizeHint tunes its segment size. Its
// updates are changes of the database's open transaction, and are refused
// outside one.
func (db *Database) NewVLO(sizeHint int64) (*VLO, error) {
	return largeobj.Create(db.sess.RunStore(), sizeHint)
}

// SaveVLO persists the object's index as a named blob so it can be
// reopened; the data segments are already changes of the transaction.
func (db *Database) SaveVLO(name string, o *VLO) error {
	desc := o.EncodeDescriptor()
	f, err := db.CreateFile("")
	if err != nil {
		return err
	}
	blob, err := db.RegisterType(TypeDesc{Name: "\x00vlodesc", Size: 0})
	if err != nil {
		return err
	}
	ref, err := f.New(blob, desc)
	if err != nil {
		return err
	}
	return db.SetRoot("\x00vlo:"+name, ref)
}

// OpenVLO reopens a named very large object.
func (db *Database) OpenVLO(name string) (*VLO, error) {
	obj, err := db.Root("\x00vlo:" + name)
	if err != nil {
		return nil, err
	}
	desc, err := obj.Bytes()
	if err != nil {
		return nil, err
	}
	return largeobj.Open(db.sess.RunStore(), desc)
}

// --- generic typed layer ---

// Type pairs a registered descriptor with user encode/decode functions,
// giving a typed New/Get/Put in the spirit of ref<T>.
type Type[T any] struct {
	Desc   *TypeDesc
	Encode func(*T) []byte
	Decode func([]byte) *T
}

// Register registers the descriptor and returns the typed handle.
func Register[T any](db *Database, td TypeDesc, enc func(*T) []byte, dec func([]byte) *T) (*Type[T], error) {
	desc, err := db.RegisterType(td)
	if err != nil {
		return nil, err
	}
	return &Type[T]{Desc: desc, Encode: enc, Decode: dec}, nil
}

// New creates a typed object in f.
func (ty *Type[T]) New(f *File, v *T) (Ref, error) {
	return f.New(ty.Desc, ty.Encode(v))
}

// Get dereferences and decodes.
func (ty *Type[T]) Get(db *Database, r Ref) (*T, error) {
	obj, err := db.Deref(r)
	if err != nil {
		return nil, err
	}
	b, err := obj.Bytes()
	if err != nil {
		return nil, err
	}
	return ty.Decode(b), nil
}

// Put re-encodes and writes the object in place.
func (ty *Type[T]) Put(db *Database, r Ref, v *T) error {
	obj, err := db.Deref(r)
	if err != nil {
		return err
	}
	return obj.Write(0, ty.Encode(v))
}
