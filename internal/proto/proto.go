// Package proto defines the wire types and the service interface shared by
// BeSS servers, node servers, and client sessions (paper §3). Keeping them
// in one package lets the same client code run against a remote server over
// RPC, a local node server, or a server linked into the same process (the
// "open server" configuration).
package proto

import (
	"errors"
	"strings"

	"bess/internal/oid"
	"bess/internal/segment"
)

var (
	// ErrNotReserved refuses a published segment whose runs are not reserved
	// to the publishing client as it names them.
	ErrNotReserved = errors.New("segment runs are not reserved to this client")
	// ErrRefused marks a Publish refused before it changed anything: the
	// runs of the segments it was to publish are still reserved to the
	// client.
	ErrRefused = errors.New("refused before publishing")
)

// Refused reports whether err is a refusal marked ErrRefused, here or — as
// the text every error becomes on the wire — across it.
func Refused(err error) bool {
	return errors.Is(err, ErrRefused) || err != nil && strings.Contains(err.Error(), ErrRefused.Error())
}

// SegKey identifies an object segment by its immovable slotted segment.
type SegKey struct {
	Area  uint32
	Start int64
}

// LockMode mirrors lock.Mode on the wire.
type LockMode uint8

// SegImage is a segment's full state shipped at commit: the encoded slotted
// segment (with header + slots), the overflow image, and the data segment
// bytes.
type SegImage struct {
	Seg      SegKey
	Slotted  []byte
	Overflow []byte
	Data     []byte
}

// TypeInfo mirrors segment.TypeDesc on the wire.
type TypeInfo struct {
	ID         uint32
	Name       string
	Size       int
	RefOffsets []int
}

// ToDesc converts to the segment-layer descriptor.
func (t TypeInfo) ToDesc() segment.TypeDesc {
	return segment.TypeDesc{
		ID:         segment.TypeID(t.ID),
		Name:       t.Name,
		Size:       t.Size,
		RefOffsets: append([]int(nil), t.RefOffsets...),
	}
}

// FromDesc converts from the segment-layer descriptor.
func FromDesc(d *segment.TypeDesc) TypeInfo {
	return TypeInfo{
		ID:         uint32(d.ID),
		Name:       d.Name,
		Size:       d.Size,
		RefOffsets: append([]int(nil), d.RefOffsets...),
	}
}

// Conn is the service surface a client session consumes. Implementations:
// server.Server (direct, "open server"), client.Remote (RPC), and
// nodeserver.NodeServer (local cache + RPC upstream).
//
// A segment image leaves a Conn one way: FetchSeg (SnapFetchSeg as of a
// snapshot's stamp) returns the slotted, overflow and data parts together. A
// fetch registers the caller as a holder of a cached copy, and the copy stays
// consistent only because the Conn can call it back — so delivering
// revocations (SetCallback) is part of the contract, not an extra some
// implementations have. The one copy nobody fetches is a new segment's: a
// client makes it of runs ReserveSegments reserved to it, whose geometry is
// all its initial image is made of, and the commit that publishes it
// (Publish) registers the creator as a holder.
//
// A byte slice a method returns is the caller's, to keep and to write to (the
// mapper swizzles a fetched data image in place): an implementation serving
// from something it retains — a version chain, a node cache — returns a copy.
//
// The other way round, a segment image handed to Publish is only lent: no
// implementation keeps a shipped byte past the call. A server's commit
// writes its pages back before Publish returns — over the wire the reply
// leaves first, and the write-back after it reads the server's own copy, the
// frame the commit arrived in — and a prepare drops them once its record is
// logged (Decide rebuilds them from the log); a node server forwards them and
// keeps none. So a client ships its live sections, not copies of them
// (swizzle.Mapper.UnswizzledData), and may write to them again the moment the
// call returns.
type Conn interface {
	// Hello registers the caller and returns its client id.
	Hello(name string) (uint32, error)
	// SetCallback installs client's revocation handler: before a write to a
	// segment is granted, every other client caching it is asked through cb
	// to drop its copy. refused means a live transaction is using the copy: a
	// client that refuses must send Released when it lets the copy go, which
	// is what the asker waits for before it asks again; an error means the
	// client is gone.
	SetCallback(client uint32, cb func(SegKey) (refused bool, err error)) error
	// OpenDB opens (or creates, if create) a database by name.
	OpenDB(name string, create bool) (db uint32, host uint16, err error)
	// NewTx allocates a transaction id valid on this connection.
	NewTx() (uint64, error)
	// RegisterType registers (idempotently) a type descriptor for db.
	RegisterType(db uint32, t TypeInfo) (TypeInfo, error)
	// Types lists the registered types of db.
	Types(db uint32) ([]TypeInfo, error)
	// AddArea attaches one more storage area to db (multifile growth).
	AddArea(db uint32) (uint32, error)
	// NewFileID allocates a fresh BeSS file id in db.
	NewFileID(db uint32) (uint32, error)
	// ReserveSegments reserves n run pairs (at most MaxReserve) in db's area
	// areaHint (by index, -1 = first: multifiles spread their segments over
	// areas) for client to create segments from: a slotted run of
	// slottedPages pages and a data run of at least dataPages each — or, with
	// slottedPages 0, lone runs for sections to move to. A reserved run is
	// taken in memory only, no other client can lock, fetch or find a segment
	// at its key, and the runs client has not published when it goes free
	// again.
	ReserveSegments(client uint32, db uint32, areaHint, slottedPages, dataPages, n int) ([]Reserved, error)
	// SegInfo returns the slotted size of seg in pages.
	SegInfo(seg SegKey) (slottedPages int, err error)
	// FetchSeg returns the encoded slotted image (header + slots), the
	// overflow image and the data segment image in one round trip, and
	// records client as caching seg.
	FetchSeg(client uint32, seg SegKey) (slotted, overflow, data []byte, err error)
	// Resolve maps a 48-bit header offset to its segment and slot.
	Resolve(db uint32, headerOff uint64) (SegKey, int, error)
	// Lock acquires mode on seg for tx, driving callbacks to other clients
	// caching it.
	Lock(client uint32, tx uint64, seg SegKey, mode LockMode) error
	// LockObject acquires an object-level lock (slot granularity) — the
	// software-based finer-granularity locking of §2.3/[27]. The owning
	// segment gets the matching intention lock.
	LockObject(client uint32, tx uint64, seg SegKey, slot int, mode LockMode) error
	// Publish commits tx — or, with prepare set, logs it as a 2PC branch
	// voting yes (Decide ends it) — shipping segs, its segments' images, and
	// first publishing created: segments client made of runs reserved to it,
	// X-locked for tx and recorded with client as their holder, which every
	// other client finds from tx's commit on, and the lone runs reserved to
	// it that shipped sections moved to. A run not reserved to client, as
	// created names it, is refused (ErrNotReserved), and so is a section
	// moved to a run created does not name; a refusal marked ErrRefused
	// changed nothing. Over the wire a commit answers at its publication,
	// before its pages are written: a page write that fails after that is
	// the server's to repair or quarantine, and the reply says the commit
	// stands.
	Publish(client uint32, tx uint64, created []Created, segs []SegImage, prepare bool) error
	// Abort rolls tx back and releases its locks.
	Abort(client uint32, tx uint64) error
	// SegmentsOf lists the segments of a file in db (scans).
	SegmentsOf(db uint32, fileID uint32) ([]SegKey, error)
	// Released tells the server the client dropped its cached copies of segs.
	Released(client uint32, segs []SegKey) error
	// Decide delivers the 2PC decision for a branch Publish prepared: the
	// participant surface for distributed transactions coordinated by a
	// client or another server.
	Decide(tx uint64, commit bool) error
	// SnapOpen opens a read-only snapshot for the client and returns its id
	// and version stamp (the commit LSN it observes). Snapshot reads take no
	// locks and never block writers (DESIGN.md §7).
	SnapOpen(client uint32) (snap uint64, stamp uint64, err error)
	// SnapClose releases the client's own snapshot, unpinning its stamp from
	// version retention. Another client's snapshot is refused and stays
	// open — with cache.ErrNotOwner in process, and over rpc with the
	// *rpc.RemoteError every error becomes; an id that is not open is a no-op.
	SnapClose(client uint32, snap uint64) error
	// SnapFetchSeg returns the segment's image as of the snapshot's stamp:
	// a retained version, or the current image if unchanged. No callback
	// registration, no locks.
	SnapFetchSeg(client uint32, snap uint64, seg SegKey) (slotted, overflow, data []byte, err error)
	// Name directory operations (root objects).
	NameBind(db uint32, name string, o oid.OID) error
	NameLookup(db uint32, name string) (oid.OID, error)
	NameUnbind(db uint32, name string) error
	// NameRemoveOID enforces referential integrity when a root object is
	// deleted: its name binding goes with it.
	NameRemoveOID(db uint32, o oid.OID) error
}

// Lock modes on the wire (mirror lock package values).
const (
	LockNone LockMode = iota
	LockIS
	LockIX
	LockS
	LockSIX
	LockX
)
