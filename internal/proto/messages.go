package proto

import (
	"fmt"

	"bess/internal/oid"
)

// The wire messages: the args and reply of every rpc method, the scan
// stream frames, the commit image, and the catalog's log record. Each type's
// Fields method, right below it, is its whole wire layout (cursor.go). The
// method that carries a message is named in its comment; methods.go declares
// each method with its messages.

// Empty is the reply of a method that returns only an error.
type Empty struct{}

func (*Empty) Fields(*Cursor) {}

// Bytes is a reply that is one byte string (FetchLarge, StoreLarge, ReadRun):
// it travels as the raw frame body with no wrapper at all.
type Bytes struct{ Data []byte }

func (m *Bytes) Fields(c *Cursor) { c.Rest(&m.Data) }

// HelloArgs introduces a client.
type HelloArgs struct{ Name string }

func (m *HelloArgs) Fields(c *Cursor) { c.String(&m.Name) }

// IDReply carries a freshly assigned id: Hello's client id, NewFileID's file
// id, AddArea's area id.
type IDReply struct{ ID uint32 }

func (m *IDReply) Fields(c *Cursor) { c.U32(&m.ID) }

// OpenDBArgs requests a database open.
type OpenDBArgs struct {
	Name   string
	Create bool
}

func (m *OpenDBArgs) Fields(c *Cursor) {
	c.String(&m.Name)
	c.Bool(&m.Create)
}

// OpenDBReply returns the database id and host number.
type OpenDBReply struct {
	DB   uint32
	Host uint16
}

func (m *OpenDBReply) Fields(c *Cursor) {
	c.U32(&m.DB)
	c.U16(&m.Host)
}

// ClientArgs names the calling client: the args of NewTx and SnapOpen.
type ClientArgs struct{ Client uint32 }

func (m *ClientArgs) Fields(c *Cursor) { c.U32(&m.Client) }

// NewTxReply carries a fresh transaction id.
type NewTxReply struct{ Tx uint64 }

func (m *NewTxReply) Fields(c *Cursor) { c.U64(&m.Tx) }

// Fields is the layout of a type descriptor inside the messages and the
// catalog that carry one.
func (t *TypeInfo) Fields(c *Cursor) {
	c.U32(&t.ID)
	c.String(&t.Name)
	c.Count(&t.Size)
	offs := Repeat(c, &t.RefOffsets, 4)
	for i := range offs {
		c.Count(&offs[i])
	}
}

// TypeInfoMin is the least a TypeInfo occupies (Repeat's bound).
const TypeInfoMin = 4 + 4 + 4 + 4

// RegisterTypeArgs registers a type.
type RegisterTypeArgs struct {
	DB   uint32
	Info TypeInfo
}

func (m *RegisterTypeArgs) Fields(c *Cursor) {
	c.U32(&m.DB)
	m.Info.Fields(c)
}

// RegisterTypeReply returns the canonical descriptor.
type RegisterTypeReply struct{ Info TypeInfo }

func (m *RegisterTypeReply) Fields(c *Cursor) { m.Info.Fields(c) }

// DBArgs names a database: the args of Types, NewFileID and AddArea.
type DBArgs struct{ DB uint32 }

func (m *DBArgs) Fields(c *Cursor) { c.U32(&m.DB) }

// TypesReply lists a database's registered types.
type TypesReply struct{ Infos []TypeInfo }

func (m *TypesReply) Fields(c *Cursor) {
	infos := Repeat(c, &m.Infos, TypeInfoMin)
	for i := range infos {
		infos[i].Fields(c)
	}
}

// ReserveSegmentsArgs asks for N run pairs in DB's area AreaHint (-1 for
// "the first area"), each a slotted run of SlottedPages pages and a data run
// of at least DataPages, reserved to Client to create segments from.
type ReserveSegmentsArgs struct {
	Client       uint32
	DB           uint32
	AreaHint     int
	SlottedPages int
	DataPages    int
	N            int
}

func (m *ReserveSegmentsArgs) Fields(c *Cursor) {
	c.U32(&m.Client)
	c.U32(&m.DB)
	c.I32(&m.AreaHint)
	c.Count(&m.SlottedPages)
	c.Count(&m.DataPages)
	c.Count(&m.N)
}

// MaxReserve is the most run pairs one ReserveSegments hands out.
const MaxReserve = 64

// Reserved is one run pair ReserveSegments hands out, both runs in Seg.Area:
// the slotted run at Seg.Start, whose key the segment made of it has, and the
// data run at DataStart, of the DataPages the area granted. With a file id,
// that is everything the segment's initial image is made of
// (segment.Format), so nobody fetches it.
type Reserved struct {
	Seg          SegKey
	SlottedPages int
	DataStart    int64
	DataPages    int
}

// reservedSize is the encoded size of a Reserved: a key, two counts, a start.
const reservedSize = 12 + 4 + 8 + 4

func (m *Reserved) Fields(c *Cursor) {
	c.SegKey(&m.Seg)
	c.Count(&m.SlottedPages)
	c.I64(&m.DataStart)
	c.Count(&m.DataPages)
}

// ReserveSegmentsReply carries the reserved run pairs.
type ReserveSegmentsReply struct{ Runs []Reserved }

func (m *ReserveSegmentsReply) Fields(c *Cursor) {
	runs := Repeat(c, &m.Runs, reservedSize)
	for i := range runs {
		runs[i].Fields(c)
	}
}

// Created is a segment a client made of a reserved run pair, for the file
// FileID, which its next commit publishes (CommitArgs.Created).
type Created struct {
	Reserved
	FileID uint32
}

func (m *Created) Fields(c *Cursor) {
	m.Reserved.Fields(c)
	c.U32(&m.FileID)
}

// SegArgs names a segment: the args of SegInfo (its slotted geometry) and of
// Callback, the server→client revocation request — drop the cached copy of
// Seg (callback locking, §3).
type SegArgs struct{ Seg SegKey }

func (m *SegArgs) Fields(c *Cursor) { c.SegKey(&m.Seg) }

// SegInfoReply carries the slotted size of a segment in pages.
type SegInfoReply struct{ SlottedPages int }

func (m *SegInfoReply) Fields(c *Cursor) { c.Count(&m.SlottedPages) }

// ClientSegArgs names a client's copy of a segment: the args of FetchSeg (the
// reply is a SegImage).
type ClientSegArgs struct {
	Client uint32
	Seg    SegKey
}

func (m *ClientSegArgs) Fields(c *Cursor) {
	c.U32(&m.Client)
	c.SegKey(&m.Seg)
}

// ReleasedArgs lists the segments whose cached copies Client dropped.
type ReleasedArgs struct {
	Client uint32
	Segs   []SegKey
}

func (m *ReleasedArgs) Fields(c *Cursor) {
	c.U32(&m.Client)
	segs := Repeat(c, &m.Segs, 12)
	for i := range segs {
		c.SegKey(&segs[i])
	}
}

// FetchLargeArgs fetches a transparent large object; the reply is Bytes.
type FetchLargeArgs struct {
	Client uint32
	Seg    SegKey
	Slot   int
}

func (m *FetchLargeArgs) Fields(c *Cursor) {
	c.U32(&m.Client)
	c.SegKey(&m.Seg)
	c.I32(&m.Slot)
}

// ResolveArgs resolves a header offset.
type ResolveArgs struct {
	DB        uint32
	HeaderOff uint64
}

func (m *ResolveArgs) Fields(c *Cursor) {
	c.U32(&m.DB)
	c.U64(&m.HeaderOff)
}

// ResolveReply names the slot.
type ResolveReply struct {
	Seg  SegKey
	Slot int
}

func (m *ResolveReply) Fields(c *Cursor) {
	c.SegKey(&m.Seg)
	c.Count(&m.Slot)
}

// LockArgs requests a segment lock.
type LockArgs struct {
	Client uint32
	Tx     uint64
	Seg    SegKey
	Mode   LockMode
}

func (m *LockArgs) Fields(c *Cursor) {
	c.U32(&m.Client)
	c.U64(&m.Tx)
	c.SegKey(&m.Seg)
	c.U8((*uint8)(&m.Mode))
}

// LockObjectArgs requests an object-level lock.
type LockObjectArgs struct {
	Client uint32
	Tx     uint64
	Seg    SegKey
	Slot   int
	Mode   LockMode
}

func (m *LockObjectArgs) Fields(c *Cursor) {
	c.U32(&m.Client)
	c.U64(&m.Tx)
	c.SegKey(&m.Seg)
	c.I32(&m.Slot)
	c.U8((*uint8)(&m.Mode))
}

const (
	segImageMagic   uint16 = 0xB5E9
	segImageVersion uint8  = 1
	// segImageMin is the least a framed image occupies: its length prefix,
	// magic, version, key and three empty sections.
	segImageMin = 4 + 2 + 1 + 12 + 3*4
)

// Fields is the canonical, versioned wire form of one commit image: magic
// and version (these bytes outlive a process pair — shipped logs, archived
// images, cross-version peers), the key, three sections.
//
// TestAppendSegImageAllocs and TestDecodeSegImageAllocs pin its allocation budget.
func (s *SegImage) Fields(c *Cursor) {
	magic, version := segImageMagic, segImageVersion
	c.U16(&magic)
	c.U8(&version)
	if magic != segImageMagic || version != segImageVersion {
		c.notImage(magic, version)
	}
	c.SegKey(&s.Seg)
	c.Section(&s.Slotted)
	c.Section(&s.Overflow)
	c.Section(&s.Data)
}

func (c *Cursor) notImage(magic uint16, version uint8) {
	c.Failf("not a segment image this build reads: magic %#04x version %d", magic, version)
}

// images carries a list of segment images, each in its own length-prefixed
// frame.
//
// TestAppendScanBatchAllocs and TestDecodeScanBatchAllocs pin its allocation budget.
func (c *Cursor) images(s *[]SegImage) {
	imgs := Repeat(c, s, segImageMin)
	for i := range imgs {
		mark := c.open()
		imgs[i].Fields(c)
		c.close(mark)
	}
}

// CommitArgs ships a transaction's dirty segments, and publishes the
// segments its client created since its last commit: the args of Commit and
// of Prepare (the 2PC vote request for a distributed branch).
type CommitArgs struct {
	Client  uint32
	Tx      uint64
	Segs    []SegImage
	Created []Created
}

func (m *CommitArgs) Fields(c *Cursor) {
	c.U32(&m.Client)
	c.U64(&m.Tx)
	c.images(&m.Segs)
	created := Repeat(c, &m.Created, reservedSize+4)
	for i := range created {
		created[i].Fields(c)
	}
}

// AbortArgs aborts a transaction.
type AbortArgs struct {
	Client uint32
	Tx     uint64
}

func (m *AbortArgs) Fields(c *Cursor) {
	c.U32(&m.Client)
	c.U64(&m.Tx)
}

// DecideArgs delivers the 2PC decision.
type DecideArgs struct {
	Tx     uint64
	Commit bool
}

func (m *DecideArgs) Fields(c *Cursor) {
	c.U64(&m.Tx)
	c.Bool(&m.Commit)
}

// SegmentsOfArgs lists a file's segments.
type SegmentsOfArgs struct {
	DB     uint32
	FileID uint32
}

func (m *SegmentsOfArgs) Fields(c *Cursor) {
	c.U32(&m.DB)
	c.U32(&m.FileID)
}

// SegmentsOfReply carries them.
type SegmentsOfReply struct{ Segs []SegKey }

func (m *SegmentsOfReply) Fields(c *Cursor) {
	segs := Repeat(c, &m.Segs, 12)
	for i := range segs {
		c.SegKey(&segs[i])
	}
}

// StoreLargeArgs stores a transparent large object's content; the reply is
// Bytes, its descriptor.
type StoreLargeArgs struct {
	Client  uint32
	Tx      uint64
	Seg     SegKey
	Content []byte
}

func (m *StoreLargeArgs) Fields(c *Cursor) {
	c.U32(&m.Client)
	c.U64(&m.Tx)
	c.SegKey(&m.Seg)
	c.Section(&m.Content)
}

// AllocRunArgs allocates a raw page run.
type AllocRunArgs struct {
	DB     uint32
	NPages int
}

func (m *AllocRunArgs) Fields(c *Cursor) {
	c.U32(&m.DB)
	c.Count(&m.NPages)
}

// AllocRunReply names the run.
type AllocRunReply struct {
	Area    uint32
	Start   int64
	Granted int
}

func (m *AllocRunReply) Fields(c *Cursor) {
	c.U32(&m.Area)
	c.I64(&m.Start)
	c.Count(&m.Granted)
}

// RunArgs addresses a raw page run: the args of ReadRun (NPages; the reply
// is Bytes) and WriteRun (Data, a change of the client's Tx).
type RunArgs struct {
	Client uint32
	Tx     uint64
	DB     uint32
	Area   uint32
	Start  int64
	NPages int
	Data   []byte
}

func (m *RunArgs) Fields(c *Cursor) {
	c.U32(&m.Client)
	c.U64(&m.Tx)
	c.U32(&m.DB)
	c.U32(&m.Area)
	c.I64(&m.Start)
	c.Count(&m.NPages)
	c.Section(&m.Data)
}

// NameArgs names a root object: the args of NameLookup and NameUnbind.
type NameArgs struct {
	DB   uint32
	Name string
}

func (m *NameArgs) Fields(c *Cursor) {
	c.U32(&m.DB)
	c.String(&m.Name)
}

// NameBindArgs binds a root-object name.
type NameBindArgs struct {
	DB   uint32
	Name string
	OID  oid.OID
}

func (m *NameBindArgs) Fields(c *Cursor) {
	c.U32(&m.DB)
	c.String(&m.Name)
	c.OID(&m.OID)
}

// NameLookupReply carries the OID.
type NameLookupReply struct{ OID oid.OID }

func (m *NameLookupReply) Fields(c *Cursor) { c.OID(&m.OID) }

// NameRemoveOIDArgs removes the name bound to an OID (object deletion).
type NameRemoveOIDArgs struct {
	DB  uint32
	OID oid.OID
}

func (m *NameRemoveOIDArgs) Fields(c *Cursor) {
	c.U32(&m.DB)
	c.OID(&m.OID)
}

// CallbackReply reports whether the client complied; Refused means a live
// transaction is using the copy and the requester must wait.
type CallbackReply struct{ Refused bool }

func (m *CallbackReply) Fields(c *Cursor) { c.Bool(&m.Refused) }

// SnapOpenReply names the snapshot and its version stamp.
type SnapOpenReply struct {
	Snap  uint64
	Stamp uint64
}

func (m *SnapOpenReply) Fields(c *Cursor) {
	c.U64(&m.Snap)
	c.U64(&m.Stamp)
}

// SnapCloseArgs releases a snapshot.
type SnapCloseArgs struct {
	Client uint32
	Snap   uint64
}

func (m *SnapCloseArgs) Fields(c *Cursor) {
	c.U32(&m.Client)
	c.U64(&m.Snap)
}

// SnapFetchArgs fetches a segment image as of a snapshot's stamp; the reply
// is a SegImage.
type SnapFetchArgs struct {
	Client uint32
	Snap   uint64
	Seg    SegKey
}

func (m *SnapFetchArgs) Fields(c *Cursor) {
	c.U32(&m.Client)
	c.U64(&m.Snap)
	c.SegKey(&m.Seg)
}

// The streaming scan protocol (DESIGN.md §6): a scan is opened with an
// ordinary request/reply (ScanStart, SnapScanStart) and then runs as two
// one-way streams sharing the scan id — the server pushes ScanData frames
// (each one a ScanBatch) and the client sends ScanCtl frames.

// ScanStartArgs opens a streaming scan. BatchBytes is the client's preferred
// batch granularity in bytes; zero lets the server choose.
type ScanStartArgs struct {
	Client, DB, FileID, BatchBytes uint32
}

func (m *ScanStartArgs) Fields(c *Cursor) {
	c.U32(&m.Client)
	c.U32(&m.DB)
	c.U32(&m.FileID)
	c.U32(&m.BatchBytes)
}

// SnapScanStartArgs is ScanStartArgs plus the snapshot the cursor reads as
// of.
type SnapScanStartArgs struct {
	ScanStartArgs
	Snap uint64
}

func (m *SnapScanStartArgs) Fields(c *Cursor) {
	m.ScanStartArgs.Fields(c)
	c.U64(&m.Snap)
}

// ScanStartReply names the scan: the id its ScanData and ScanCtl frames
// carry.
type ScanStartReply struct {
	Scan uint64
}

func (m *ScanStartReply) Fields(c *Cursor) { c.U64(&m.Scan) }

// ScanBatch is one pushed batch of segment images. Seq numbers batches from
// zero within a scan; Last marks the final batch. A non-empty Err reports a
// server-side scan failure (the batch carries no images in that case and is
// also the last one).
type ScanBatch struct {
	Seq    uint32
	Last   bool
	Err    string
	Images []SegImage
}

// TestAppendScanBatchAllocs and TestDecodeScanBatchAllocs pin its allocation budget.
func (m *ScanBatch) Fields(c *Cursor) {
	c.U32(&m.Seq)
	c.Bool(&m.Last)
	c.String(&m.Err)
	c.images(&m.Images)
}

// ScanCtl is a flow-control frame: Cancel aborts the scan, otherwise Credit
// grants the server that many more bytes of push budget.
type ScanCtl struct {
	Cancel bool
	Credit uint64
}

func (m *ScanCtl) Fields(c *Cursor) {
	c.Bool(&m.Cancel)
	c.U64(&m.Credit)
}

// CatalogOpKind says which catalog change a CatalogOp records.
type CatalogOpKind uint8

// The catalog changes. The values are log bytes: append, never renumber.
const (
	CatCreateDB     CatalogOpKind = iota // DB (the id assigned), Name
	CatAddArea                           // DB, ID (the area id assigned)
	CatNewFile                           // DB, ID (the file id handed out)
	CatRegisterType                      // DB, Type (with the id assigned)
	CatAddSegment                        // DB, Seg, FileID, SlottedPages, DataStart, DataPages
	CatNameBind                          // DB, Name, OID
	CatNameUnbind                        // DB, Name
	CatNameRemove                        // DB, OID
	CatAddRun                            // DB, Seg (the run's area and start), DataPages (as granted)
)

var catalogOpNames = [...]string{"create-db", "add-area", "new-file", "register-type", "add-segment", "name-bind", "name-unbind", "name-remove", "add-run"}

// String names the kind.
func (k CatalogOpKind) String() string {
	if int(k) < len(catalogOpNames) {
		return catalogOpNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// CatalogOp is one change to a server's catalog: the body of a wal.TCatalog
// record, redo-only. Everything the change decided — the ids it assigned, the
// runs it allocated — is in the op, so applying it at restart rebuilds what
// the live server had (server/catalog.go). Only the fields its Kind lists
// are carried.
type CatalogOp struct {
	Kind CatalogOpKind
	DB   uint32
	ID   uint32
	Name string
	OID  oid.OID
	Type TypeInfo

	// CatAddSegment: the slotted run is Seg.Start for SlottedPages pages, the
	// data run DataStart for DataPages pages as granted, both in Seg.Area.
	// CatAddRun: the run is Seg.Start for DataPages pages as granted.
	Seg          SegKey
	FileID       uint32
	SlottedPages int
	DataStart    int64
	DataPages    int
}

func (m *CatalogOp) Fields(c *Cursor) {
	c.U8((*uint8)(&m.Kind))
	c.U32(&m.DB)
	switch m.Kind {
	case CatCreateDB, CatNameUnbind:
		c.String(&m.Name)
	case CatAddArea, CatNewFile:
		c.U32(&m.ID)
	case CatRegisterType:
		m.Type.Fields(c)
	case CatAddSegment:
		c.SegKey(&m.Seg)
		c.U32(&m.FileID)
		c.Count(&m.SlottedPages)
		c.I64(&m.DataStart)
		c.Count(&m.DataPages)
	case CatNameBind:
		c.String(&m.Name)
		c.OID(&m.OID)
	case CatNameRemove:
		c.OID(&m.OID)
	case CatAddRun:
		c.SegKey(&m.Seg)
		c.Count(&m.DataPages)
	default:
		c.Failf("catalog op of unknown kind %d", m.Kind)
	}
}

// String prints the op as bess-inspect shows it: the kind and its fields.
func (m *CatalogOp) String() string {
	s := fmt.Sprintf("%s db=%d", m.Kind, m.DB)
	switch m.Kind {
	case CatCreateDB, CatNameUnbind:
		s += fmt.Sprintf(" name=%q", m.Name)
	case CatAddArea:
		s += fmt.Sprintf(" area=%d", m.ID)
	case CatNewFile:
		s += fmt.Sprintf(" file=%d", m.ID)
	case CatRegisterType:
		s += fmt.Sprintf(" type=%d %q size=%d refs=%v", m.Type.ID, m.Type.Name, m.Type.Size, m.Type.RefOffsets)
	case CatAddSegment:
		s += fmt.Sprintf(" seg=%d/%d file=%d slotted=%dp data=%d(%dp)", m.Seg.Area, m.Seg.Start, m.FileID, m.SlottedPages, m.DataStart, m.DataPages)
	case CatNameBind:
		s += fmt.Sprintf(" name=%q oid=%v", m.Name, m.OID)
	case CatNameRemove:
		s += fmt.Sprintf(" oid=%v", m.OID)
	case CatAddRun:
		s += fmt.Sprintf(" run=%d/%d pages=%d", m.Seg.Area, m.Seg.Start, m.DataPages)
	}
	return s
}

// The entry points below call one message's Fields on a stack cursor: a
// call through the Message interface would move the cursor, and a message
// built for the call, to the heap. They serve the paths that encode into
// pooled buffers or run once per image.

// AppendSegImage appends the encoding of s to b. It allocates nothing when
// b has room: the scan push path encodes straight into a pooled batch.
//
// TestAppendSegImageAllocs pins its allocation budget.
func AppendSegImage(b []byte, s *SegImage) []byte {
	c := Cursor{buf: b}
	s.Fields(&c)
	return c.buf
}

// DecodeSegImage parses exactly one image.
//
// TestDecodeSegImageAllocs pins its allocation budget.
func DecodeSegImage(b []byte) (*SegImage, error) {
	s := &SegImage{}
	c := decoder(b)
	s.Fields(&c)
	return s, c.finish()
}

// AppendCommitArgs appends the encoding of a CommitArgs to b.
func AppendCommitArgs(b []byte, client uint32, tx uint64, segs []SegImage) []byte {
	m := CommitArgs{Client: client, Tx: tx, Segs: segs}
	c := Cursor{buf: b}
	m.Fields(&c)
	return c.buf
}

// DecodeCommitArgs parses a CommitArgs.
func DecodeCommitArgs(b []byte) (client uint32, tx uint64, segs []SegImage, err error) {
	var m CommitArgs
	c := decoder(b)
	m.Fields(&c)
	return m.Client, m.Tx, m.Segs, c.finish()
}

// AppendScanBatch appends the encoding of sb to b: every image lands
// directly in b (the pooled batch buffer), so a steady-state scan allocates
// nothing per batch.
//
// TestAppendScanBatchAllocs pins its allocation budget.
func AppendScanBatch(b []byte, sb *ScanBatch) []byte {
	c := Cursor{buf: b}
	sb.Fields(&c)
	return c.buf
}

// DecodeScanBatch parses one pushed batch.
func DecodeScanBatch(b []byte) (*ScanBatch, error) {
	sb := &ScanBatch{}
	c := decoder(b)
	sb.Fields(&c)
	return sb, c.finish()
}
