// Package wal implements the BeSS write-ahead log (paper §3, reference [21]):
// redo-only byte-range page records whose pages are written after their
// transaction's commit record is durable, fuzzy checkpoints, and restart's
// analysis and redo passes (recovery.go).
//
// Redo is physical (copy the after-image to the page at the recorded
// offset) and therefore idempotent, so pages need not carry a pageLSN:
// restart repeats history from the checkpoint's redo point. Nothing on a page
// ever belongs to a transaction that did not commit — no page is written
// before its commit is durable (Durable) — so there is no undo: a loser is
// ended by its abort record, and restart writes nothing for it.
//
// The log file is format version 5: every record is a CRC-32C, a varint body
// length the CRC covers, and a body of varint fields (encode). A record names
// the earlier LSNs it refers to — its transaction's previous record, a
// checkpoint's recLSNs — by their distance back from its own LSN, so a record's
// bytes depend on where it stands and Append sizes and encodes it under the
// log mutex.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"slices"
	"sync"

	"bess/internal/lockcheck"
	"bess/internal/page"
)

// Type is a log record type.
type Type uint8

// Log record types.
const (
	// TUpdate is a page change with an undo half (UndoOff, Before). No product
	// code writes one, and no reader of page history takes one for a page
	// change: the codec keeps it for the benchmark module's log probe.
	TUpdate Type = iota + 1
	_            // 2: retired (the compensation record); no log this build reads holds one
	TCommit
	TAbort // transaction rollback complete
	TEnd   // transaction removed from the table (after commit or abort)
	TCheckpoint
	TPrepare // 2PC: participant vote logged and forced; tx is in-doubt until decision
	// TCatalog is a redo-only catalog change. Its Body is opaque here — the
	// server encodes, decodes and replays it (server/catalog.go); it belongs to
	// no transaction, and every walker of page history passes over it.
	TCatalog
	// TRedo is a page change with a redo half and no undo half: its page is
	// written only once its transaction's commit record is durable (Durable),
	// so there is never anything on the page to take back. It takes effect at
	// that commit, not where it stands (Replayer).
	TRedo

	// NumTypes sizes a table indexed by Type: one more than the last type.
	NumTypes = iota + 1
)

// String names the record type.
func (t Type) String() string {
	switch t {
	case TUpdate:
		return "update"
	case TCommit:
		return "commit"
	case TAbort:
		return "abort"
	case TEnd:
		return "end"
	case TCheckpoint:
		return "checkpoint"
	case TPrepare:
		return "prepare"
	case TCatalog:
		return "catalog"
	case TRedo:
		return "redo"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// CkptPage is a dirty-page-table entry in a checkpoint record.
type CkptPage struct {
	Page   page.ID
	RecLSN page.LSN
}

// Record is one log record. LSNs are byte offsets of the record in the log.
type Record struct {
	Type    Type
	Tx      uint64
	PrevLSN page.LSN // previous record of the same transaction

	// Page record fields. A TRedo has a redo half (Off, After): what replay
	// copies onto the page. A TUpdate also has an undo half (UndoOff, Before),
	// an independent range of the page. An image read back from the log is
	// read-only.
	Page    page.ID
	Off     uint32 // byte offset of After within the page
	After   []byte // redo image
	UndoOff uint32 // TUpdate: byte offset of Before within the page
	Before  []byte // TUpdate: undo image

	// Checkpoint: the dirty-page table.
	DirtyPages []CkptPage

	// Catalog record: the rest of the record, as the server wrote it.
	Body []byte

	lsn page.LSN // where Append put the record, or the log it was read from holds it; 0 if neither
}

// Logged is proof that a record of Page is in the log, at LSN, and takes
// effect: what a page store demands in place of a page id before it
// overwrites the page (log before data, DESIGN.md §4f). Only this package
// makes a non-zero one, and only for a redo-only record whose transaction's
// commit is durable (Durable.Proof) or that a walk of the log hands on at
// that commit (Replayer) — so a store cannot be asked to write a page nothing
// was logged for, nor one for a transaction that has not committed. It says a
// record of the page precedes the store, not that the bytes stored are that
// record's.
type Logged struct {
	page page.ID
	lsn  page.LSN
}

// Page is the page the record changes.
func (p Logged) Page() page.ID { return p.page }

// LSN is the record's LSN; 0 in the zero Logged, which proves nothing.
func (p Logged) LSN() page.LSN { return p.lsn }

// Pending is a redo-only record of a page in the log (TRedo), whose page
// write is pending its transaction's commit: a record Append has taken, or one
// read back from the log, hands out its own (Record.Pending). It is not a
// Logged, and no page store takes it: the page's write waits for the
// transaction's commit record, not for this one. Durable.Proof makes it a
// Logged once that record is durable.
type Pending struct {
	page page.ID
	tx   uint64
	lsn  page.LSN
}

// Page is the page the record changes.
func (r Pending) Page() page.ID { return r.page }

// Pending returns r's redo-only token: zero until Append has taken r or
// unless r was read from the log, and for every record that is not a TRedo.
func (r *Record) Pending() Pending {
	if r.Type != TRedo || r.lsn == 0 {
		return Pending{}
	}
	return Pending{page: r.Page, tx: r.Tx, lsn: r.lsn}
}

// Durable is proof that a transaction's commit record is durable. Only the
// log makes one (Log.Durable), once its flushed frontier covers the record,
// and it is the only way to turn the transaction's redo-only records into
// proofs a page store takes (Proof): no page a TRedo describes is written
// before its commit is durable (DESIGN.md §4f).
type Durable struct {
	tx     uint64
	commit page.LSN
}

// Proof returns what a store of r's page takes, if r is a record of d's
// transaction that precedes its commit record; ErrNotDurable if not.
func (d Durable) Proof(r Pending) (Logged, error) {
	if d.commit == 0 || r.lsn == 0 || r.tx != d.tx || r.lsn >= d.commit {
		return Logged{}, ErrNotDurable
	}
	return Logged{page: r.page, lsn: r.lsn}, nil
}

// WholePage reports whether r's redo image covers its entire page: such a
// record anchors replay (restart redo, repair) whatever the page held before.
func (r *Record) WholePage() bool { return r.Off == 0 && len(r.After) == page.Size }

// Errors returned by the log.
var (
	ErrCorrupt = errors.New("wal: corrupt record")
	ErrClosed  = errors.New("wal: closed")
	// ErrNotLogged is a page store's answer to the zero Logged.
	ErrNotLogged = errors.New("wal: page store without a log record")
	// ErrUnencodable is Append's answer to a record the log could not read
	// back: one whose PrevLSN or a recLSN is not behind it, or whose body is
	// longer than maxBody.
	ErrUnencodable = errors.New("wal: record cannot be encoded at the end of the log")
	// ErrOldFormat is Open's answer to a log whose records an older build
	// encoded differently.
	ErrOldFormat = errors.New("wal: the log was written by an older build; this build cannot read it")
	// ErrNotDurable is Log.Durable's answer before the log is forced through
	// the commit record, and Durable.Proof's to a record it does not cover.
	ErrNotDurable = errors.New("wal: commit record not durable")
)

// A record's frame: a CRC-32C of everything after it, then the body's length
// as a uvarint. A body holds its type and three varints at least, and maxBody
// bytes at most: a length outside that is no record's.
const (
	crcSize = 4
	minBody = 4
	maxBody = 1 << 26
)

// frameSize is the bytes a record with an n-byte body occupies in the log.
func frameSize(n int) int { return crcSize + uvarintLen(uint64(n)) + n }

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// A transaction id is its server's host number above bit txHostShift and a
// counter below it (server.Server.NewTx). The codec stores the two as two
// uvarints, the counter first: four bytes for any id among a server's first
// two million, where the id as one uvarint takes seven for any host but 0.
const txHostShift = 48

func txSize(tx uint64) int {
	return uvarintLen(tx&(1<<txHostShift-1)) + uvarintLen(tx>>txHostShift)
}

func appendTx(b []byte, tx uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(b, tx&(1<<txHostShift-1)), tx>>txHostShift)
}

// back is how the record at lsn stores a reference to the earlier LSN to: the
// distance back to it, 0 for none. A record with no LSN yet (lsn 0) gets the
// widest distance there is: what Append reserves before it knows where the
// record goes.
func back(lsn, to page.LSN) uint64 {
	switch {
	case to == 0:
		return 0
	case lsn == 0:
		return math.MaxUint64
	}
	return uint64(lsn - to)
}

// A page record stores an image that is all zero — what a page nothing was
// ever written to holds, what a zeroed range becomes — as its length alone,
// with the low bit of the length field set; decoding hands such an image back
// as a slice of zeroes, so readers of a Record never see it. zeroes backs
// every image decoded from a length alone. Nothing writes to it.
var zeroes [page.Size]byte

// isZero reports whether img is stored as its length alone.
func isZero(img []byte) bool {
	return len(img) > 0 && len(img) <= len(zeroes) && bytes.Equal(img, zeroes[:len(img)])
}

// zeroImages reports which of r's images are stored as their length alone.
// Append asks once and sizes and encodes the record by the same answer.
func (r *Record) zeroImages() (before, after bool) {
	switch r.Type {
	case TUpdate:
		return isZero(r.Before), isZero(r.After)
	case TRedo:
		return false, isZero(r.After)
	}
	return false, false
}

// imageSize is the bytes appendImage writes for img.
func imageSize(img []byte, zero bool) int {
	n := uvarintLen(uint64(len(img)) << 1)
	if !zero {
		n += len(img)
	}
	return n
}

// sizeAt is the exact size of r's body as encode writes it at lsn; at lsn 0,
// the most it can be wherever it goes.
func (r *Record) sizeAt(lsn page.LSN, zeroBefore, zeroAfter bool) int {
	n := 1 + txSize(r.Tx) + uvarintLen(back(lsn, r.PrevLSN))
	switch r.Type {
	case TUpdate, TRedo:
		n += uvarintLen(uint64(r.Page.Area)) + uvarintLen(uint64(r.Page.Page)) + uvarintLen(uint64(r.Off))
		if r.Type == TUpdate {
			n += uvarintLen(uint64(r.UndoOff)) + imageSize(r.Before, zeroBefore)
		}
		n += imageSize(r.After, zeroAfter)
	case TCheckpoint:
		n += uvarintLen(uint64(len(r.DirtyPages)))
		for _, e := range r.DirtyPages {
			n += uvarintLen(uint64(e.Page.Area)) + uvarintLen(uint64(e.Page.Page)) + uvarintLen(back(lsn, e.RecLSN))
		}
	case TCatalog:
		n += len(r.Body)
	}
	return n
}

// latestRef is the latest LSN r refers to: r can stand only past it.
func (r *Record) latestRef() page.LSN {
	ref := r.PrevLSN
	if r.Type == TCheckpoint {
		for _, e := range r.DirtyPages {
			ref = max(ref, e.RecLSN)
		}
	}
	return ref
}

// Footprint says where the log's bytes for one record go.
type Footprint struct {
	Header int // CRC, length and every field that is not an image
	Before int // undo image bytes stored
	After  int // redo image bytes stored
	// Image bytes not stored, the image being all zero and kept as its length.
	ZeroBefore, ZeroAfter int
}

// Footprint measures r as the log holds it, at the LSN Append put it at or the
// log was read from. A record the log has not taken has no LSN, and is measured
// as Append reserves for it: every reference to an earlier record at its
// widest.
func (r *Record) Footprint() Footprint {
	zb, za := r.zeroImages()
	var f Footprint
	switch r.Type {
	case TUpdate:
		f.Before = len(r.Before)
		fallthrough
	case TRedo:
		f.After = len(r.After)
	}
	if zb {
		f.Before, f.ZeroBefore = 0, len(r.Before)
	}
	if za {
		f.After, f.ZeroAfter = 0, len(r.After)
	}
	f.Header = frameSize(r.sizeAt(r.lsn, zb, za)) - f.Before - f.After
	return f
}

// appendImage writes one image: its length shifted left one and its bytes,
// or for an all-zero one its length with the low bit set.
func appendImage(b, img []byte, zero bool) []byte {
	if zero {
		return binary.AppendUvarint(b, uint64(len(img))<<1|1)
	}
	return append(binary.AppendUvarint(b, uint64(len(img))<<1), img...)
}

// encode appends the body of r, the record at lsn, to b: the type byte, then
// uvarints and images.
//
//	tx           the counter, then the host (txHostShift)
//	prev         back(lsn, PrevLSN)
//	TRedo        area, page, off, the after-image (appendImage)
//	TUpdate      area, page, off, undo off, the before-image, the after-image
//	TCheckpoint  the number of dirty pages; for each, area, page, back(lsn, RecLSN)
//	TCatalog     Body, to the end of the record
func (r *Record) encode(b []byte, lsn page.LSN, zeroBefore, zeroAfter bool) []byte {
	b = append(b, byte(r.Type))
	b = appendTx(b, r.Tx)
	b = binary.AppendUvarint(b, back(lsn, r.PrevLSN))
	switch r.Type {
	case TUpdate, TRedo:
		b = binary.AppendUvarint(b, uint64(r.Page.Area))
		b = binary.AppendUvarint(b, uint64(r.Page.Page))
		b = binary.AppendUvarint(b, uint64(r.Off))
		if r.Type == TUpdate {
			b = binary.AppendUvarint(b, uint64(r.UndoOff))
			b = appendImage(b, r.Before, zeroBefore)
		}
		b = appendImage(b, r.After, zeroAfter)
	case TCheckpoint:
		b = binary.AppendUvarint(b, uint64(len(r.DirtyPages)))
		for _, e := range r.DirtyPages {
			b = binary.AppendUvarint(b, uint64(e.Page.Area))
			b = binary.AppendUvarint(b, uint64(e.Page.Page))
			b = binary.AppendUvarint(b, back(lsn, e.RecLSN))
		}
	case TCatalog:
		b = append(b, r.Body...)
	}
	return b
}

// decodeRecord parses the body of the record at lsn (> 0). The record's
// Before, After and Body alias b: logReader.next hands every record that
// leaves the package a buffer of its own. It takes nothing encode does not
// write: a field that runs past the body, a number its field cannot hold, a
// reference not behind lsn, or bytes left over are ErrCorrupt.
func decodeRecord(b []byte, lsn page.LSN) (*Record, error) {
	r := new(Record)
	if err := r.decode(b, lsn); err != nil {
		return nil, err
	}
	return r, nil
}

// decode is decodeRecord into r, whatever r held before.
func (r *Record) decode(b []byte, lsn page.LSN) error {
	d := decoder{p: b}
	*r = Record{Type: Type(d.byte())}
	r.Tx = d.tx()
	r.PrevLSN = d.ref(lsn)
	switch r.Type {
	case TUpdate, TRedo:
		r.Page = d.page()
		r.Off = uint32(d.uvarint(math.MaxUint32))
		if r.Type == TUpdate {
			r.UndoOff = uint32(d.uvarint(math.MaxUint32))
			r.Before = d.image()
		}
		r.After = d.image()
	case TCheckpoint:
		// An entry is three bytes at least, so the table is sized by a count
		// the body can hold, never by whatever the count field says.
		if n := d.uvarint(uint64(len(d.p)) / 3); n > 0 {
			r.DirtyPages = make([]CkptPage, n)
			for i := range r.DirtyPages {
				pid := d.page()
				r.DirtyPages[i] = CkptPage{Page: pid, RecLSN: d.ref(lsn)}
			}
		}
	case TCatalog:
		if len(d.p) > 0 {
			r.Body = d.p[:len(d.p):len(d.p)]
		}
		d.p = nil
	case TCommit, TAbort, TEnd, TPrepare:
		// header only
	default:
		d.bad = true
	}
	if d.bad || len(d.p) > 0 {
		return ErrCorrupt
	}
	return nil
}

// decoder reads a record body front to back. A read that does not fit marks it
// bad and returns zero, as does every read after it; decodeRecord checks once,
// at the end.
type decoder struct {
	p   []byte
	bad bool
}

func (d *decoder) byte() byte {
	if d.bad || len(d.p) == 0 {
		d.bad = true
		return 0
	}
	c := d.p[0]
	d.p = d.p[1:]
	return c
}

// uvarint reads a number of at most limit.
func (d *decoder) uvarint(limit uint64) uint64 {
	if d.bad {
		return 0
	}
	v, n := binary.Uvarint(d.p)
	if n <= 0 || v > limit {
		d.bad = true
		return 0
	}
	d.p = d.p[n:]
	return v
}

func (d *decoder) tx() uint64 {
	counter := d.uvarint(1<<txHostShift - 1)
	return counter | d.uvarint(math.MaxUint64>>txHostShift)<<txHostShift
}

// ref reads a reference from the record at lsn to an earlier LSN (back).
func (d *decoder) ref(lsn page.LSN) page.LSN {
	if b := d.uvarint(uint64(lsn) - 1); b != 0 {
		return lsn - page.LSN(b)
	}
	return 0
}

func (d *decoder) page() page.ID {
	area := page.AreaID(d.uvarint(math.MaxUint32))
	return page.ID{Area: area, Page: page.No(d.uvarint(math.MaxUint64))}
}

// image reads an image: its stored bytes, aliasing the body, or for a length
// alone that many zeroes.
func (d *decoder) image() []byte {
	v := d.uvarint(math.MaxUint64)
	n := v >> 1
	switch {
	case v&1 != 0:
		if n == 0 || n > page.Size {
			d.bad = true
			return nil
		}
		return zeroes[:n:n]
	case n > uint64(len(d.p)):
		d.bad = true
		return nil
	case n == 0:
		return nil
	}
	img := d.p[:n:n]
	d.p = d.p[n:]
	return img
}

// Backing abstracts the durable medium behind the log buffer. Production
// logs run on the file/mem implementations below; the fault-injection layer
// (internal/fault) substitutes a medium that can lose power mid-write.
type Backing interface {
	io.WriterAt
	io.ReaderAt
	Sync() error
	Close() error
	Size() int64
}

type fileBacking struct{ f *os.File }

func (b fileBacking) WriteAt(p []byte, off int64) (int, error) { return b.f.WriteAt(p, off) }
func (b fileBacking) ReadAt(p []byte, off int64) (int, error)  { return b.f.ReadAt(p, off) }
func (b fileBacking) Sync() error                              { return b.f.Sync() }
func (b fileBacking) Close() error                             { return b.f.Close() }
func (b fileBacking) Size() int64 {
	fi, err := b.f.Stat()
	if err != nil {
		return 0
	}
	return fi.Size()
}

type memBacking struct {
	mu  sync.Mutex
	buf []byte
}

func (b *memBacking) WriteAt(p []byte, off int64) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	end := off + int64(len(p))
	if n := int(end) - len(b.buf); n > 0 {
		// Grow's capacity is append's: geometric, and zero beyond the old length.
		b.buf = slices.Grow(b.buf, n)[:end]
	}
	copy(b.buf[off:end], p)
	return len(p), nil
}

func (b *memBacking) ReadAt(p []byte, off int64) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if off >= int64(len(b.buf)) {
		return 0, io.EOF
	}
	n := copy(p, b.buf[off:])
	if n < len(p) {
		return n, io.ErrUnexpectedEOF
	}
	return n, nil
}

func (b *memBacking) Sync() error  { return nil }
func (b *memBacking) Close() error { return nil }
func (b *memBacking) Size() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return int64(len(b.buf))
}

// RankLogMu is Log.mu's position in the server's lock hierarchy
// (internal/server/lockorder.go): the innermost rank — commit paths may reach
// the log while holding the transaction table, never the reverse.
const RankLogMu lockcheck.Rank = 60

// The log buffer: a fixed set of fixed-size buffers the Log owns and recycles.
// 2 x 4 MB: one buffer rides a sync round while appends fill the other, and a
// round never starts before the previous one ended, so two sessions that
// alternate commits never find the set empty.
const (
	logBufs    = 2
	logBufSize = 4 << 20
)

// Log is an append-only write-ahead log with group commit. Safe for
// concurrent use: committers that arrive while a sync is in flight park on
// a condition variable and are woken when the leader's sync covers their
// LSN, so N concurrent commits share ~1 fsync.
//
// Records not yet durable live in the log buffer, a ring of logBufs slots in
// LSN order: slots first, first+1, ... (sealed of them) are closed to appends
// and wait for a round — or ride the one in flight — and the slot after them
// is the one Append encodes into. A slot returns to the free set only when its
// bytes are durable, so a failed round leaves them where they were and the
// next round writes them again. With every slot sealed an appender leads a
// round, or waits for the one in flight: the log's memory is bounded by the
// set, whatever the size of a transaction.
type Log struct {
	mu       lockcheck.Mutex
	syncDone sync.Cond // broadcast at the end of every sync round
	back     Backing
	bufs     [logBufs][]byte // guarded by mu; a slot is nil until first used, and sealed slots are the round leader's to read
	first    int             // guarded by mu; slot holding the oldest non-durable byte, the one at flushed
	sealed   int             // guarded by mu; slots from first on that are closed to appends
	nextLSN  page.LSN        // guarded by mu; LSN of the next record to append
	flushed  page.LSN        // guarded by mu; all bytes below this are durable
	syncing  bool            // guarded by mu; a leader is writing+syncing outside the lock
	closed   bool            // guarded by mu

	// lost is set by init when the record at the recovered end is broken but
	// its stored length leads to a record that checks out: rot in the middle
	// of history, not a tail lost to a crash. Verify reports it.
	lost *page.CorruptError

	appends int64 // guarded by mu
	flushes int64 // guarded by mu
	syncs   int64 // guarded by mu
	grouped int64 // guarded by mu
}

// LogStats are cumulative log counters. Under group commit Syncs stays far
// below Flushes: followers whose LSN was covered by another caller's sync
// count as GroupedCommits instead of paying their own.
type LogStats struct {
	Appends        int64 // records buffered
	Flushes        int64 // Flush calls
	Syncs          int64 // physical write+sync rounds against the backing
	GroupedCommits int64 // Flush calls made durable by another caller's sync
}

// firstLSN is the LSN of the first record: offsets start after a small file
// header so that LSN 0 can mean "none".
const firstLSN = page.LSN(8)

// logMagic opens the file: four bytes of magic and the format version.
// Version 2 split an update record's offset word in two and gave all-zero
// images their flagged length; version 3 added the redo-only TRedo record;
// version 4 dropped the compensation record and the undo-chain word of the
// update record; version 5 is the varint codec (encode), whose frame puts the
// CRC first and the length under it. A version-4 record read as version 5
// would fail its CRC, and the log would open as if it ended at its first
// record: older logs are refused by name (ErrOldFormat), not misread.
var logMagic = []byte{0xBE, 0x55, 0x10, 0x60, 0, 0, 0, 5}

// OpenFile opens (creating if absent) a file-backed log, scanning to find
// the durable end.
func OpenFile(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{back: fileBacking{f}}
	if err := l.init(); err != nil {
		// Preserve err's identity when the cleanup Close succeeds.
		if cerr := f.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return nil, err
	}
	return l, nil
}

// Open opens (creating if empty) a log over an arbitrary backing — the
// entry point for fault-injected media; OpenFile/NewMem are conveniences
// over the same path.
func Open(b Backing) (*Log, error) {
	l := &Log{back: b}
	if err := l.init(); err != nil {
		return nil, err
	}
	return l, nil
}

// NewMem returns a memory-backed log (tests and crash simulation).
func NewMem() *Log {
	l := &Log{back: &memBacking{}}
	if err := l.init(); err != nil {
		panic(err) // memBacking cannot fail
	}
	return l
}

// OpenMemFrom rebuilds a memory log from a durable image produced by
// DurableBytes — the crash-recovery entry point for tests.
func OpenMemFrom(img []byte) (*Log, error) {
	l := &Log{back: &memBacking{buf: append([]byte(nil), img...)}}
	if err := l.init(); err != nil {
		return nil, err
	}
	return l, nil
}

// init finishes constructing a Log that no other goroutine can see yet.
//
//bess:prepublish
func (l *Log) init() error {
	l.mu.Init("Log.mu", RankLogMu)
	l.syncDone.L = &l.mu
	size := l.back.Size()
	if size == 0 {
		if _, err := l.back.WriteAt(logMagic, 0); err != nil {
			return err
		}
		if err := l.back.Sync(); err != nil {
			return err
		}
		l.nextLSN, l.flushed = firstLSN, firstLSN
		return nil
	}
	hdr := make([]byte, 8)
	if _, err := l.back.ReadAt(hdr, 0); err != nil {
		return err
	}
	if !bytes.Equal(hdr[:4], logMagic[:4]) {
		return fmt.Errorf("wal: bad log magic")
	}
	if have, want := binary.BigEndian.Uint32(hdr[4:]), binary.BigEndian.Uint32(logMagic[4:]); have < want {
		return fmt.Errorf("%w (format version %d, want %d)", ErrOldFormat, have, want)
	} else if have > want {
		return fmt.Errorf("wal: log format version %d, this build reads %d", have, want)
	}
	// Scan to the last valid record: a torn tail ends the log.
	r := logReader{back: l.back, limit: size, ahead: readAhead}
	lsn := firstLSN
	for {
		rec, next, err := r.next(lsn, false)
		if err != nil || rec == nil {
			break
		}
		lsn = next
	}
	l.nextLSN, l.flushed = lsn, lsn
	return l.cutTail(&r, size)
}

// cutTail zeroes the file from the recovered end to its size. A write of
// several sectors is not atomic, so a later record of the tail a crash cut off
// can be intact on the platter; records are often the same length, so a new
// record can end exactly where that one starts, and the next open would walk
// into it — an update of a transaction that never committed. The zeroes are
// forced before the log takes an append.
//
// Before the evidence goes, the one thing it can show is recorded for Verify: a
// broken record whose stored length leads to a record that checks out is rot in
// the middle of history, not a tail lost to a crash. (A rotted record whose
// length was destroyed too cannot be told from a torn tail in a
// length-prefixed log.)
//
//bess:prepublish
func (l *Log) cutTail(r *logReader, size int64) error {
	end := int64(l.flushed)
	if end >= size {
		return nil
	}
	if hdr, n := r.frame(page.LSN(end)); n > 0 {
		if rec, _, _ := r.next(page.LSN(end+int64(hdr+n)), false); rec != nil {
			l.lost = &page.CorruptError{Section: "wal", Off: end, Len: hdr + n, Err: ErrCorrupt}
		}
	}
	zero := make([]byte, min(size-end, 1<<20))
	for off := end; off < size; off += int64(len(zero)) {
		if _, err := l.back.WriteAt(zero[:min(int64(len(zero)), size-off)], off); err != nil {
			return err
		}
	}
	return l.back.Sync()
}

// Append buffers rec and returns its LSN. The record is durable only after
// a Flush covering the LSN. rec is encoded before Append returns, so the
// caller keeps ownership of every slice it points to. The record is encoded
// in place, into the log buffer and under the lock — where it has to be: its
// references to earlier records are distances back from its own LSN. One copy
// of each image, no allocation. The room reserved is the record's widest
// encoding, since a reservation that waits for a sync round can see other
// appends take the LSN that was next when it began. The CRC runs under the
// lock as well: at the 21 GB/s the benchmark's floor.crc32c_GBps row measures,
// a whole-page record's is 0.2 us of hold time, not worth a reserve-then-fill
// protocol to move outside.
//
// TestAppendAllocatesNothing pins its allocation budget.
func (l *Log) Append(rec *Record) (page.LSN, error) {
	zb, za := rec.zeroImages()
	widest := rec.sizeAt(0, zb, za)
	if widest > maxBody {
		return 0, ErrUnencodable
	}
	ref := rec.latestRef()
	l.mu.Lock()
	defer l.mu.Unlock()
	if ref >= l.nextLSN {
		return 0, ErrUnencodable
	}
	slot, err := l.reserve(frameSize(widest))
	if err != nil {
		return 0, err
	}
	lsn := l.nextLSN
	b := l.bufs[slot]
	at := len(b)
	b = binary.AppendUvarint(b[:at+crcSize], uint64(rec.sizeAt(lsn, zb, za)))
	b = rec.encode(b, lsn, zb, za)
	binary.BigEndian.PutUint32(b[at:], page.Checksum(b[at+crcSize:]))
	l.bufs[slot] = b
	l.nextLSN += page.LSN(len(b) - at)
	l.appends++
	rec.lsn = lsn
	return lsn, nil
}

// reserve returns the slot whose buffer has room for need more bytes, sealing
// the current one if it has not. With every slot sealed it leads a sync round,
// or waits for the one in flight: the appender is held back, the log never
// grows past its set.
func (l *Log) reserve(need int) (int, error) {
	l.mu.AssertHeld()
	for {
		if l.closed {
			return 0, ErrClosed
		}
		if l.sealed == logBufs {
			if l.syncing {
				l.syncDone.Wait()
			} else if err := l.syncRound(); err != nil {
				return 0, err
			}
			continue
		}
		slot := (l.first + l.sealed) % logBufs
		b := l.bufs[slot]
		switch {
		case len(b)+need <= cap(b):
			return slot, nil
		case len(b) > 0:
			l.sealed++
		default:
			// The slot's first use — or a record larger than a buffer, which
			// gets a buffer of its own that release drops.
			l.bufs[slot] = make([]byte, 0, max(need, logBufSize))
		}
	}
}

// release returns a slot whose bytes are durable to the free set.
func (l *Log) release(slot int) {
	l.mu.AssertHeld()
	if cap(l.bufs[slot]) > logBufSize {
		l.bufs[slot] = nil
	} else {
		l.bufs[slot] = l.bufs[slot][:0]
	}
}

// Flush forces the log: on return every record with LSN <= upTo is durable
// (0 = everything buffered at entry) — the WAL force at commit. Concurrent
// callers form a group commit: one leader writes and syncs the accumulated
// buffers for the whole group while the rest park on a condition variable.
func (l *Log) Flush(upTo page.LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.flushes++
	return l.flushTo(l.target(upTo))
}

// target converts Flush's inclusive record LSN into the exclusive byte
// offset the log must be durable through. The durable frontier only moves
// in whole records, so upTo+1 covers the record starting at upTo.
func (l *Log) target(upTo page.LSN) page.LSN {
	l.mu.AssertHeld()
	if upTo == 0 || upTo >= l.nextLSN {
		return l.nextLSN
	}
	return upTo + 1
}

// flushTo blocks until the log is durable through target, which the caller
// read under this hold of l.mu: a round it leads takes everything appended so
// far, so one round covers it.
func (l *Log) flushTo(target page.LSN) error {
	l.mu.AssertHeld()
	waited := false
	for {
		if l.closed {
			return ErrClosed
		}
		// <=, not <: an already-durable target must not rewrite and
		// re-sync the buffers.
		if target <= l.flushed {
			if waited {
				l.grouped++
			}
			return nil
		}
		if !l.syncing {
			return l.syncRound()
		}
		waited = true
		l.syncDone.Wait()
	}
}

// syncRound leads one round: it seals the buffer appends are going into and
// writes and syncs every sealed buffer outside the lock, so appends (into the
// next free slot) and later committers keep running; they ride this round if
// it covers them, or lead the next one. Called with l.mu held and no round in
// flight; returns with it held. On error nothing is released: the bytes stay
// sealed for the next round, and woken followers retry leadership and surface
// their own error.
func (l *Log) syncRound() error {
	l.mu.AssertHeld()
	if l.sealed < logBufs && len(l.bufs[(l.first+l.sealed)%logBufs]) > 0 {
		l.sealed++
	}
	var round [logBufs][]byte
	k := l.sealed
	for i := range round[:k] {
		round[i] = l.bufs[(l.first+i)%logBufs]
	}
	off := int64(l.flushed)
	l.syncing = true
	l.mu.Unlock()
	var err error
	for _, b := range round[:k] {
		if _, err = l.back.WriteAt(b, off); err != nil {
			break
		}
		off += int64(len(b))
	}
	if err == nil {
		err = l.back.Sync()
	}
	l.mu.Lock()
	l.syncing = false
	if err == nil {
		for ; k > 0; k-- {
			l.release(l.first)
			l.first = (l.first + 1) % logBufs
			l.sealed--
		}
		l.flushed = page.LSN(off)
		l.syncs++
	}
	l.syncDone.Broadcast()
	return err
}

// Durable returns the proof that tx's commit record, at commit, is durable —
// ErrNotDurable until the log is forced through it.
func (l *Log) Durable(tx uint64, commit page.LSN) (Durable, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if commit < firstLSN || commit >= l.flushed {
		return Durable{}, ErrNotDurable
	}
	return Durable{tx: tx, commit: commit}, nil
}

// NextLSN returns the LSN the next Append will get.
func (l *Log) NextLSN() page.LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// Stats reports cumulative log counters.
func (l *Log) Stats() LogStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LogStats{Appends: l.appends, Flushes: l.flushes, Syncs: l.syncs, GroupedCommits: l.grouped}
}

// readAhead is how far a walk of the log reads beyond the record it is at.
const readAhead = 256 << 10

// logReader reads records through one window of the file: a walk takes one
// ReadAt per readAhead bytes instead of two per record. It never reads at or
// past limit, so with limit at the durable frontier it never meets the bytes
// of a round in flight.
type logReader struct {
	back  Backing
	limit int64
	ahead int    // bytes to read beyond what a call asks for
	win   []byte // the file's bytes [at, at+len(win))
	at    int64
	rec   Record // what next decodes into without own
}

// bytes returns the n bytes of the file at off, nil if it does not hold them
// below limit. The result is valid until the next call.
func (r *logReader) bytes(off int64, n int) []byte {
	if off < r.at || off+int64(n) > r.at+int64(len(r.win)) {
		if off+int64(n) > r.limit {
			return nil
		}
		want := int(min(int64(max(n, r.ahead)), r.limit-off))
		if cap(r.win) < want {
			r.win = make([]byte, want)
		}
		got, _ := r.back.ReadAt(r.win[:want], off) // any failure reads as the end of the log
		r.win, r.at = r.win[:got], off
		if got < n {
			return nil
		}
	}
	i := int(off - r.at)
	return r.win[i : i+n]
}

// frame returns the size of the frame at lsn (CRC and length) and the body
// length it stores; 0, 0 if no frame is there or the length is not one Append
// writes. Nothing is checked against the CRC yet.
func (r *logReader) frame(lsn page.LSN) (hdr, n int) {
	if int64(lsn) >= r.limit {
		return 0, 0
	}
	b := r.bytes(int64(lsn), int(min(crcSize+binary.MaxVarintLen32, r.limit-int64(lsn))))
	if len(b) <= crcSize {
		return 0, 0
	}
	v, k := binary.Uvarint(b[crcSize:])
	if k <= 0 || v < minBody || v > maxBody {
		return 0, 0
	}
	return crcSize + k, int(v)
}

// next decodes the record at lsn and returns the LSN after it. A nil record
// with a nil error means no valid record starts at lsn: the clean end of the
// log, a torn tail, or rot. With own the record and its bytes are its own, as
// decodeRecord promises its callers; without, the record is the reader's and
// its images alias the window, both gone with the next call.
func (r *logReader) next(lsn page.LSN, own bool) (*Record, page.LSN, error) {
	hdr, n := r.frame(lsn)
	if n == 0 {
		return nil, lsn, nil
	}
	b := r.bytes(int64(lsn), hdr+n)
	if b == nil || page.Checksum(b[crcSize:]) != binary.BigEndian.Uint32(b) {
		return nil, lsn, nil
	}
	body, rec := b[hdr:], &r.rec
	if own {
		body, rec = bytes.Clone(body), new(Record)
	}
	if err := rec.decode(body, lsn); err != nil {
		return nil, lsn, fmt.Errorf("wal: record at lsn %d: %w", lsn, err)
	}
	rec.lsn = lsn
	return rec, lsn + page.LSN(len(b)), nil
}

// durable returns the durable frontier and a reader of the records below it.
func (l *Log) durable(ahead int) (page.LSN, logReader) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushed, logReader{back: l.back, limit: int64(l.flushed), ahead: ahead}
}

// VerifyStats summarizes one Verify walk.
type VerifyStats struct {
	Records int   // records that re-verified clean
	Bytes   int64 // durable bytes covered
}

// Verify re-checks the CRC of every record below the durable frontier, where
// a failure can only be bit rot (the bytes were once synced and valid), and
// reports what open found past the end it recovered: a broken record followed
// by a decodable one is mid-log corruption, which the scan for the end alone
// would silently treat as a torn tail (cutTail). Corruption is reported as a
// *page.CorruptError wrapping ErrCorrupt with the record's LSN as the byte
// offset.
func (l *Log) Verify() (VerifyStats, error) {
	end, r := l.durable(readAhead)
	var st VerifyStats
	for lsn := firstLSN; lsn < end; {
		rec, next, err := r.next(lsn, false)
		if err != nil {
			return st, err
		}
		if rec == nil {
			return st, &page.CorruptError{
				Section: "wal", Off: int64(lsn), Len: crcSize, Err: ErrCorrupt,
			}
		}
		st.Records++
		lsn = next
	}
	st.Bytes = int64(end)
	if l.lost != nil {
		return st, l.lost
	}
	return st, nil
}

// Iterate calls fn for every durable record with LSN >= from (use firstLSN
// or a checkpoint LSN). Stops at the first error.
func (l *Log) Iterate(from page.LSN, fn func(lsn page.LSN, rec *Record) error) error {
	return l.walk(from, true, fn)
}

// walk is Iterate; without own, the record fn gets, with its images and body,
// is the reader's and is gone once fn returns (logReader.next).
func (l *Log) walk(from page.LSN, own bool, fn func(lsn page.LSN, rec *Record) error) error {
	end, r := l.durable(readAhead)
	for lsn := max(from, firstLSN); lsn < end; {
		rec, next, err := r.next(lsn, own)
		if err != nil {
			return err
		}
		if rec == nil {
			return nil
		}
		if err := fn(lsn, rec); err != nil {
			return err
		}
		lsn = next
	}
	return nil
}

// ReadRecord returns the durable record at lsn.
func (l *Log) ReadRecord(lsn page.LSN) (*Record, error) {
	_, r := l.durable(0)
	rec, _, err := r.next(lsn, true)
	if err != nil {
		return nil, err
	}
	if rec == nil {
		// Keep the sentinel identity (errors.Is) while telling the operator
		// which byte offset of the log file failed its checksum.
		return nil, fmt.Errorf("wal: no valid record at byte offset %d: %w", lsn, ErrCorrupt)
	}
	return rec, nil
}

// DurableBytes snapshots the flushed log image (crash simulation).
func (l *Log) DurableBytes() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]byte, l.flushed)
	if _, err := l.back.ReadAt(out, 0); err != nil && !errors.Is(err, io.EOF) {
		return out[:0]
	}
	return out
}

// FirstLSN exposes the start-of-log LSN.
func FirstLSN() page.LSN { return firstLSN }

// Close flushes and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	if err := l.flushTo(l.nextLSN); err != nil && err != ErrClosed {
		return err
	}
	// Wait out any round still in flight for later appends before closing
	// the backing underneath it.
	for l.syncing {
		l.syncDone.Wait()
	}
	if l.closed {
		return nil
	}
	l.closed = true
	return l.back.Close()
}
