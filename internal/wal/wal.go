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
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
	_            // 2: retired (the compensation record); a v4 log holds none
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

	pending Pending // see Record.Pending
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
// write is pending its transaction's commit: Append stamps it into the record
// it has taken, and records read back from the log carry theirs
// (Record.Pending). It is not a Logged, and no page store takes it: the
// page's write waits for the transaction's commit record, not for this one.
// Durable.Proof makes it a Logged once that record is durable.
type Pending struct {
	page page.ID
	tx   uint64
	lsn  page.LSN
}

// Page is the page the record changes.
func (r Pending) Page() page.ID { return r.page }

// Pending returns r's redo-only token: zero until Append has taken r or
// unless r was read from the log, and for every record that is not a TRedo.
func (r *Record) Pending() Pending { return r.pending }

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

// stamp makes r, the record at lsn, carry its redo-only token.
func (r *Record) stamp(lsn page.LSN) {
	if r.Type == TRedo {
		r.pending = Pending{page: r.Page, tx: r.Tx, lsn: lsn}
	}
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
	// ErrOffset is Append's answer to an Off or UndoOff the record's offset
	// word cannot hold.
	ErrOffset = errors.New("wal: record offset out of range")
	// ErrOldFormat is Open's answer to a log whose records an older build
	// encoded differently.
	ErrOldFormat = errors.New("wal: the log was written by an older build; this build cannot read it")
	// ErrNotDurable is Log.Durable's answer before the log is forced through
	// the commit record, and Durable.Proof's to a record it does not cover.
	ErrNotDurable = errors.New("wal: commit record not durable")
)

const recHeaderSize = 4 + 4 // length + crc

// A page record stores an image that is all zero — what a page nothing was
// ever written to holds, what a zeroed range becomes — as its length alone,
// with zeroImage set in the length word; decoding hands such an image back as
// a slice of zeroes, so readers of a Record never see it. A TUpdate stores its
// two offsets in one word, Off in the low half and UndoOff in the high half,
// so offsets stop at maxOff; a TRedo's offset word holds Off alone, and it has
// no before-image length.
const (
	offBits   = 16
	maxOff    = 1<<offBits - 1
	zeroImage = 1 << 31
)

// zeroes backs every image decoded from a length alone. Nothing writes to it.
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

// sizeOf is the exact size of r's body as encode writes it: what Append
// reserves in the log buffer before it encodes.
func (r *Record) sizeOf(zeroBefore, zeroAfter bool) int {
	n := 1 + 8 + 8 // type, tx, prevLSN
	switch r.Type {
	case TUpdate:
		n += 4 + 8 + 4 + 4 + 4
		if !zeroBefore {
			n += len(r.Before)
		}
		if !zeroAfter {
			n += len(r.After)
		}
	case TRedo:
		n += 4 + 8 + 4 + 4
		if !zeroAfter {
			n += len(r.After)
		}
	case TCheckpoint:
		n += 4 + 4 + 20*len(r.DirtyPages)
	case TCatalog:
		n += len(r.Body)
	}
	return n
}

// Footprint says where the log's bytes for one record go.
type Footprint struct {
	Header int // length, CRC and every field that is not an image
	Before int // undo image bytes stored
	After  int // redo image bytes stored
	// Image bytes not stored, the image being all zero and kept as its length.
	ZeroBefore, ZeroAfter int
}

// Footprint measures r as Append encodes it.
func (r *Record) Footprint() Footprint {
	zb, za := r.zeroImages()
	f := Footprint{Before: len(r.Before), After: len(r.After)}
	if r.Type == TRedo {
		f.Before = 0 // the codec writes no undo half
	}
	if zb {
		f.Before, f.ZeroBefore = 0, len(r.Before)
	}
	if za {
		f.After, f.ZeroAfter = 0, len(r.After)
	}
	f.Header = recHeaderSize + r.sizeOf(zb, za) - f.Before - f.After
	return f
}

// appendImage writes one image: its length and bytes, or for an all-zero one
// its flagged length.
func appendImage(b, img []byte, zero bool) []byte {
	if zero {
		return binary.BigEndian.AppendUint32(b, uint32(len(img))|zeroImage)
	}
	return append(binary.BigEndian.AppendUint32(b, uint32(len(img))), img...)
}

// encode serializes r (excluding the length/crc header) onto b.
func (r *Record) encode(b []byte, zeroBefore, zeroAfter bool) []byte {
	be := binary.BigEndian
	b = append(b, byte(r.Type))
	b = be.AppendUint64(b, r.Tx)
	b = be.AppendUint64(b, uint64(r.PrevLSN))
	switch r.Type {
	case TUpdate:
		b = be.AppendUint32(b, uint32(r.Page.Area))
		b = be.AppendUint64(b, uint64(r.Page.Page))
		b = be.AppendUint32(b, r.Off|r.UndoOff<<offBits)
		b = appendImage(b, r.Before, zeroBefore)
		b = appendImage(b, r.After, zeroAfter)
	case TRedo:
		b = be.AppendUint32(b, uint32(r.Page.Area))
		b = be.AppendUint64(b, uint64(r.Page.Page))
		b = be.AppendUint32(b, r.Off)
		b = appendImage(b, r.After, zeroAfter)
	case TCheckpoint:
		// The first word counts a list of (tx, last LSN) pairs that earlier
		// builds wrote and restart no longer reads (decodeRecord skips it).
		b = be.AppendUint32(b, 0)
		b = be.AppendUint32(b, uint32(len(r.DirtyPages)))
		for _, e := range r.DirtyPages {
			b = be.AppendUint32(b, uint32(e.Page.Area))
			b = be.AppendUint64(b, uint64(e.Page.Page))
			b = be.AppendUint64(b, uint64(e.RecLSN))
		}
	case TCatalog:
		b = append(b, r.Body...)
	}
	return b
}

// decodeRecord parses a record body. The record's Before, After and Body alias
// b: logReader.next hands every record that leaves the package a buffer of its
// own.
func decodeRecord(b []byte) (*Record, error) {
	if len(b) < 17 {
		return nil, ErrCorrupt
	}
	r := &Record{Type: Type(b[0])}
	r.Tx = binary.BigEndian.Uint64(b[1:9])
	r.PrevLSN = page.LSN(binary.BigEndian.Uint64(b[9:17]))
	p := b[17:]
	u32 := func() (uint32, error) {
		if len(p) < 4 {
			return 0, ErrCorrupt
		}
		v := binary.BigEndian.Uint32(p[:4])
		p = p[4:]
		return v, nil
	}
	u64 := func() (uint64, error) {
		if len(p) < 8 {
			return 0, ErrCorrupt
		}
		v := binary.BigEndian.Uint64(p[:8])
		p = p[8:]
		return v, nil
	}
	switch r.Type {
	case TUpdate, TRedo:
		area, err := u32()
		if err != nil {
			return nil, err
		}
		pg, err := u64()
		if err != nil {
			return nil, err
		}
		r.Page = page.ID{Area: page.AreaID(area), Page: page.No(pg)}
		off, err := u32()
		if err != nil {
			return nil, err
		}
		image := func() ([]byte, error) {
			n, err := u32()
			switch {
			case err != nil:
				return nil, err
			case n&zeroImage != 0:
				if n &^= zeroImage; n == 0 || int(n) > len(zeroes) {
					return nil, ErrCorrupt
				}
				return zeroes[:n:n], nil
			case int(n) > len(p):
				return nil, ErrCorrupt
			case n == 0:
				return nil, nil
			}
			img := p[:n:n]
			p = p[n:]
			return img, nil
		}
		if r.Type == TRedo {
			r.Off = off
		} else {
			r.Off, r.UndoOff = off&maxOff, off>>offBits
			if r.Before, err = image(); err != nil {
				return nil, err
			}
		}
		if r.After, err = image(); err != nil {
			return nil, err
		}
	case TCheckpoint:
		n, err := u32()
		if err != nil {
			return nil, err
		}
		if uint64(n)*16 > uint64(len(p)) {
			return nil, ErrCorrupt
		}
		p = p[n*16:]
		n, err = u32()
		if err != nil {
			return nil, err
		}
		for i := uint32(0); i < n; i++ {
			area, err := u32()
			if err != nil {
				return nil, err
			}
			pg, err := u64()
			if err != nil {
				return nil, err
			}
			l, err := u64()
			if err != nil {
				return nil, err
			}
			r.DirtyPages = append(r.DirtyPages, CkptPage{
				Page:   page.ID{Area: page.AreaID(area), Page: page.No(pg)},
				RecLSN: page.LSN(l),
			})
		}
	case TCatalog:
		if len(p) > 0 {
			r.Body = p[:len(p):len(p)]
		}
	case TCommit, TAbort, TEnd, TPrepare:
		// header only
	default:
		return nil, ErrCorrupt
	}
	return r, nil
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
// update record, so a version-3 log's records would misread. Older logs are
// refused, not misread.
var logMagic = []byte{0xBE, 0x55, 0x10, 0x60, 0, 0, 0, 4}

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
// length prefix was destroyed too cannot be told from a torn tail in a
// length-prefixed log.)
//
//bess:prepublish
func (l *Log) cutTail(r *logReader, size int64) error {
	end := int64(l.flushed)
	if end >= size {
		return nil
	}
	if n := r.bodyLen(page.LSN(end)); n > 0 {
		if rec, _, _ := r.next(page.LSN(end+recHeaderSize+int64(n)), false); rec != nil {
			l.lost = &page.CorruptError{Section: "wal", Off: end, Len: recHeaderSize + n, Err: ErrCorrupt}
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
// in place, into the log buffer and under the lock: one copy of each image, no
// allocation. The CRC runs under the lock as well: at the 21 GB/s the
// benchmark's floor.crc32c_GBps row measures, a whole-page record's is 0.2 us
// of hold time, not worth a reserve-then-fill protocol to move outside.
//
//bess:hotpath
func (l *Log) Append(rec *Record) (page.LSN, error) {
	if rec.Off > maxOff || rec.UndoOff > maxOff {
		return 0, ErrOffset
	}
	zb, za := rec.zeroImages()
	n := rec.sizeOf(zb, za)
	l.mu.Lock()
	defer l.mu.Unlock()
	slot, err := l.reserve(recHeaderSize + n)
	if err != nil {
		return 0, err
	}
	b := l.bufs[slot]
	at := len(b)
	b = rec.encode(b[:at+recHeaderSize], zb, za)
	binary.BigEndian.PutUint32(b[at:], uint32(n))
	binary.BigEndian.PutUint32(b[at+4:], page.Checksum(b[at+recHeaderSize:]))
	l.bufs[slot] = b
	lsn := l.nextLSN
	l.nextLSN += page.LSN(recHeaderSize + n)
	l.appends++
	rec.stamp(lsn)
	return lsn, nil
}

// reserve returns the slot whose buffer has room for need more bytes, sealing
// the current one if it has not. With every slot sealed it leads a sync round,
// or waits for the one in flight: the appender is held back, the log never
// grows past its set.
//
//bess:holds mu
func (l *Log) reserve(need int) (int, error) {
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
//
//bess:holds mu
func (l *Log) release(slot int) {
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
//
//bess:holds mu
func (l *Log) target(upTo page.LSN) page.LSN {
	if upTo == 0 || upTo >= l.nextLSN {
		return l.nextLSN
	}
	return upTo + 1
}

// flushTo blocks until the log is durable through target, which the caller
// read under this hold of l.mu: a round it leads takes everything appended so
// far, so one round covers it.
//
//bess:holds mu
func (l *Log) flushTo(target page.LSN) error {
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
//
//bess:holds mu
func (l *Log) syncRound() error {
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

// FlushedLSN returns the first non-durable LSN.
func (l *Log) FlushedLSN() page.LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushed
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

// bodyLen returns the body length the record header at lsn stores, 0 if no
// header is there or the length is not one Append writes.
func (r *logReader) bodyLen(lsn page.LSN) int {
	hdr := r.bytes(int64(lsn), recHeaderSize)
	if hdr == nil {
		return 0
	}
	if n := binary.BigEndian.Uint32(hdr); n <= 1<<26 {
		return int(n)
	}
	return 0
}

// next decodes the record at lsn and returns the LSN after it. A nil record
// with a nil error means no valid record starts at lsn: the clean end of the
// log, a torn tail, or rot. With own the record gets bytes of its own, as
// decodeRecord promises its callers; without, its images alias the window and
// are gone with the next call.
func (r *logReader) next(lsn page.LSN, own bool) (*Record, page.LSN, error) {
	n := r.bodyLen(lsn)
	if n == 0 {
		return nil, lsn, nil
	}
	b := r.bytes(int64(lsn), recHeaderSize+n)
	if b == nil || page.Checksum(b[recHeaderSize:]) != binary.BigEndian.Uint32(b[4:8]) {
		return nil, lsn, nil
	}
	body := b[recHeaderSize:]
	if own {
		body = bytes.Clone(body)
	}
	rec, err := decodeRecord(body)
	if err != nil {
		return nil, lsn, fmt.Errorf("wal: record at lsn %d: %w", lsn, err)
	}
	rec.stamp(lsn)
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
				Section: "wal", Off: int64(lsn), Len: recHeaderSize, Err: ErrCorrupt,
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
	end, r := l.durable(readAhead)
	for lsn := max(from, firstLSN); lsn < end; {
		rec, next, err := r.next(lsn, true)
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
