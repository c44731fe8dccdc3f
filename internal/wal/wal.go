// Package wal implements the BeSS write-ahead log: an ARIES-like protocol
// (paper §3, reference [21]) with physical byte-range update records,
// compensation log records (CLRs), fuzzy checkpoints, and a three-pass
// restart (analysis, redo, undo).
//
// Redo is physical (copy the after-image to the page at the recorded
// offset) and therefore idempotent, so pages need not carry a pageLSN:
// restart always repeats history from the checkpoint's redo point and then
// rolls back losers under CLR protection, exactly in ARIES style.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"bess/internal/lockcheck"
	"bess/internal/page"
)

// Type is a log record type.
type Type uint8

// Log record types.
const (
	TUpdate Type = iota + 1
	TCLR
	TCommit
	TAbort // transaction rollback complete
	TEnd   // transaction removed from the table (after commit or abort)
	TCheckpoint
	TPrepare // 2PC: participant vote logged and forced; tx is in-doubt until decision
	// TCatalog is a redo-only catalog change. Its Body is opaque here — the
	// server encodes, decodes and replays it (server/catalog.go); it belongs to
	// no transaction, and every walker of page history passes over it.
	TCatalog
)

// String names the record type.
func (t Type) String() string {
	switch t {
	case TUpdate:
		return "update"
	case TCLR:
		return "clr"
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
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// CkptTx is an active-transaction-table entry in a checkpoint record.
type CkptTx struct {
	Tx      uint64
	LastLSN page.LSN
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

	// Update / CLR fields.
	Page     page.ID
	Off      uint32   // byte offset within the page
	Before   []byte   // undo image (empty for CLRs)
	After    []byte   // redo image
	UndoNext page.LSN // CLR: next record to undo

	// Checkpoint fields.
	ActiveTxs  []CkptTx
	DirtyPages []CkptPage

	// Catalog record: the rest of the record, as the server wrote it.
	Body []byte
}

// WholePage reports whether r's redo image covers its entire page: such a
// record anchors replay (restart redo, repair) whatever the page held before.
func (r *Record) WholePage() bool { return r.Off == 0 && len(r.After) == page.Size }

// Errors returned by the log.
var (
	ErrCorrupt = errors.New("wal: corrupt record")
	ErrClosed  = errors.New("wal: closed")
)

const recHeaderSize = 4 + 4 // length + crc

// encodedLen is the exact size of r's body as appendTo writes it, so Append
// can size one buffer up front.
func (r *Record) encodedLen() int {
	n := 1 + 8 + 8 // type, tx, prevLSN
	switch r.Type {
	case TUpdate, TCLR:
		n += 4 + 8 + 4 + 8 + 4 + len(r.Before) + 4 + len(r.After)
	case TCheckpoint:
		n += 4 + 16*len(r.ActiveTxs) + 4 + 20*len(r.DirtyPages)
	case TCatalog:
		n += len(r.Body)
	}
	return n
}

// appendTo serializes r (excluding the length/crc header) onto b.
func (r *Record) appendTo(b []byte) []byte {
	be := binary.BigEndian
	b = append(b, byte(r.Type))
	b = be.AppendUint64(b, r.Tx)
	b = be.AppendUint64(b, uint64(r.PrevLSN))
	switch r.Type {
	case TUpdate, TCLR:
		b = be.AppendUint32(b, uint32(r.Page.Area))
		b = be.AppendUint64(b, uint64(r.Page.Page))
		b = be.AppendUint32(b, r.Off)
		b = be.AppendUint64(b, uint64(r.UndoNext))
		b = be.AppendUint32(b, uint32(len(r.Before)))
		b = append(b, r.Before...)
		b = be.AppendUint32(b, uint32(len(r.After)))
		b = append(b, r.After...)
	case TCheckpoint:
		b = be.AppendUint32(b, uint32(len(r.ActiveTxs)))
		for _, e := range r.ActiveTxs {
			b = be.AppendUint64(b, e.Tx)
			b = be.AppendUint64(b, uint64(e.LastLSN))
		}
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
// b: readAt hands every record a buffer of its own.
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
	case TUpdate, TCLR:
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
		r.Off = off
		un, err := u64()
		if err != nil {
			return nil, err
		}
		r.UndoNext = page.LSN(un)
		nb, err := u32()
		if err != nil || int(nb) > len(p) {
			return nil, ErrCorrupt
		}
		if nb > 0 {
			r.Before = p[:nb:nb]
		}
		p = p[nb:]
		na, err := u32()
		if err != nil || int(na) > len(p) {
			return nil, ErrCorrupt
		}
		if na > 0 {
			r.After = p[:na:na]
		}
		p = p[na:]
	case TCheckpoint:
		n, err := u32()
		if err != nil {
			return nil, err
		}
		for i := uint32(0); i < n; i++ {
			tx, err := u64()
			if err != nil {
				return nil, err
			}
			l, err := u64()
			if err != nil {
				return nil, err
			}
			r.ActiveTxs = append(r.ActiveTxs, CkptTx{Tx: tx, LastLSN: page.LSN(l)})
		}
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
	if end > int64(len(b.buf)) {
		g := make([]byte, end)
		copy(g, b.buf)
		b.buf = g
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

// RankLogMu is Log.mu's position in the server lock hierarchy declared in
// internal/server/lockorder.go (the innermost rank: commit paths may reach
// the log while holding a tx shard, never the reverse). The constant lives
// here because wal cannot import server.
const RankLogMu lockcheck.Rank = 60

// Log is an append-only write-ahead log with group commit. Safe for
// concurrent use: committers that arrive while a sync is in flight park on
// a condition variable and are woken when the leader's sync covers their
// LSN, so N concurrent commits share ~1 fsync.
type Log struct {
	mu       lockcheck.Mutex
	syncDone sync.Cond // broadcast at the end of every sync round
	back     Backing
	tail     []byte   // guarded by mu; buffered bytes not yet handed to a sync round
	tailAt   page.LSN // guarded by mu; byte offset of tail[0]
	nextLSN  page.LSN // guarded by mu; LSN of the next record to append
	flushed  page.LSN // guarded by mu; all bytes below this are durable
	syncing  bool     // guarded by mu; a leader is writing+syncing outside the lock
	closed   bool     // guarded by mu

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

var logMagic = []byte{0xBE, 0x55, 0x10, 0x60, 0, 0, 0, 1}

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
		l.nextLSN, l.flushed, l.tailAt = firstLSN, firstLSN, firstLSN
		return nil
	}
	hdr := make([]byte, 8)
	if _, err := l.back.ReadAt(hdr, 0); err != nil {
		return err
	}
	for i := 0; i < 4; i++ {
		if hdr[i] != logMagic[i] {
			return fmt.Errorf("wal: bad log magic")
		}
	}
	// Scan to the last valid record (a torn tail is truncated logically).
	lsn := firstLSN
	for {
		rec, next, err := l.readAt(lsn)
		if err != nil || rec == nil {
			break
		}
		lsn = next
	}
	l.nextLSN, l.flushed, l.tailAt = lsn, lsn, lsn
	return nil
}

// Append buffers rec and returns its LSN. The record is durable only after
// a Flush covering the LSN. rec is encoded before Append returns, so the
// caller keeps ownership of every slice it points to. The record is encoded
// once, outside the lock (the CRC of a whole-page image is not work to
// serialize committers on), and copied once, into the tail.
func (l *Log) Append(rec *Record) (page.LSN, error) {
	n := rec.encodedLen()
	buf := rec.appendTo(make([]byte, recHeaderSize, recHeaderSize+n))
	binary.BigEndian.PutUint32(buf[0:4], uint32(n))
	binary.BigEndian.PutUint32(buf[4:8], page.Checksum(buf[recHeaderSize:]))

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	lsn := l.nextLSN
	l.tail = append(l.tail, buf...)
	l.nextLSN += page.LSN(len(buf))
	l.appends++
	return lsn, nil
}

// Flush forces the log: on return every record with LSN <= upTo is durable
// (0 = everything buffered at entry) — the WAL force at commit. Concurrent
// callers form a group commit: one leader writes and syncs the accumulated
// tail for the whole group while the rest park on a condition variable.
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

// flushTo blocks until the log is durable through target. Called with l.mu
// held; returns with it held (the lock is dropped around the physical
// write+sync so appenders keep making progress).
//
//bess:holds mu
func (l *Log) flushTo(target page.LSN) error {
	waited := false
	for {
		if l.closed {
			return ErrClosed
		}
		// <=, not <: an already-durable target must not rewrite and
		// re-sync the tail.
		if target <= l.flushed {
			if waited {
				l.grouped++
			}
			return nil
		}
		if !l.syncing {
			break
		}
		waited = true
		l.syncDone.Wait()
	}
	// Leader: detach the accumulated tail and sync it outside the lock so
	// appends and later committers keep running; they ride this round if
	// its snapshot covers them, or lead the next one.
	buf, base := l.tail, l.tailAt
	l.tail, l.tailAt = nil, l.nextLSN
	l.syncing = true
	l.mu.Unlock()
	_, err := l.back.WriteAt(buf, int64(base))
	if err == nil {
		err = l.back.Sync()
	}
	l.mu.Lock()
	l.syncing = false
	if err != nil {
		// Put the unsynced bytes back in front of whatever was appended
		// meanwhile; woken followers retry leadership and surface their
		// own error.
		l.tail = append(buf, l.tail...)
		l.tailAt = base
		l.syncDone.Broadcast()
		return err
	}
	l.flushed = base + page.LSN(len(buf))
	l.syncs++
	l.syncDone.Broadcast()
	return nil
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

// readAt reads the durable record at lsn. Returns (nil, lsn, nil) at a clean
// end of log.
func (l *Log) readAt(lsn page.LSN) (*Record, page.LSN, error) {
	hdr := make([]byte, recHeaderSize)
	if _, err := l.back.ReadAt(hdr, int64(lsn)); err != nil {
		return nil, lsn, nil // end of log
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n == 0 || n > 1<<26 {
		return nil, lsn, nil
	}
	body := make([]byte, n)
	if _, err := l.back.ReadAt(body, int64(lsn)+recHeaderSize); err != nil {
		return nil, lsn, nil // torn record
	}
	if page.Checksum(body) != binary.BigEndian.Uint32(hdr[4:8]) {
		return nil, lsn, nil // torn/corrupt tail
	}
	rec, err := decodeRecord(body)
	if err != nil {
		return nil, lsn, fmt.Errorf("wal: record at lsn %d: %w", lsn, err)
	}
	return rec, lsn + page.LSN(recHeaderSize+len(body)), nil
}

// VerifyStats summarizes one Verify walk.
type VerifyStats struct {
	Records int   // records that re-verified clean
	Bytes   int64 // durable bytes covered
}

// Verify re-checks the CRC of every record below the durable frontier, where
// a failure can only be bit rot (the bytes were once synced and valid), and
// then probes past the frontier: a broken record followed by a decodable one
// is mid-log corruption — readAt alone would silently treat it as a torn
// tail and truncate history. Corruption is reported as a *page.CorruptError
// wrapping ErrCorrupt with the record's LSN as the byte offset.
//
// A rotted record whose length prefix was also destroyed is indistinguishable
// from a torn tail in a length-prefixed log; the probe covers the common
// single-record rot, and the frontier walk covers everything a live server
// has flushed.
func (l *Log) Verify() (VerifyStats, error) {
	l.mu.Lock()
	end := l.flushed
	l.mu.Unlock()
	var st VerifyStats
	lsn := firstLSN
	for lsn < end {
		rec, next, err := l.readAt(lsn)
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
	// Past the frontier (a reopened log stops its scan at the first invalid
	// record): if the stored length leads to a record that checks out, the
	// break is rot in the middle of history, not a tail lost to a crash.
	if rec, _, _ := l.readAt(end); rec == nil {
		hdr := make([]byte, recHeaderSize)
		if _, err := l.back.ReadAt(hdr, int64(end)); err == nil {
			n := binary.BigEndian.Uint32(hdr[0:4])
			if n > 0 && n <= 1<<26 {
				probe := end + page.LSN(recHeaderSize) + page.LSN(n)
				if rec2, _, _ := l.readAt(probe); rec2 != nil {
					return st, &page.CorruptError{
						Section: "wal", Off: int64(end), Len: int(recHeaderSize + n), Err: ErrCorrupt,
					}
				}
			}
		}
	}
	return st, nil
}

// Iterate calls fn for every durable record with LSN >= from (use firstLSN
// or a checkpoint LSN). Stops at the first error.
func (l *Log) Iterate(from page.LSN, fn func(lsn page.LSN, rec *Record) error) error {
	if from < firstLSN {
		from = firstLSN
	}
	l.mu.Lock()
	end := l.flushed
	l.mu.Unlock()
	lsn := from
	for lsn < end {
		rec, next, err := l.readAt(lsn)
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
	rec, _, err := l.readAt(lsn)
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
