// Package wal implements the BeSS write-ahead log (paper §3, reference [21]):
// redo-only byte-range page changes whose pages are written after their
// transaction's commit record is durable, fuzzy checkpoints, and restart's
// analysis and redo passes (recovery.go).
//
// A transaction's page changes ride its commit record: a TCommit (or a
// 2PC participant's TPrepare) carries the list of them, so a commit is one
// record — one CRC, one length, one transaction id — however many pages it
// changes. Only a transaction larger than a log buffer logs some of them
// earlier, in a TRedo of their own (a spill). Redo is physical (copy the
// after-image to the page at the recorded offset) and therefore idempotent,
// so pages need not carry a pageLSN: restart repeats history from the
// checkpoint's redo point. Nothing on a page ever belongs to a transaction
// that did not commit — no page is written before its commit is durable
// (Durable) — so there is no undo: a loser is ended by its abort record, and
// restart writes nothing for it.
//
// The log file is format version 7: every record is a CRC-32C, a varint body
// length the CRC covers, and a body of varint fields (encode). A page change is
// a list of runs, the bytes that differ: a list entry names a page or continues
// the page of the entry before it, from a gap past that entry's end. A record names
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
	// TCommit ends a transaction that committed, carrying the page changes it
	// had not logged yet (Changes), which take effect here — with those of its
	// earlier TRedo and TPrepare records (replayer). A decided TCommit after a
	// TPrepare carries none.
	TCommit
	// TAbort ends a transaction that rolled back. If its page changes reached
	// the log, it carries a whole-page anchor of every page they named — the
	// page as its history before them left it — or those TRollback records
	// before it do not: the page's replay starts again from there.
	TAbort
	_ // 5: retired (the end record); no log this build reads holds one
	TCheckpoint
	// TPrepare is a 2PC participant's vote, logged and forced: the transaction
	// is in doubt until its decision. It carries the page changes the
	// transaction had not logged yet, which wait for a decided TCommit.
	TPrepare
	// TCatalog is a redo-only catalog change. Its Body is opaque here — the
	// server encodes, decodes and replays it (server/catalog.go); it belongs to
	// no transaction, and every walker of page history passes over it.
	TCatalog
	// TRedo is a spill: page changes of a transaction larger than a log buffer,
	// logged ahead of its commit record. Like every page change it has a redo
	// half and no undo half: its pages are written only once its transaction's
	// commit record is durable (Durable), so there is never anything on a page
	// to take back. It takes effect at that commit, not where it stands
	// (replayer).
	TRedo
	// TRollback is a rollback's spill: whole-page anchors of a rollback larger
	// than a log buffer, logged ahead of its TAbort. They take effect at the
	// TAbort, with its own (replayer): a rollback cut short by a crash re-anchors
	// nothing.
	TRollback

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
	case TCheckpoint:
		return "checkpoint"
	case TPrepare:
		return "prepare"
	case TCatalog:
		return "catalog"
	case TRedo:
		return "redo"
	case TRollback:
		return "rollback"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// CkptPage is a dirty-page-table entry in a checkpoint record.
type CkptPage struct {
	Page   page.ID
	RecLSN page.LSN
}

// Change is one run of a page change a record carries: the redo half of the
// change of a page's bytes [Off, Off+len(After)), which replay copies onto the
// page. A page change of several runs is several Changes of its page, next to
// each other in the list and in page order, none overlapping the one before
// it: the codec writes each after the first as a continuation of its page. An
// image read back from the log is read-only, and lies within its page.
type Change struct {
	Page  page.ID
	Off   uint32 // byte offset of After within the page
	After []byte // redo image
}

// WholePage reports whether c's image covers its entire page: such a change
// anchors replay (restart redo, repair) whatever the page held before.
func (c *Change) WholePage() bool { return c.Off == 0 && len(c.After) == page.Size }

// Zero reports whether the log keeps c's image as its length alone: it is all
// zero, and no longer than a page.
func (c *Change) Zero() bool { return isZero(c.After) }

// end is the offset just past c's image.
func (c *Change) end() int { return int(c.Off) + len(c.After) }

// Pages is the number of pages r's changes are of: a page's runs stand next
// to each other in the list.
func (r *Record) Pages() int {
	n := 0
	for i := range r.Changes {
		if i == 0 || r.Changes[i].Page != r.Changes[i-1].Page {
			n++
		}
	}
	return n
}

// Record is one log record. LSNs are byte offsets of the record in the log.
type Record struct {
	Type    Type
	Tx      uint64
	PrevLSN page.LSN // previous record of the same transaction

	// TRedo, TCommit, TPrepare, TAbort, TRollback: the page changes the
	// record carries, in the order they take effect.
	Changes []Change

	// TUpdate: a page change with a redo half (Off, After) and an undo half
	// (UndoOff, Before), an independent range of the page. An image read back
	// from the log is read-only.
	Page    page.ID
	Off     uint32 // byte offset of After within the page
	After   []byte // redo image
	UndoOff uint32 // byte offset of Before within the page
	Before  []byte // undo image

	// Checkpoint: the dirty-page table.
	DirtyPages []CkptPage

	// Catalog record: the rest of the record, as the server wrote it.
	Body []byte

	lsn page.LSN // where Append put the record, or the log it was read from holds it; 0 if neither
}

// carries reports whether records of type t hold a list of page changes.
func (t Type) carries() bool {
	switch t {
	case TRedo, TCommit, TPrepare, TAbort, TRollback:
		return true
	}
	return false
}

// Logged is proof that a record of Page is in the log, at LSN, and takes
// effect: what a page store demands in place of a page id before it
// overwrites the page (log before data, DESIGN.md §4f). Only this package
// makes a non-zero one, and only for a page change whose transaction's
// commit is durable (Durable.Proof) or that a walk of the log hands on where
// it takes effect (replayer) — so a store cannot be asked to write a page
// nothing was logged for, nor one for a transaction that has not committed.
// It says a record of the page precedes the store, not that the bytes stored
// are that record's.
type Logged struct {
	page page.ID
	lsn  page.LSN
}

// Page is the page the record changes.
func (p Logged) Page() page.ID { return p.page }

// LSN is the record's LSN; 0 in the zero Logged, which proves nothing.
func (p Logged) LSN() page.LSN { return p.lsn }

// Pending is a page change in the log, carried by a transaction's TRedo,
// TPrepare or TCommit, whose page write is pending the transaction's commit:
// a record Append has taken, or one read back from the log, hands out one per
// change (Record.Pending). It is not a Logged, and no page store takes it: the
// page's write waits for the transaction's commit record to be durable.
// Durable.Proof makes it a Logged once it is.
type Pending struct {
	page page.ID
	tx   uint64
	lsn  page.LSN
}

// Page is the page the change is of.
func (r Pending) Page() page.ID { return r.page }

// Pending returns the token of r's i-th page change: zero until Append has
// taken r or unless r was read from the log, and for a record that does not
// take effect at its transaction's commit (a TAbort's or TRollback's anchors).
func (r *Record) Pending(i int) Pending {
	if r.lsn == 0 || i < 0 || i >= len(r.Changes) || (r.Type != TRedo && r.Type != TPrepare && r.Type != TCommit) {
		return Pending{}
	}
	return Pending{page: r.Changes[i].Page, tx: r.Tx, lsn: r.lsn}
}

// Durable is proof that a transaction's commit record is durable. Only the
// log makes one (Log.Durable), once its flushed frontier covers the record,
// and it is the only way to turn the transaction's page changes into proofs
// a page store takes (Proof): no page a change describes is written before
// its commit is durable (DESIGN.md §4f).
type Durable struct {
	tx     uint64
	commit page.LSN
}

// Proof returns what a store of r's page takes, if r is a change of d's
// transaction carried by its commit record or one before it; ErrNotDurable if
// not.
func (d Durable) Proof(r Pending) (Logged, error) {
	if d.commit == 0 || r.lsn == 0 || r.tx != d.tx || r.lsn > d.commit {
		return Logged{}, ErrNotDurable
	}
	return Logged{page: r.page, lsn: r.lsn}, nil
}

// Errors returned by the log.
var (
	ErrCorrupt = errors.New("wal: corrupt record")
	ErrClosed  = errors.New("wal: closed")
	// ErrNotLogged is a page store's answer to the zero Logged.
	ErrNotLogged = errors.New("wal: page store without a log record")
	// ErrNotConsecutive is a page store's answer to a run write whose proofs
	// do not name consecutive pages of one area (RunOf).
	ErrNotConsecutive = errors.New("wal: run write proofs not consecutive")
	// ErrUnencodable is Append's answer to a record the log could not read
	// back: one whose PrevLSN or a recLSN is not behind it, whose body is
	// longer than maxBody, one of whose page changes runs past its page's end
	// or overlaps or precedes the run of its page before it, or one of whose
	// images the caller changed while Append encoded it.
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

// imageSize is the bytes appendImage writes for img.
func imageSize(img []byte) int {
	n := uvarintLen(uint64(len(img)) << 1)
	if !isZero(img) {
		n += len(img)
	}
	return n
}

// pageSize is the bytes of a page id and an offset.
func pageSize(pid page.ID, off uint32) int {
	return uvarintLen(uint64(pid.Area)) + uvarintLen(uint64(pid.Page)) + uvarintLen(uint64(off))
}

// An entry of a page list opens with a uvarint whose low bit says which kind
// it is: clear, the entry names its page — the area above the bit, then the
// page and the offset; set, it continues the page of the entry before it —
// the gap from that entry's end above the bit. Its image follows either way.
func entryHead(prev, c *Change) uint64 {
	if prev != nil && prev.Page == c.Page {
		return uint64(int(c.Off)-prev.end())<<1 | 1
	}
	return uint64(c.Page.Area) << 1
}

// entrySize is the bytes of the entry c, which follows prev (nil for the
// first), without its image; ok is false if the decoder would refuse it: its
// image runs past its page's end, or it overlaps or precedes prev of its page.
func entrySize(prev, c *Change) (n int, ok bool) {
	if c.end() > page.Size || prev != nil && prev.Page == c.Page && int(c.Off) < prev.end() {
		return 0, false
	}
	n = uvarintLen(entryHead(prev, c))
	if prev == nil || prev.Page != c.Page {
		n += uvarintLen(uint64(c.Page.Page)) + uvarintLen(uint64(c.Off))
	}
	return n, true
}

// tailSize is the size of the fields of r's body that do not refer to an
// earlier record — its images and page changes, a catalog body — which is
// the same wherever r stands: Append sizes it once, outside the log mutex.
// ok is false if r carries a page change the decoder would refuse (entrySize).
func (r *Record) tailSize() (n int, ok bool) {
	switch {
	case r.Type == TUpdate:
		n += pageSize(r.Page, r.Off) + uvarintLen(uint64(r.UndoOff)) + imageSize(r.Before) + imageSize(r.After)
	case r.Type.carries():
		n += uvarintLen(uint64(len(r.Changes)))
		var prev *Change
		for i := range r.Changes {
			c := &r.Changes[i]
			k, ok := entrySize(prev, c)
			if !ok {
				return 0, false
			}
			n += k + imageSize(c.After)
			prev = c
		}
	case r.Type == TCatalog:
		n += len(r.Body)
	}
	return n, true
}

// sizeAt is the exact size of r's body as encode writes it at lsn, given its
// tailSize; at lsn 0, the most it can be wherever it goes.
func (r *Record) sizeAt(lsn page.LSN, tail int) int {
	n := 1 + txSize(r.Tx) + uvarintLen(back(lsn, r.PrevLSN)) + tail
	if r.Type == TCheckpoint {
		n += uvarintLen(uint64(len(r.DirtyPages)))
		for _, e := range r.DirtyPages {
			n += uvarintLen(uint64(e.Page.Area)) + uvarintLen(uint64(e.Page.Page)) + uvarintLen(back(lsn, e.RecLSN))
		}
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
	var f Footprint
	count := func(img []byte, stored, zero *int) {
		if isZero(img) {
			*zero += len(img)
		} else {
			*stored += len(img)
		}
	}
	switch {
	case r.Type == TUpdate:
		count(r.Before, &f.Before, &f.ZeroBefore)
		count(r.After, &f.After, &f.ZeroAfter)
	case r.Type.carries():
		for i := range r.Changes {
			count(r.Changes[i].After, &f.After, &f.ZeroAfter)
		}
	}
	tail, _ := r.tailSize()
	f.Header = frameSize(r.sizeAt(r.lsn, tail)) - f.Before - f.After
	return f
}

// appendImage writes one image: its length shifted left one and its bytes,
// or for an all-zero one its length with the low bit set.
func appendImage(b, img []byte) []byte {
	if isZero(img) {
		return binary.AppendUvarint(b, uint64(len(img))<<1|1)
	}
	return append(binary.AppendUvarint(b, uint64(len(img))<<1), img...)
}

// appendPage writes a page id and an offset.
func appendPage(b []byte, pid page.ID, off uint32) []byte {
	b = binary.AppendUvarint(b, uint64(pid.Area))
	b = binary.AppendUvarint(b, uint64(pid.Page))
	return binary.AppendUvarint(b, uint64(off))
}

// appendEntry writes the entry c of a page list, which follows prev (nil for
// the first): its head (entryHead), the page and offset if it names its page,
// and its image.
func appendEntry(b []byte, prev, c *Change) []byte {
	b = binary.AppendUvarint(b, entryHead(prev, c))
	if prev == nil || prev.Page != c.Page {
		b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(c.Page.Page)), uint64(c.Off))
	}
	return appendImage(b, c.After)
}

// encode appends the body of r, the record at lsn, to b: the type byte, then
// uvarints and images.
//
//	tx           the counter, then the host (txHostShift)
//	prev         back(lsn, PrevLSN)
//	TRedo, TCommit, TPrepare, TAbort, TRollback
//	             the number of entries; for each, either area<<1, page, off
//	             or, continuing the page of the entry before it, the gap from
//	             that entry's end <<1|1; then the after-image (appendImage)
//	TUpdate      area, page, off, undo off, the before-image, the after-image
//	TCheckpoint  the number of dirty pages; for each, area, page, back(lsn, RecLSN)
//	TCatalog     Body, to the end of the record
func (r *Record) encode(b []byte, lsn page.LSN) []byte {
	b = append(b, byte(r.Type))
	b = appendTx(b, r.Tx)
	b = binary.AppendUvarint(b, back(lsn, r.PrevLSN))
	switch r.Type {
	case TRedo, TCommit, TPrepare, TAbort, TRollback:
		b = binary.AppendUvarint(b, uint64(len(r.Changes)))
		var prev *Change
		for i := range r.Changes {
			b = appendEntry(b, prev, &r.Changes[i])
			prev = &r.Changes[i]
		}
	case TUpdate:
		b = appendPage(b, r.Page, r.Off)
		b = binary.AppendUvarint(b, uint64(r.UndoOff))
		b = appendImage(b, r.Before)
		b = appendImage(b, r.After)
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
// reference not behind lsn, a run past its page's end, a continuation with no
// entry before it, an entry naming the page of the one before it, or bytes
// left over are ErrCorrupt.
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
	changes := r.Changes[:0] // a walk's reader decodes every record into one Record: keep its list's room
	*r = Record{Type: Type(d.byte())}
	r.Tx = d.tx()
	r.PrevLSN = d.ref(lsn)
	switch r.Type {
	case TRedo, TCommit, TPrepare, TAbort, TRollback:
		// An entry is two bytes at least, and the list is decoded once into
		// nothing before it is allocated: it is sized by a count the body
		// can hold, and a list that does not decode costs no allocation.
		if n := int(d.uvarint(uint64(len(d.p)) / 2)); n > 0 {
			probe, prev := d, (*Change)(nil)
			var two [2]Change
			for i := 0; i < n && !probe.bad; i++ {
				probe.entry(prev, &two[i&1])
				prev = &two[i&1]
			}
			if probe.bad {
				d.bad = true
				break
			}
			r.Changes, prev = slices.Grow(changes, n)[:n], nil
			for i := range r.Changes {
				d.entry(prev, &r.Changes[i])
				prev = &r.Changes[i]
			}
		}
	case TUpdate:
		r.Page = d.page()
		r.Off = uint32(d.uvarint(math.MaxUint32))
		r.UndoOff = uint32(d.uvarint(math.MaxUint32))
		r.Before = d.image()
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

// entry reads the entry of a page list into c, which follows prev (nil for
// the first): it names its page, or continues prev's (entryHead).
func (d *decoder) entry(prev, c *Change) {
	head := d.uvarint(math.MaxUint32<<1 | 1)
	if head&1 == 0 {
		c.Page = page.ID{Area: page.AreaID(head >> 1), Page: page.No(d.uvarint(math.MaxUint64))}
		c.Off = uint32(d.uvarint(page.Size))
		// Its page's runs after the first are continuations.
		d.bad = d.bad || prev != nil && c.Page == prev.Page
	} else {
		if prev == nil {
			d.bad = true
			return
		}
		off := uint64(prev.end()) + head>>1
		d.bad = d.bad || off > page.Size
		c.Page, c.Off = prev.Page, uint32(off)
	}
	c.After = d.image()
	if c.end() > page.Size {
		d.bad = true
	}
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
// CRC first and the length under it; version 6 carries a transaction's page
// changes in its commit, prepare and abort records, splits a large rollback's
// anchors over rollback records, and drops the end record.
// A version-4 record read as version 5 would fail its CRC, and a version-5
// commit read as version 6 would lack its page count; either way the log would
// open as if it ended at that record, and the records past it would be cut:
// older logs are refused by name (ErrOldFormat), not misread. Version 7 splits
// a page change into runs, and flags an entry's kind below its area: read as
// version 7, a version-6 entry of area 1 would be a continuation.
var logMagic = []byte{0xBE, 0x55, 0x10, 0x60, 0, 0, 0, 7}

// BufSize is the size of one log buffer: a transaction whose queued page
// changes would pass it logs them ahead of its commit record, in a spill
// (TRedo), and a rollback whose anchors would pass it logs them ahead of its
// abort record (TRollback), so that no record outgrows a buffer.
const BufSize = logBufSize

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

// init finishes constructing a Log that no other goroutine can see yet, under
// l.mu all the same: the one rule for its fields holds from the start.
func (l *Log) init() error {
	l.mu.Init("Log.mu", RankLogMu)
	l.syncDone.L = &l.mu
	l.mu.Lock()
	defer l.mu.Unlock()
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
	r := logReader{back: l.back, limit: size}
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
// length-prefixed log.) The caller holds l.mu.
func (l *Log) cutTail(r *logReader, size int64) error {
	l.mu.AssertHeld()
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
	tail, ok := rec.tailSize()
	widest := rec.sizeAt(0, tail)
	if !ok || widest > maxBody {
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
	size := rec.sizeAt(lsn, tail)
	b = binary.AppendUvarint(b[:at+crcSize], uint64(size))
	body := len(b)
	if b = rec.encode(b, lsn); len(b)-body != size {
		// An image changed while the record was appended: its length field
		// would not frame it. The slot keeps its old length.
		return 0, ErrUnencodable
	}
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
		want := int(min(int64(max(n, readAhead)), r.limit-off))
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
func (l *Log) durable() (page.LSN, logReader) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushed, logReader{back: l.back, limit: int64(l.flushed)}
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
	end, r := l.durable()
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
// or a checkpoint LSN). Stops at the first error. A record below the durable
// frontier that no longer reads is rot — open cut the log at its first
// invalid record, and every one appended since was whole when it was synced
// — and the walk fails on it with a *page.CorruptError wrapping ErrCorrupt,
// rather than take it for the end of the log: a replay that stopped there
// would hand back a page's history without its last changes.
func (l *Log) Iterate(from page.LSN, fn func(lsn page.LSN, rec *Record) error) error {
	return l.walk(from, true, fn)
}

// walk is Iterate; without own, the record fn gets, with its images and body,
// is the reader's and is gone once fn returns (logReader.next).
func (l *Log) walk(from page.LSN, own bool, fn func(lsn page.LSN, rec *Record) error) error {
	end, r := l.durable()
	for lsn := max(from, firstLSN); lsn < end; {
		rec, next, err := r.next(lsn, own)
		if err != nil {
			return err
		}
		if rec == nil {
			return &page.CorruptError{Section: "wal", Off: int64(lsn), Len: crcSize, Err: ErrCorrupt}
		}
		if err := fn(lsn, rec); err != nil {
			return err
		}
		lsn = next
	}
	return nil
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
