package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bess/internal/page"
)

// upd is a page change: a spill (TRedo) of pid's bytes at off.
func upd(tx uint64, prev page.LSN, pid page.ID, off uint32, after string) *Record {
	return redo(tx, prev, pid, off, []byte(after))
}

// readRec returns the durable record at lsn, failing t if none checks out
// there.
func readRec(t *testing.T, l *Log, lsn page.LSN) *Record {
	t.Helper()
	_, r := l.durable()
	rec, _, err := r.next(lsn, true)
	if rec == nil || err != nil {
		t.Fatalf("no record at lsn %d (%v)", lsn, err)
	}
	return rec
}

func TestAppendFlushIterate(t *testing.T) {
	l := NewMem()
	pid := page.ID{Area: 1, Page: 10}
	l1, err := l.Append(upd(1, 0, pid, 100, "bbb"))
	if err != nil {
		t.Fatal(err)
	}
	l2, _ := l.Append(&Record{Type: TCommit, Tx: 1, PrevLSN: l1})
	if l2 <= l1 {
		t.Fatalf("LSNs not increasing: %d %d", l1, l2)
	}
	// Nothing durable yet.
	var seen int
	l.Iterate(0, func(page.LSN, *Record) error { seen++; return nil })
	if seen != 0 {
		t.Fatalf("unflushed records visible: %d", seen)
	}
	if err := l.Flush(l2); err != nil {
		t.Fatal(err)
	}
	var recs []*Record
	var lsns []page.LSN
	l.Iterate(0, func(lsn page.LSN, r *Record) error {
		recs = append(recs, r)
		lsns = append(lsns, lsn)
		return nil
	})
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	if lsns[0] != l1 || lsns[1] != l2 {
		t.Fatalf("lsns = %v", lsns)
	}
	r := recs[0]
	if r.Type != TRedo || r.Tx != 1 || len(r.Changes) != 1 || r.Changes[0].Page != pid || r.Changes[0].Off != 100 || string(r.Changes[0].After) != "bbb" {
		t.Fatalf("record round trip: %+v", r)
	}
	if recs[1].PrevLSN != l1 {
		t.Fatal("prevLSN lost")
	}
}

// TestCheckpointRoundTrip: a checkpoint carries its dirty-page table and
// nothing else — the count of its entries follows the record header, with no
// transaction list ahead of it — each recLSN a distance back from the
// checkpoint's own LSN. A count that runs past the record is ErrCorrupt, at
// once, and a recLSN not behind the checkpoint is refused at Append.
func TestCheckpointRoundTrip(t *testing.T) {
	l := NewMem()
	first, err := l.Append(upd(1, 0, page.ID{Area: 1, Page: 3}, 0, "x"))
	if err != nil {
		t.Fatal(err)
	}
	second, _ := l.Append(upd(1, first, page.ID{Area: 7, Page: 1 << 40}, 0, "y"))
	dirty := []CkptPage{{Page: page.ID{Area: 1, Page: 3}, RecLSN: first}, {Page: page.ID{Area: 7, Page: 1 << 40}, RecLSN: second}}
	lsn, err := Checkpoint(l, dirty)
	if err != nil {
		t.Fatal(err)
	}
	rec := readRec(t, l, lsn)
	if !reflect.DeepEqual(rec.DirtyPages, dirty) {
		t.Fatalf("dirty pages: %+v", rec.DirtyPages)
	}
	body := rec.appendTo(nil, lsn)
	if !bytes.Equal(body[:5], []byte{byte(TCheckpoint), 0, 0, 0, 2}) {
		t.Fatalf("checkpoint body starts %x: want the type, tx 0 (counter and host), no prev, and the count 2", body[:5])
	}
	entry := body[5:]
	for _, want := range []uint64{1, 3, uint64(lsn - first)} { // area, page, recLSN's distance back
		v, n := binary.Uvarint(entry)
		if n <= 0 || v != want {
			t.Fatalf("first entry's fields start %x: want %d", entry, want)
		}
		entry = entry[n:]
	}

	for _, n := range []uint64{uint64(len(body)-5)/3 + 1, 1 << 28, math.MaxUint64} {
		bad := append(binary.AppendUvarint(append([]byte(nil), body[:4]...), n), body[5:]...)
		if _, err := decodeRecord(bad, lsn); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("count %d past the record: %v", n, err)
		}
	}
	if _, err := Checkpoint(l, []CkptPage{{Page: page.ID{Area: 1, Page: 3}, RecLSN: l.NextLSN()}}); !errors.Is(err, ErrUnencodable) {
		t.Fatalf("checkpoint with a recLSN not behind it: %v, want ErrUnencodable", err)
	}
}

func TestDurableBytesExcludesTail(t *testing.T) {
	l := NewMem()
	pid := page.ID{Area: 1, Page: 1}
	l.Append(upd(1, 0, pid, 0, "y"))
	l.Flush(0)
	l.Append(upd(1, 0, pid, 0, "z")) // not flushed: lost in the crash
	img := l.DurableBytes()

	l2, err := OpenMemFrom(img)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	l2.Iterate(0, func(page.LSN, *Record) error { n++; return nil })
	if n != 1 {
		t.Fatalf("recovered records = %d, want 1", n)
	}
	// The reopened log appends after the surviving prefix.
	lsn, _ := l2.Append(&Record{Type: TCommit, Tx: 9})
	if lsn < flushedLSN(l2) {
		t.Fatal("append into durable region")
	}
}

func TestTornTailDetected(t *testing.T) {
	l := NewMem()
	l.Append(upd(1, 0, page.ID{Area: 1, Page: 1}, 0, "b"))
	l.Flush(0)
	img := l.DurableBytes()
	// Corrupt the final byte (torn write).
	img[len(img)-1] ^= 0xFF
	l2, err := OpenMemFrom(img)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	l2.Iterate(0, func(page.LSN, *Record) error { n++; return nil })
	if n != 0 {
		t.Fatalf("torn record surfaced: %d", n)
	}
}

func TestFilePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pid := page.ID{Area: 2, Page: 7}
	lsn, _ := l.Append(upd(3, 0, pid, 8, "new"))
	l.Append(&Record{Type: TCommit, Tx: 3, PrevLSN: lsn})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var types []Type
	l2.Iterate(0, func(_ page.LSN, r *Record) error {
		types = append(types, r.Type)
		return nil
	})
	if len(types) != 2 || types[0] != TRedo || types[1] != TCommit {
		t.Fatalf("types = %v", types)
	}
}

func TestFlushUpToAlreadyFlushed(t *testing.T) {
	l := NewMem()
	lsn, _ := l.Append(&Record{Type: TCommit, Tx: 1})
	l.Flush(0)
	if err := l.Flush(lsn); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Appends != 1 || st.Syncs != 1 {
		t.Fatalf("stats = %d/%d", st.Appends, st.Syncs)
	}
}

func TestTypeStrings(t *testing.T) {
	if TUpdate.String() != "update" || TRedo.String() != "redo" || TCheckpoint.String() != "checkpoint" ||
		Type(2).String() != "type(2)" || Type(5).String() != "type(5)" {
		t.Fatal("type strings")
	}
}

func TestClosedLog(t *testing.T) {
	l := NewMem()
	l.Close()
	if _, err := l.Append(&Record{Type: TCommit}); err != ErrClosed {
		t.Fatalf("append after close: %v", err)
	}
	if err := l.Flush(0); err != ErrClosed {
		t.Fatalf("flush after close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestRecordEncodingAllTypes(t *testing.T) {
	l := NewMem()
	pid := page.ID{Area: 9, Page: 1234}
	whole := bytes.Repeat([]byte{0xC3}, page.Size)
	records := []*Record{
		upd(1, 0, pid, 77, "after-bytes"),
		{Type: TCommit, Tx: 2, PrevLSN: 9},
		{Type: TAbort, Tx: 3},
		// An anchor, and a range zeroed: an all-zero image.
		redo(4, 0, pid, 0, whole),
		redo(4, 5, pid, 100, make([]byte, 300)),
		// A commit carrying both, a prepare and a re-anchoring abort.
		{Type: TCommit, Tx: 6, Changes: []Change{{Page: pid, After: whole}, {Page: page.ID{Area: 1, Page: 2}, Off: 9, After: []byte("range")}}},
		{Type: TPrepare, Tx: 7, Changes: []Change{{Page: pid, Off: 4000, After: []byte("prepared")}}},
		{Type: TAbort, Tx: 7, Changes: []Change{{Page: pid, After: make([]byte, page.Size)}}},
		// Updates with both halves: the undo half a range with its own offset,
		// and a zero before-image.
		{Type: TUpdate, Tx: 5, Page: pid, After: whole, UndoOff: 4000, Before: []byte("range")},
		{Type: TUpdate, Tx: 5, Page: pid, After: whole, Before: make([]byte, page.Size)},
	}
	for _, r := range records {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Flush(0)
	var got []*Record
	l.Iterate(0, func(_ page.LSN, r *Record) error { got = append(got, r); return nil })
	if len(got) != len(records) {
		t.Fatalf("got %d records", len(got))
	}
	for i, r := range got {
		want := records[i]
		if r.Tx != want.Tx || r.Type != want.Type || r.PrevLSN != want.PrevLSN || r.Off != want.Off || r.UndoOff != want.UndoOff ||
			!bytes.Equal(r.Before, want.Before) || !bytes.Equal(r.After, want.After) || !sameChanges(r.Changes, want.Changes) {
			t.Fatalf("record %d: %+v", i, r)
		}
	}
	if a := &got[3].Changes[0]; !a.WholePage() || got[4].Changes[0].WholePage() {
		t.Fatalf("anchor = off %d, %d bytes", a.Off, len(a.After))
	}
}

// sameChanges reports whether two page lists hold the same changes, an empty
// image and a nil one alike.
func sameChanges(a, b []Change) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Page != b[i].Page || a[i].Off != b[i].Off || !bytes.Equal(a[i].After, b[i].After) {
			return false
		}
	}
	return true
}

// TestZeroImageRoundTrip: an all-zero image is in the log as its length —
// before-image, after-image, both, whole page, range or run — and comes back as
// that many zeroes; the size Append reserves is the size encode writes, field
// by field as format 7 lays it out; and a record cut short, or whose flagged
// length is not one encode writes, is corrupt, never a panic.
func TestZeroImageRoundTrip(t *testing.T) {
	pid := page.ID{Area: 2, Page: 5}
	some := bytes.Repeat([]byte{7}, 200)
	for _, tc := range []struct {
		name   string
		rec    Record
		fields int // bytes of the body that are not images
		stored int // image bytes in the encoding
	}{
		// The type, the tx (counter and host), prev, the page count, area, page
		// and a one-byte offset are 8 bytes; an image length of 64 or more
		// bytes, 2 (it is shifted left one, for the flag).
		{"range zeroed", *redo(0, 0, pid, 64, make([]byte, 200)), 8 + 2, 0},
		{"anchor of a zeroed page", *redo(0, 0, pid, 0, make([]byte, page.Size)), 8 + 2, 0},
		{"nothing zero", *redo(0, 0, pid, 9, some), 8 + 2, 200},
		{"a two-byte offset", *redo(0, 0, pid, page.Size-1, []byte{5}), 8 + 1 + 1, 1},
		// A commit's list: the count, then each change's page, offset and image.
		{"a commit of a range and a zeroed page", Record{Type: TCommit, Changes: []Change{{Page: pid, Off: 9, After: some}, {Page: page.ID{Area: 2, Page: 6}, After: make([]byte, page.Size)}}},
			8 + 2 + 3 + 2, 200},
		// A page's runs after its first: the gap from the run before, then the
		// image — a gap of 91 takes two bytes, one of none one.
		{"a page in two runs", Record{Type: TCommit, Changes: []Change{{Page: pid, Off: 9, After: some}, {Page: pid, Off: 300, After: some[:20]}}},
			8 + 2 + 2 + 1, 220},
		{"a run, then a zeroed run right after it", Record{Type: TCommit, Changes: []Change{{Page: pid, Off: 9, After: some}, {Page: pid, Off: 209, After: make([]byte, 100)}}},
			8 + 2 + 1 + 2, 200},
		// An update adds its undo offset, and the before-image's length.
		{"update of a fresh page", Record{Type: TUpdate, Page: pid, After: bytes.Repeat([]byte{1}, page.Size), Before: make([]byte, page.Size)}, 8 + 2 + 2, page.Size},
		{"update, range zeroed", Record{Type: TUpdate, Page: pid, Off: 9, After: make([]byte, 200), UndoOff: 9, Before: some}, 8 + 2 + 2, 200},
		{"update, one zero byte", Record{Type: TUpdate, Page: pid, Off: 1, After: []byte{1}, UndoOff: 1, Before: []byte{0}}, 8 + 1 + 1, 1},
		{"update, nothing zero", Record{Type: TUpdate, Page: pid, After: some, Before: some}, 8 + 2 + 2, 400},
		{"zeroes longer than a page are stored", Record{Type: TUpdate, Page: pid, After: make([]byte, page.Size+1)}, 8 + 1 + 2, page.Size + 1},
	} {
		rec := tc.rec
		enc := rec.appendTo(nil, firstLSN)
		if len(enc) != rec.encodedLen(firstLSN) {
			t.Fatalf("%s: encodedLen %d, encoded %d bytes", tc.name, rec.encodedLen(firstLSN), len(enc))
		}
		if len(enc) != tc.fields+tc.stored {
			t.Fatalf("%s: %d bytes encoded, want %d of fields and %d of images", tc.name, len(enc), tc.fields, tc.stored)
		}
		images := len(rec.Before) + len(rec.After)
		for _, c := range rec.Changes {
			images += len(c.After)
		}
		if fp := rec.Footprint(); fp.Header+fp.Before+fp.After != frameSize(len(enc)) ||
			fp.Before+fp.After != tc.stored || fp.ZeroBefore+fp.ZeroAfter != images-tc.stored {
			t.Fatalf("%s: footprint %+v of %d encoded bytes", tc.name, fp, len(enc))
		}
		got, err := decodeRecord(enc, firstLSN)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.Off != rec.Off || got.UndoOff != rec.UndoOff || !bytes.Equal(got.Before, rec.Before) || !bytes.Equal(got.After, rec.After) ||
			!sameChanges(got.Changes, rec.Changes) {
			t.Fatalf("%s: decoded %+v", tc.name, got)
		}
		for cut := 0; cut < len(enc); cut += max(1, len(enc)/64) {
			if _, err := decodeRecord(enc[:cut], firstLSN); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s cut at %d of %d: %v, want ErrCorrupt", tc.name, cut, len(enc), err)
			}
		}
	}
	// Flagged lengths encode never writes: none, and more than a page.
	enc := redo(0, 0, pid, 0, make([]byte, 8)).appendTo(nil, firstLSN)
	for _, n := range []uint64{0, page.Size + 1, 1<<31 - 1} {
		bad := binary.AppendUvarint(enc[:len(enc)-1:len(enc)-1], n<<1|1)
		if _, err := decodeRecord(bad, firstLSN); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flagged length %d: %v, want ErrCorrupt", n, err)
		}
	}
	if !bytes.Equal(zeroes[:], make([]byte, page.Size)) {
		t.Fatal("something wrote to the shared zero page")
	}
}

// TestOldLogVersionRefused: a log whose header carries a version from before
// the offset word was split, from before the redo-only record, from before
// the compensation record went, from before the varint codec, from before
// commit records carried their page changes, or from before a page change was
// split into runs, is refused by name, whatever its records look like, and
// one from a later build is refused too.
func TestOldLogVersionRefused(t *testing.T) {
	l := NewMem()
	lsn, err := l.Append(upd(1, 0, page.ID{Area: 1, Page: 1}, 10, "new"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(lsn); err != nil {
		t.Fatal(err)
	}
	img := l.DurableBytes()
	if _, err := OpenMemFrom(img); err != nil {
		t.Fatalf("reopening this build's own log: %v", err)
	}
	for _, v := range []byte{1, 2, 3, 4, 5, 6} { // before the split offset word; before TRedo; with CLRs; fixed-width fields; one record per page change; one span per page
		img[7] = v
		if _, err := OpenMemFrom(img); !errors.Is(err, ErrOldFormat) {
			t.Fatalf("version %d log: %v, want ErrOldFormat", v, err)
		}
	}
	img[7] = logMagic[7] + 1
	if _, err := OpenMemFrom(img); err == nil || errors.Is(err, ErrOldFormat) {
		t.Fatalf("log from a later build: %v, want a refusal that does not call it old", err)
	}
	path := filepath.Join(t.TempDir(), "wal.log")
	img[7] = 1
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path); !errors.Is(err, ErrOldFormat) {
		t.Fatalf("version 1 log file: %v, want ErrOldFormat", err)
	}
}

// format4Log is a log as format 4 wrote it: version 4 in the header, then a
// redo-only record of a 128-byte range and its commit, each behind a fixed
// length word and the CRC of its body, every field fixed-width.
func format4Log() []byte {
	be := binary.BigEndian
	img := []byte{0xBE, 0x55, 0x10, 0x60, 0, 0, 0, 4}
	frame := func(body []byte) {
		img = be.AppendUint32(img, uint32(len(body)))
		img = be.AppendUint32(img, page.Checksum(body))
		img = append(img, body...)
	}
	redo := be.AppendUint64(be.AppendUint64([]byte{byte(TRedo)}, 1), 0) // type, tx, PrevLSN
	redo = be.AppendUint64(be.AppendUint32(redo, 1), 7)                 // area, page
	redo = be.AppendUint32(be.AppendUint32(redo, 640), 128)             // offset, image length
	first := len(img)
	frame(append(redo, bytes.Repeat([]byte{0xAB}, 128)...))
	frame(be.AppendUint64(be.AppendUint64([]byte{byte(TCommit)}, 1), uint64(first)))
	return img
}

// TestFormat4LogRefused: a log format 4 wrote is refused by name, before
// anything is read past its header or written to it. Read as this build's
// format its first record fails its CRC, so the log would open empty and the
// next append would overwrite a committed transaction.
func TestFormat4LogRefused(t *testing.T) {
	img := format4Log()
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenFile(path)
	if !errors.Is(err, ErrOldFormat) || !strings.Contains(err.Error(), "format version 4") {
		t.Fatalf("opening a format-4 log: %v, want ErrOldFormat naming version 4", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, img) {
		t.Fatalf("the refused log changed on disk (%v)", err)
	}
	if _, err := OpenMemFrom(img); !errors.Is(err, ErrOldFormat) {
		t.Fatalf("a format-4 log image: %v, want ErrOldFormat", err)
	}

	misread := append(append([]byte(nil), logMagic...), img[len(logMagic):]...)
	l, err := OpenMemFrom(misread)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.NextLSN() != firstLSN {
		t.Fatalf("a format-4 body under a format-7 header opened with its end at %d", l.NextLSN())
	}
}

// format5Log is a log as format 5 wrote it: version 5 in the header, then a
// redo-only record of a 128-byte range, its commit and its end, each a CRC, a
// varint body length and a body of varints, one record per page change.
func format5Log() []byte {
	img := []byte{0xBE, 0x55, 0x10, 0x60, 0, 0, 0, 5}
	frame := func(body []byte) {
		framed := append(binary.AppendUvarint(nil, uint64(len(body))), body...)
		img = append(binary.BigEndian.AppendUint32(img, page.Checksum(framed)), framed...)
	}
	uv := binary.AppendUvarint
	redo := []byte{byte(TRedo), 1, 0, 0}                    // type, tx (counter, host), no prev
	redo = uv(uv(uv(uv(redo, 1), 7), 640), 128<<1)          // area, page, offset, image length
	redo = append(redo, bytes.Repeat([]byte{0xAB}, 128)...) // the image
	first := len(img)
	frame(redo)
	frame(uv([]byte{byte(TCommit), 1, 0}, uint64(len(img)-first))) // type, tx, prev: the redo record
	frame([]byte{5, 1, 0, 0})                                      // the end record, type 5
	return img
}

// TestFormat5LogRefused: a log format 5 wrote is refused by name, before
// anything is read past its header or written to it. Read as format 7 its
// first record — a page change with no count before it — does not decode, so
// the log would open empty and the next append would overwrite a committed
// transaction.
func TestFormat5LogRefused(t *testing.T) {
	img := format5Log()
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenFile(path)
	if !errors.Is(err, ErrOldFormat) || !strings.Contains(err.Error(), "format version 5") {
		t.Fatalf("opening a format-5 log: %v, want ErrOldFormat naming version 5", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, img) {
		t.Fatalf("the refused log changed on disk (%v)", err)
	}
	if _, err := OpenMemFrom(img); !errors.Is(err, ErrOldFormat) {
		t.Fatalf("a format-5 log image: %v, want ErrOldFormat", err)
	}

	misread := append(append([]byte(nil), logMagic...), img[len(logMagic):]...)
	l, err := OpenMemFrom(misread)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.NextLSN() != firstLSN {
		t.Fatalf("a format-5 body under a format-7 header opened with its end at %d", l.NextLSN())
	}
}

// format6Log is a log as format 6 wrote it: version 6 in the header, then a
// commit record carrying one 128-byte range of page 1/7: its page list a
// count, then area, page, offset and image, the area with no flag below it.
func format6Log() []byte {
	img := []byte{0xBE, 0x55, 0x10, 0x60, 0, 0, 0, 6}
	uv := binary.AppendUvarint
	commit := []byte{byte(TCommit), 1, 0, 0, 1}                 // type, tx (counter, host), no prev, one change
	commit = uv(uv(uv(uv(commit, 1), 7), 640), 128<<1)          // area, page, offset, image length
	commit = append(commit, bytes.Repeat([]byte{0xAB}, 128)...) // the image
	framed := append(uv(nil, uint64(len(commit))), commit...)
	return append(binary.BigEndian.AppendUint32(img, page.Checksum(framed)), framed...)
}

// TestFormat6LogRefused: a log format 6 wrote is refused by name, before
// anything is read past its header or written to it. Read as format 7 its
// commit's area 1 is a continuation with no run before it, which does not
// decode, so the log would open empty and the next append would overwrite a
// committed transaction.
func TestFormat6LogRefused(t *testing.T) {
	img := format6Log()
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenFile(path)
	if !errors.Is(err, ErrOldFormat) || !strings.Contains(err.Error(), "format version 6") {
		t.Fatalf("opening a format-6 log: %v, want ErrOldFormat naming version 6", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, img) {
		t.Fatalf("the refused log changed on disk (%v)", err)
	}
	if _, err := OpenMemFrom(img); !errors.Is(err, ErrOldFormat) {
		t.Fatalf("a format-6 log image: %v, want ErrOldFormat", err)
	}

	misread := append(append([]byte(nil), logMagic...), img[len(logMagic):]...)
	l, err := OpenMemFrom(misread)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.NextLSN() != firstLSN {
		t.Fatalf("a format-6 body under a format-7 header opened with its end at %d", l.NextLSN())
	}
}

// TestRecordCodecEdges is the format-7 round trip at the edges of every field:
// tx 0 and the largest; no PrevLSN, one byte back and at FirstLSN; offsets 0
// and page.Size-1; images of 0, 1 and page.Size bytes, stored and all-zero;
// page lists of 0, 1 and 1,000 changes; a page in 1,024 runs, and runs with
// no gap, the widest gap, an all-zero image and none; checkpoints of 0 and
// 3,000 pages; a catalog record larger than a log buffer.
// Each is appended to a log — its references encoded as distances back from
// where it lands — and read back field for field, its footprint the same both
// ways; the footprints add up to the log; each body cut short is
// ErrCorrupt; and so are a page list's count the body cannot hold, a
// continuation first in its list, a gap or a run past its page's end, and a
// run overlapping or preceding the one of its page before it, each before
// anything is allocated. Append refuses to write those runs.
func TestRecordCodecEdges(t *testing.T) {
	l := NewMem()
	defer l.Close()
	pid := page.ID{Area: math.MaxUint32, Page: math.MaxInt64}
	var want []*Record
	var lsns []page.LSN
	add := func(rec *Record) {
		t.Helper()
		lsn, err := l.Append(rec)
		if err != nil {
			t.Fatalf("append %+v: %v", rec.Type, err)
		}
		want, lsns = append(want, rec), append(lsns, lsn)
	}
	images := [][]byte{nil, {0x5A}, bytes.Repeat([]byte{0xC3}, page.Size), {0}, make([]byte, page.Size)}
	for _, tx := range []uint64{0, math.MaxUint64} {
		for _, prev := range []string{"none", "one byte back", "first"} {
			for _, off := range []uint32{0, page.Size - 1} {
				for i, img := range images {
					var p page.LSN
					switch prev {
					case "one byte back":
						p = l.NextLSN() - 1
					case "first":
						p = firstLSN
					}
					roff := min(off, uint32(page.Size-len(img))) // a run ends within its page
					add(redo(tx, p, pid, roff, img))
					add(&Record{Type: TUpdate, Tx: tx, PrevLSN: p, Page: pid, Off: off, After: img,
						UndoOff: page.Size - 1 - off, Before: images[len(images)-1-i]})
				}
			}
		}
		add(&Record{Type: TCommit, Tx: tx, PrevLSN: l.NextLSN() - 1})
		many := make([]Change, 1000)
		for i := range many {
			img := images[i%len(images)]
			many[i] = Change{Page: page.ID{Area: page.AreaID(i % 3), Page: page.No(i) << 20}, Off: uint32(i % (page.Size - len(img) + 1)), After: img}
		}
		add(&Record{Type: TPrepare, Tx: tx, PrevLSN: l.NextLSN() - 1, Changes: many})
		add(&Record{Type: TAbort, Tx: tx, Changes: many[:1]})
		// A page in 1,024 one-byte runs, three bytes apart; then runs of one
		// page with no gap, an all-zero image, none, the widest gap and the
		// page's last byte, and an empty run at the end of the next page.
		runs := make([]Change, page.Size/4)
		for i := range runs {
			runs[i] = Change{Page: pid, Off: uint32(4 * i), After: images[1]}
		}
		add(&Record{Type: TRedo, Tx: tx, Changes: runs})
		add(&Record{Type: TCommit, Tx: tx, PrevLSN: l.NextLSN() - 1, Changes: []Change{
			{Page: pid, Off: 0, After: images[1]}, {Page: pid, Off: 1, After: make([]byte, 3)}, {Page: pid, Off: 4},
			{Page: pid, Off: page.Size - 1, After: images[1]}, {Page: page.ID{Area: pid.Area, Page: pid.Page - 1}, Off: page.Size},
		}})
	}
	add(&Record{Type: TCheckpoint})
	dirty := make([]CkptPage, 3000)
	for i := range dirty {
		dirty[i] = CkptPage{Page: page.ID{Area: page.AreaID(i % 3), Page: page.No(i) << 30}, RecLSN: firstLSN + page.LSN(i)}
	}
	dirty[0].RecLSN, dirty[1].RecLSN = l.NextLSN()-1, 0
	add(&Record{Type: TCheckpoint, DirtyPages: dirty})
	add(&Record{Type: TCatalog, Body: bytes.Repeat([]byte("catalog!"), logBufSize/8+1)})
	if err := l.Flush(0); err != nil {
		t.Fatal(err)
	}

	i, total := 0, 0
	if err := l.Iterate(0, func(lsn page.LSN, got *Record) error {
		w := want[i]
		if lsn != lsns[i] || got.Type != w.Type || got.Tx != w.Tx || got.PrevLSN != w.PrevLSN ||
			got.Page != w.Page || got.Off != w.Off || got.UndoOff != w.UndoOff || !sameChanges(got.Changes, w.Changes) ||
			!bytes.Equal(got.After, w.After) || !bytes.Equal(got.Before, w.Before) ||
			!reflect.DeepEqual(got.DirtyPages, w.DirtyPages) || !bytes.Equal(got.Body, w.Body) {
			t.Fatalf("record %d (%v at %d) came back as %+v", i, w.Type, lsn, got)
		}
		fp := got.Footprint()
		if fp != w.Footprint() {
			t.Fatalf("record %d: footprint %+v read back, %+v appended", i, fp, w.Footprint())
		}
		total += fp.Header + fp.Before + fp.After
		if body := w.appendTo(nil, lsn); w.Type != TCatalog { // a catalog body cut short is a shorter body
			for cut := 0; cut < len(body); cut += max(1, min(len(body)-1-cut, len(body)/128)) {
				if _, err := decodeRecord(body[:cut], lsn); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("record %d cut at %d of %d: %v, want ErrCorrupt", i, cut, len(body), err)
				}
			}
		}
		i++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if i != len(want) || total != int(l.NextLSN()-firstLSN) {
		t.Fatalf("%d of %d records read back; footprints add up to %d of %d bytes", i, len(want), total, l.NextLSN()-firstLSN)
	}

	// A reference the record cannot stand behind is refused, not wrapped.
	for _, rec := range []*Record{{Type: TCommit, PrevLSN: l.NextLSN()}, {Type: TCheckpoint, DirtyPages: []CkptPage{{RecLSN: 1 << 62}}}} {
		if _, err := l.Append(rec); !errors.Is(err, ErrUnencodable) {
			t.Fatalf("append of %v referring ahead: %v, want ErrUnencodable", rec.Type, err)
		}
	}

	// Runs the decoder would refuse are refused at Append.
	other := page.ID{Area: 1, Page: 8}
	for _, changes := range [][]Change{
		{{Page: other, Off: page.Size - 1, After: []byte{1, 2}}},
		{{Page: other, Off: 100, After: []byte{1, 2}}, {Page: other, Off: 101, After: []byte{3}}},
		{{Page: other, Off: 100, After: []byte{1, 2}}, {Page: other, Off: 0, After: []byte{3}}},
	} {
		if _, err := l.Append(&Record{Type: TCommit, Tx: 1, Changes: changes}); !errors.Is(err, ErrUnencodable) {
			t.Fatalf("append of runs %+v: %v, want ErrUnencodable", changes, err)
		}
	}

	// A page list's count larger than its body can hold is ErrCorrupt before
	// anything is allocated.
	body := (&Record{Type: TCommit, Tx: 1, Changes: []Change{{Page: page.ID{Area: 1, Page: 2}, After: []byte{1}}}}).appendTo(nil, firstLSN)
	hdr := 1 + txSize(1) + 1 // type, tx, no prev: the count follows
	for _, n := range []uint64{uint64(len(body)-hdr)/2 + 1, 1 << 20, 1 << 40, math.MaxUint64} {
		bad := append(binary.AppendUvarint(append([]byte(nil), body[:hdr]...), n), body[hdr+1:]...)
		corruptNoAlloc(t, fmt.Sprintf("page count %d past the record", n), bad)
	}
	// So is a page list whose runs encode never writes, whatever its count.
	uv := binary.AppendUvarint
	list := func(n uint64, entries ...[]byte) []byte {
		b := uv([]byte{byte(TCommit), 1, 0, 0}, n) // type, tx (counter, host), no prev, the count
		for _, e := range entries {
			b = append(b, e...)
		}
		return b
	}
	named := func(off, n uint64) []byte { // area 1, page 7
		return append(uv(uv(uv(uv(nil, 1<<1), 7), off), n<<1), bytes.Repeat([]byte{0x5A}, int(n))...)
	}
	cont := func(gap, n uint64) []byte {
		return append(uv(uv(nil, gap<<1|1), n<<1), bytes.Repeat([]byte{0x5A}, int(n))...)
	}
	for _, bad := range []struct {
		name string
		body []byte
	}{
		{"a continuation first in its list", list(1, cont(0, 1))},
		{"a continuation first, a page after it", list(2, cont(0, 1), named(0, 1))},
		{"an offset past the page's end", list(1, named(page.Size+1, 0))},
		{"a run past the page's end", list(1, named(page.Size-1, 2))},
		{"a gap past the page's end", list(2, named(0, 1), cont(page.Size, 0))},
		{"a gap as wide as a number holds", list(2, named(0, 1), cont(math.MaxUint32, 0))},
		{"a continued run past the page's end", list(2, named(4000, 1), cont(90, 10))},
		{"a run overlapping the one before it", list(2, named(0, 10), named(5, 10))},
		{"a run before the one before it", list(2, named(100, 10), named(0, 10))},
		{"a page named again after its run", list(2, named(0, 10), named(20, 10))},
	} {
		corruptNoAlloc(t, bad.name, bad.body)
	}
	if _, err := decodeRecord(list(2, named(0, 10), cont(10, 10)), firstLSN); err != nil {
		t.Fatalf("the well-formed list the refused ones are cut from: %v", err)
	}
}

// corruptNoAlloc fails t unless body decodes as ErrCorrupt, with no
// allocation on the way.
func corruptNoAlloc(t *testing.T, what string, body []byte) {
	t.Helper()
	if allocs := testing.AllocsPerRun(10, func() {
		var r Record
		if err := r.decode(body, firstLSN); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: %v, want ErrCorrupt", what, err)
		}
	}); allocs != 0 {
		t.Fatalf("%s: %v allocations before ErrCorrupt", what, allocs)
	}
}
