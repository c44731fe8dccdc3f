package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bess/internal/page"
)

// upd is a page change: a redo-only record of pid's bytes at off.
func upd(tx uint64, prev page.LSN, pid page.ID, off uint32, after string) *Record {
	return &Record{Type: TRedo, Tx: tx, PrevLSN: prev, Page: pid, Off: off, After: []byte(after)}
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
	if r.Type != TRedo || r.Tx != 1 || r.Page != pid || r.Off != 100 || string(r.After) != "bbb" {
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
	rec, err := l.ReadRecord(lsn)
	if err != nil {
		t.Fatal(err)
	}
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
	if TUpdate.String() != "update" || TRedo.String() != "redo" || TCheckpoint.String() != "checkpoint" || Type(2).String() != "type(2)" {
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
		{Type: TEnd, Tx: 3},
		// An anchor, and a range zeroed: an all-zero image.
		{Type: TRedo, Tx: 4, Page: pid, After: whole},
		{Type: TRedo, Tx: 4, PrevLSN: 5, Page: pid, Off: 100, After: make([]byte, 300)},
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
			!bytes.Equal(r.Before, want.Before) || !bytes.Equal(r.After, want.After) {
			t.Fatalf("record %d: %+v", i, r)
		}
	}
	if a := got[4]; !a.WholePage() || got[5].WholePage() {
		t.Fatalf("anchor = off %d, %d bytes", a.Off, len(a.After))
	}
}

// TestZeroImageRoundTrip: an all-zero image is in the log as its length —
// before-image, after-image, both, whole page or range — and comes back as
// that many zeroes; the size Append reserves is the size encode writes, field
// by field as format 5 lays it out; and a record cut short, or whose flagged
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
		// The type, the tx (counter and host), prev, area, page and a one-byte
		// offset are 7 bytes; an image length of 64 or more bytes, 2 (it is
		// shifted left one, for the flag).
		{"range zeroed", Record{Type: TRedo, Page: pid, Off: 64, After: make([]byte, 200)}, 7 + 2, 0},
		{"anchor of a zeroed page", Record{Type: TRedo, Page: pid, After: make([]byte, page.Size)}, 7 + 2, 0},
		{"nothing zero", Record{Type: TRedo, Page: pid, Off: 9, After: some}, 7 + 2, 200},
		{"a two-byte offset", Record{Type: TRedo, Page: pid, Off: page.Size - 1, After: []byte{5}}, 7 + 1 + 1, 1},
		{"zeroes longer than a page are stored", Record{Type: TRedo, Page: pid, After: make([]byte, page.Size+1)}, 7 + 2, page.Size + 1},
		// An update adds its undo offset, and the before-image's length.
		{"update of a fresh page", Record{Type: TUpdate, Page: pid, After: bytes.Repeat([]byte{1}, page.Size), Before: make([]byte, page.Size)}, 8 + 2 + 2, page.Size},
		{"update, range zeroed", Record{Type: TUpdate, Page: pid, Off: 9, After: make([]byte, 200), UndoOff: 9, Before: some}, 8 + 2 + 2, 200},
		{"update, one zero byte", Record{Type: TUpdate, Page: pid, Off: 1, After: []byte{1}, UndoOff: 1, Before: []byte{0}}, 8 + 1 + 1, 1},
		{"update, nothing zero", Record{Type: TUpdate, Page: pid, After: some, Before: some}, 8 + 2 + 2, 400},
	} {
		rec := tc.rec
		enc := rec.appendTo(nil, firstLSN)
		if len(enc) != rec.encodedLen(firstLSN) {
			t.Fatalf("%s: encodedLen %d, encoded %d bytes", tc.name, rec.encodedLen(firstLSN), len(enc))
		}
		if len(enc) != tc.fields+tc.stored {
			t.Fatalf("%s: %d bytes encoded, want %d of fields and %d of images", tc.name, len(enc), tc.fields, tc.stored)
		}
		if fp := rec.Footprint(); fp.Header+fp.Before+fp.After != frameSize(len(enc)) ||
			fp.Before+fp.After != tc.stored || fp.ZeroBefore+fp.ZeroAfter != len(rec.Before)+len(rec.After)-tc.stored {
			t.Fatalf("%s: footprint %+v of %d encoded bytes", tc.name, fp, len(enc))
		}
		got, err := decodeRecord(enc, firstLSN)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.Off != rec.Off || got.UndoOff != rec.UndoOff || !bytes.Equal(got.Before, rec.Before) || !bytes.Equal(got.After, rec.After) {
			t.Fatalf("%s: decoded %+v", tc.name, got)
		}
		for cut := 0; cut < len(enc); cut += max(1, len(enc)/64) {
			if _, err := decodeRecord(enc[:cut], firstLSN); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s cut at %d of %d: %v, want ErrCorrupt", tc.name, cut, len(enc), err)
			}
		}
	}
	// Flagged lengths encode never writes: none, and more than a page.
	enc := (&Record{Type: TRedo, Page: pid, After: make([]byte, 8)}).appendTo(nil, firstLSN)
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
// the compensation record went, or from before the varint codec, is refused
// by name, whatever its records look like, and one from a later build is
// refused too.
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
	for _, v := range []byte{1, 2, 3, 4} { // before the split offset word; before TRedo; with CLRs; fixed-width fields
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
// anything is read past its header or written to it. Read as format 5 its
// first record fails its CRC, so the log would open empty and the next append
// would overwrite a committed transaction.
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
		t.Fatalf("a format-4 body under a format-5 header opened with its end at %d", l.NextLSN())
	}
}

// TestRecordCodecEdges is the format-5 round trip at the edges of every field:
// tx 0 and the largest; no PrevLSN, one byte back and at FirstLSN; offsets 0
// and page.Size-1; images of 0, 1 and page.Size bytes, stored and all-zero;
// checkpoints of 0 and 3,000 pages; a catalog record larger than a log buffer.
// Each is appended to a log — its references encoded as distances back from
// where it lands — and read back field for field, its footprint the same both
// ways; the footprints add up to the log; and each body cut short is
// ErrCorrupt.
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
					add(&Record{Type: TRedo, Tx: tx, PrevLSN: p, Page: pid, Off: off, After: img})
					add(&Record{Type: TUpdate, Tx: tx, PrevLSN: p, Page: pid, Off: off, After: img,
						UndoOff: page.Size - 1 - off, Before: images[len(images)-1-i]})
				}
			}
		}
		add(&Record{Type: TCommit, Tx: tx, PrevLSN: l.NextLSN() - 1})
		add(&Record{Type: TEnd, Tx: tx})
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
			got.Page != w.Page || got.Off != w.Off || got.UndoOff != w.UndoOff ||
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
}
