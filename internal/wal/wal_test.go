package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
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

// TestCheckpointRoundTrip: a checkpoint carries its dirty-page table. The
// word before it counts a list of transactions that earlier builds wrote in
// the same format version: written as 0, skipped when it is not, and a count
// that runs past the record is ErrCorrupt, at once.
func TestCheckpointRoundTrip(t *testing.T) {
	l := NewMem()
	dirty := []CkptPage{{Page: page.ID{Area: 1, Page: 3}, RecLSN: 42}}
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
	body := rec.appendTo(nil)
	if n := binary.BigEndian.Uint32(body[17:]); n != 0 {
		t.Fatalf("transaction list count %d, want 0", n)
	}

	old := listingCheckpoint([][2]uint64{{5, 99}, {6, 120}}, dirty)
	if rec, err := decodeRecord(old); err != nil || rec.Type != TCheckpoint || !reflect.DeepEqual(rec.DirtyPages, dirty) {
		t.Fatalf("checkpoint listing transactions: %+v, %v", rec, err)
	}
	for _, n := range []uint32{uint32(len(old)-21)/16 + 1, 1 << 28, 1<<32 - 1} {
		binary.BigEndian.PutUint32(old[17:], n)
		if _, err := decodeRecord(old); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("list count %d past the record: %v", n, err)
		}
	}
}

// listingCheckpoint is the body of a checkpoint record as the builds before
// this one wrote it: a list of (tx, last LSN) pairs ahead of the dirty pages.
func listingCheckpoint(txs [][2]uint64, dirty []CkptPage) []byte {
	b := (&Record{Type: TCheckpoint, DirtyPages: dirty}).appendTo(nil)
	list := binary.BigEndian.AppendUint32(nil, uint32(len(txs)))
	for _, e := range txs {
		list = binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(list, e[0]), e[1])
	}
	return append(append(b[:17:17], list...), b[21:]...)
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
	if lsn < l2.FlushedLSN() {
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
// that many zeroes; the size Append reserves is the size encode writes; and a
// record cut short, or whose flagged length is not one encode writes, is
// corrupt, never a panic.
func TestZeroImageRoundTrip(t *testing.T) {
	pid := page.ID{Area: 2, Page: 5}
	some := bytes.Repeat([]byte{7}, 200)
	for _, tc := range []struct {
		name   string
		rec    Record
		stored int // image bytes in the encoding
	}{
		{"range zeroed", Record{Type: TRedo, Page: pid, Off: 64, After: make([]byte, 200)}, 0},
		{"anchor of a zeroed page", Record{Type: TRedo, Page: pid, After: make([]byte, page.Size)}, 0},
		{"nothing zero", Record{Type: TRedo, Page: pid, Off: 9, After: some}, 200},
		{"zeroes longer than a page are stored", Record{Type: TRedo, Page: pid, After: make([]byte, page.Size+1)}, page.Size + 1},
		{"update of a fresh page", Record{Type: TUpdate, Page: pid, After: bytes.Repeat([]byte{1}, page.Size), Before: make([]byte, page.Size)}, page.Size},
		{"update, range zeroed", Record{Type: TUpdate, Page: pid, Off: 9, After: make([]byte, 200), UndoOff: 9, Before: some}, 200},
		{"update, one zero byte", Record{Type: TUpdate, Page: pid, Off: 1, After: []byte{1}, UndoOff: 1, Before: []byte{0}}, 1},
		{"update, nothing zero", Record{Type: TUpdate, Page: pid, After: some, Before: some}, 400},
	} {
		rec := tc.rec
		enc := rec.appendTo(nil)
		if len(enc) != rec.encodedLen() {
			t.Fatalf("%s: encodedLen %d, encoded %d bytes", tc.name, rec.encodedLen(), len(enc))
		}
		fixed := 17 + 4 + 8 + 4 + 4 // header, page, offset word, after length
		if rec.Type == TUpdate {
			fixed += 4 // before length
		}
		if len(enc) != fixed+tc.stored {
			t.Fatalf("%s: %d bytes encoded, want %d of fields and %d of images", tc.name, len(enc), fixed, tc.stored)
		}
		if fp := rec.Footprint(); fp.Header+fp.Before+fp.After != recHeaderSize+len(enc) ||
			fp.Before+fp.After != tc.stored || fp.ZeroBefore+fp.ZeroAfter != len(rec.Before)+len(rec.After)-tc.stored {
			t.Fatalf("%s: footprint %+v of %d encoded bytes", tc.name, fp, len(enc))
		}
		got, err := decodeRecord(enc)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.Off != rec.Off || got.UndoOff != rec.UndoOff || !bytes.Equal(got.Before, rec.Before) || !bytes.Equal(got.After, rec.After) {
			t.Fatalf("%s: decoded %+v", tc.name, got)
		}
		for cut := 0; cut < len(enc); cut += max(1, len(enc)/64) {
			if _, err := decodeRecord(enc[:cut]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s cut at %d of %d: %v, want ErrCorrupt", tc.name, cut, len(enc), err)
			}
		}
	}
	// Flagged lengths encode never writes: none, and more than a page.
	enc := (&Record{Type: TRedo, Page: pid, After: make([]byte, 8)}).appendTo(nil)
	for _, n := range []uint32{0, page.Size + 1, 1<<31 - 1} {
		binary.BigEndian.PutUint32(enc[len(enc)-4:], n|zeroImage)
		if _, err := decodeRecord(enc); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flagged length %d: %v, want ErrCorrupt", n, err)
		}
	}
	if !bytes.Equal(zeroes[:], make([]byte, page.Size)) {
		t.Fatal("something wrote to the shared zero page")
	}
	// An offset the record's offset word cannot hold is refused, not truncated.
	l := NewMem()
	defer l.Close()
	for _, rec := range []*Record{{Type: TUpdate, Page: pid, Off: maxOff + 1, After: some}, {Type: TUpdate, Page: pid, UndoOff: 1 << 20, Before: some}} {
		if _, err := l.Append(rec); !errors.Is(err, ErrOffset) {
			t.Fatalf("Append with off %d, undo off %d: %v, want ErrOffset", rec.Off, rec.UndoOff, err)
		}
	}
}

// TestOldLogVersionRefused: a log whose header carries a version from before
// the offset word was split, from before the redo-only record, or from before
// the compensation record went, is refused by name, whatever its records look
// like, and one from a later build is refused too.
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
	for _, v := range []byte{1, 2, 3} { // before the split offset word; before TRedo; with CLRs
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
