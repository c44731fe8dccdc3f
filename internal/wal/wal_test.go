package wal

import (
	"bytes"
	"path/filepath"
	"testing"

	"bess/internal/page"
)

func upd(tx uint64, prev page.LSN, pid page.ID, off uint32, before, after string) *Record {
	return &Record{
		Type: TUpdate, Tx: tx, PrevLSN: prev, Page: pid, Off: off,
		Before: []byte(before), After: []byte(after),
	}
}

func TestAppendFlushIterate(t *testing.T) {
	l := NewMem()
	pid := page.ID{Area: 1, Page: 10}
	l1, err := l.Append(upd(1, 0, pid, 100, "aaa", "bbb"))
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
	if r.Type != TUpdate || r.Tx != 1 || r.Page != pid || r.Off != 100 ||
		string(r.Before) != "aaa" || string(r.After) != "bbb" {
		t.Fatalf("record round trip: %+v", r)
	}
	if recs[1].PrevLSN != l1 {
		t.Fatal("prevLSN lost")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	l := NewMem()
	lsn, err := Checkpoint(l,
		[]CkptTx{{Tx: 5, LastLSN: 99}, {Tx: 6, LastLSN: 120}},
		[]CkptPage{{Page: page.ID{Area: 1, Page: 3}, RecLSN: 42}},
	)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := l.ReadRecord(lsn)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.ActiveTxs) != 2 || rec.ActiveTxs[1].Tx != 6 || rec.ActiveTxs[1].LastLSN != 120 {
		t.Fatalf("active txs: %+v", rec.ActiveTxs)
	}
	if len(rec.DirtyPages) != 1 || rec.DirtyPages[0].RecLSN != 42 {
		t.Fatalf("dirty pages: %+v", rec.DirtyPages)
	}
}

func TestDurableBytesExcludesTail(t *testing.T) {
	l := NewMem()
	pid := page.ID{Area: 1, Page: 1}
	l.Append(upd(1, 0, pid, 0, "x", "y"))
	l.Flush(0)
	l.Append(upd(1, 0, pid, 0, "y", "z")) // not flushed: lost in the crash
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
	l.Append(upd(1, 0, page.ID{Area: 1, Page: 1}, 0, "a", "b"))
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
	lsn, _ := l.Append(upd(3, 0, pid, 8, "old", "new"))
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
	if len(types) != 2 || types[0] != TUpdate || types[1] != TCommit {
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
	if TUpdate.String() != "update" || TCLR.String() != "clr" || TCheckpoint.String() != "checkpoint" {
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
	records := []*Record{
		upd(1, 0, pid, 77, "before-bytes", "after-bytes"),
		{Type: TCLR, Tx: 1, PrevLSN: 5, Page: pid, Off: 3, After: []byte("undoimg"), UndoNext: 17},
		{Type: TCommit, Tx: 2, PrevLSN: 9},
		{Type: TAbort, Tx: 3},
		{Type: TEnd, Tx: 3},
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
	clr := got[1]
	if clr.Type != TCLR || clr.UndoNext != 17 || !bytes.Equal(clr.After, []byte("undoimg")) {
		t.Fatalf("clr = %+v", clr)
	}
	for i, r := range got {
		if r.Tx != records[i].Tx || r.Type != records[i].Type {
			t.Fatalf("record %d: %+v", i, r)
		}
	}
}
