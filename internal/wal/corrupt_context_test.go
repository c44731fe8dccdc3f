package wal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"bess/internal/page"
)

// TestCorruptRecordErrorContext pins the error contract for log rot: a
// record whose CRC no longer matches must surface with the ErrCorrupt
// sentinel intact (errors.Is) and the byte offset of the damage in its
// context, through the full-log Verify sweep and through a live walk.
func TestCorruptRecordErrorContext(t *testing.T) {
	l := NewMem()
	defer l.Close()
	fill := bytes.Repeat([]byte{0x5A}, page.Size)
	lsn1, err := l.Append(&Record{Type: TRedo, Tx: 1, Page: page.ID{Area: 3, Page: 1}, After: fill})
	if err != nil {
		t.Fatal(err)
	}
	lsn2, err := l.Append(&Record{Type: TCommit, Tx: 1, PrevLSN: lsn1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(l.NextLSN()); err != nil {
		t.Fatal(err)
	}

	// Rot the last byte of the first record's page image, under the live log:
	// its CRC and length stay intact.
	img := l.back.(*memBacking).buf
	img[int(lsn2)-1] ^= 0x80
	check := func(l *Log) {
		t.Helper()
		_, verr := l.Verify()
		if !errors.Is(verr, ErrCorrupt) {
			t.Fatalf("Verify err = %v, want ErrCorrupt identity", verr)
		}
		var ce *page.CorruptError
		if !errors.As(verr, &ce) {
			t.Fatalf("Verify err = %T, want *page.CorruptError", verr)
		}
		if ce.Section != "wal" || ce.Off != int64(lsn1) {
			t.Fatalf("Verify context = %+v, want wal section at offset %d", ce, lsn1)
		}
	}
	check(l)
	// A live walk over the rotted record fails on it: a replay that took it
	// for the end of the log would hand back a history without its changes.
	if err := l.Iterate(FirstLSN(), func(page.LSN, *Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Iterate over the rot: %v, want ErrCorrupt", err)
	}
	if _, err := ReplayPages(l, FirstLSN(), func(page.LSN, *Change) bool { return true }, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReplayPages over the rot: %v, want ErrCorrupt", err)
	}
	// Rot is local: the intact record past the damage still reads clean.
	if rec := readRec(t, l, lsn2); rec.Type != TCommit {
		t.Fatalf("intact record at %d: %+v", lsn2, rec)
	}

	// A reopened log's scan for its end stops at the rotted record (torn-tail
	// doctrine) and cuts what lies beyond, but not before it has seen that the
	// stored length leads to an intact record: mid-log rot, which Verify keeps
	// reporting at the same offset.
	l2, err := OpenMemFrom(img)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	check(l2)
	if err := l2.Iterate(lsn2, func(lsn page.LSN, rec *Record) error {
		return fmt.Errorf("record past the cut at %d still readable: %+v", lsn, rec)
	}); err != nil {
		t.Fatal(err)
	}
}
