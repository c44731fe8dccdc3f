package wal

import (
	"bytes"
	"errors"
	"testing"

	"bess/internal/fault"
	"bess/internal/page"
)

// tornTestImage builds a durable log image: tx1 fully committed, then one
// final tx2 update record. Returns the image and the final record's LSN
// (its byte offset — the start of the region the tests tear).
func tornTestImage(t *testing.T) ([]byte, page.LSN) {
	t.Helper()
	l := NewMem()
	defer l.Close()
	if _, err := l.Append(&Record{Type: TRedo, Tx: 1, Page: page.ID{Area: 1, Page: 2}, After: []byte("new-value")}); err != nil {
		t.Fatal(err)
	}
	clsn, err := l.Append(&Record{Type: TCommit, Tx: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(clsn); err != nil {
		t.Fatal(err)
	}
	last, err := l.Append(&Record{Type: TRedo, Tx: 2, Page: page.ID{Area: 1, Page: 3}, After: bytes.Repeat([]byte{0x22}, 64)})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(last); err != nil {
		t.Fatal(err)
	}
	return l.DurableBytes(), last
}

// countAndLast reopens img and returns how many records survive and the
// tx of the last one.
func countAndLast(t *testing.T, img []byte) (int, uint64) {
	t.Helper()
	l, err := OpenMemFrom(img)
	if err != nil {
		t.Fatalf("reopening image of %d bytes: %v", len(img), err)
	}
	defer l.Close()
	n, lastTx := 0, uint64(0)
	if err := l.Iterate(firstLSN, func(_ page.LSN, rec *Record) error {
		n++
		lastTx = rec.Tx
		return nil
	}); err != nil {
		t.Fatalf("iterating image of %d bytes: %v", len(img), err)
	}
	return n, lastTx
}

// TestTornTailEveryByteBoundary cuts the final record at every byte
// boundary: reopening must never fail or panic, the torn record must be
// treated as end-of-log, and the committed prefix must stay intact.
func TestTornTailEveryByteBoundary(t *testing.T) {
	img, last := tornTestImage(t)

	// Sanity: the intact image has all three records.
	if n, lastTx := countAndLast(t, img); n != 3 || lastTx != 2 {
		t.Fatalf("intact image: %d records ending with tx %d, want 3/2", n, lastTx)
	}

	for cut := int(last); cut < len(img); cut++ {
		n, lastTx := countAndLast(t, img[:cut])
		if n != 2 || lastTx != 1 {
			t.Fatalf("cut at %d: %d records ending with tx %d, want exactly tx1's 2 records", cut, n, lastTx)
		}
	}
}

// TestTornTailGarbageFilled is the same sweep with the lost suffix
// overwritten by 0xA5 garbage instead of truncated — the checksum, not the
// file length, must reject the tail.
func TestTornTailGarbageFilled(t *testing.T) {
	img, last := tornTestImage(t)
	for cut := int(last); cut < len(img); cut++ {
		torn := append([]byte(nil), img...)
		for i := cut; i < len(torn); i++ {
			torn[i] = 0xA5
		}
		n, lastTx := countAndLast(t, torn)
		if n != 2 || lastTx != 1 {
			t.Fatalf("garbage from %d: %d records ending with tx %d, want exactly tx1's 2 records", cut, n, lastTx)
		}
	}
}

// TestTornTailOverwrittenByNewAppends: after reopening a torn log, new
// appends land at the logical end and replace the torn bytes.
func TestTornTailOverwrittenByNewAppends(t *testing.T) {
	img, last := tornTestImage(t)
	torn := img[:int(last)+5] // mid-header tear

	l, err := OpenMemFrom(torn)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.NextLSN(); got != last {
		t.Fatalf("NextLSN after torn reopen = %d, want the torn record's offset %d", got, last)
	}
	lsn, err := l.Append(&Record{Type: TCommit, Tx: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(lsn); err != nil {
		t.Fatal(err)
	}
	if n, lastTx := countAndLast(t, l.DurableBytes()); n != 3 || lastTx != 9 {
		t.Fatalf("after overwrite: %d records ending with tx %d, want 3 ending with 9", n, lastTx)
	}
}

// TestFlushRetryAfterTransientSyncError: an injected EIO on the sync leg
// fails the Flush, but the log re-queues the detached tail so a retry
// makes the records durable.
func TestFlushRetryAfterTransientSyncError(t *testing.T) {
	inj := fault.NewInjector(5)
	st := fault.NewStore(inj)
	l, err := Open(st.WAL())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	lsn, err := l.Append(&Record{Type: TCommit, Tx: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Flush = one write then one sync; fail the sync.
	inj.FailAt(inj.Events()+2, nil)
	if err := l.Flush(lsn); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("flush err = %v, want the injected error", err)
	}
	if err := l.Flush(lsn); err != nil {
		t.Fatalf("retry flush: %v", err)
	}
	l2, err := OpenMemFrom(st.CrashImage())
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec := readRec(t, l2, lsn); rec.Type != TCommit || rec.Tx != 1 {
		t.Fatalf("record not durable after retried flush: %+v", rec)
	}
}
