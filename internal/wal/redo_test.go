package wal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"bess/internal/page"
)

// redo is a redo-only record of tx changing pid at off to after.
func redo(tx uint64, prev page.LSN, pid page.ID, off uint32, after []byte) *Record {
	return &Record{Type: TRedo, Tx: tx, PrevLSN: prev, Page: pid, Off: off, After: after}
}

// TestRedoRecordHasNoUndoHalf: a TRedo record round-trips its redo half —
// an anchor, a byte range, an all-zero image kept as its length — stores no
// before-image, and costs a header 4 bytes smaller than an update's. It
// carries a pending token, not a page store's proof.
func TestRedoRecordHasNoUndoHalf(t *testing.T) {
	l := NewMem()
	pid := page.ID{Area: 4, Page: 77}
	whole := bytes.Repeat([]byte{0x3C}, page.Size)
	records := []*Record{
		redo(1, 0, pid, 0, whole),
		redo(1, 8, pid, 1500, []byte("a byte range")),
		redo(1, 9, pid, 256, make([]byte, 700)),
	}
	var lsns []page.LSN
	for _, r := range records {
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
		if r.Pending().Page() != pid || r.Pending().lsn != lsn {
			t.Fatalf("appended TRedo: pending token %+v", r.Pending())
		}
	}
	if err := l.Flush(0); err != nil {
		t.Fatal(err)
	}
	for i, want := range records {
		got, err := l.ReadRecord(lsns[i])
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != TRedo || got.Tx != 1 || got.PrevLSN != want.PrevLSN || got.Page != pid ||
			got.Off != want.Off || !bytes.Equal(got.After, want.After) || got.Before != nil || got.UndoOff != 0 {
			t.Fatalf("record %d came back as %+v", i, got)
		}
		if got.Pending() != want.Pending() {
			t.Fatalf("record %d read back: pending token %+v", i, got.Pending())
		}
		fp := got.Footprint()
		if fp.Before != 0 || fp.ZeroBefore != 0 {
			t.Fatalf("record %d stores an undo half: %+v", i, fp)
		}
		update := &Record{Type: TUpdate, Tx: 1, Page: pid, Off: want.Off, After: want.After, Before: bytes.Repeat([]byte{1}, 10)}
		if d := update.Footprint().Header - fp.Header; d != 4 {
			t.Fatalf("a TRedo header is %d bytes smaller than an update's, want 4", d)
		}
	}
	if got := TRedo.String(); got != "redo" {
		t.Fatalf("TRedo prints as %q", got)
	}
	if int(TRedo) >= NumTypes {
		t.Fatalf("NumTypes %d does not cover TRedo (%d)", NumTypes, TRedo)
	}
}

// TestDurableOnlyAfterTheForce: the log mints a transaction's Durable only
// once its commit record is below the flushed frontier, and the Durable
// proves a store only for that transaction's records before its commit.
func TestDurableOnlyAfterTheForce(t *testing.T) {
	l := NewMem()
	pid := page.ID{Area: 1, Page: 3}
	r := redo(7, 0, pid, 0, []byte("shipped"))
	lsn, _ := l.Append(r)
	other := redo(8, 0, page.ID{Area: 1, Page: 4}, 0, []byte("theirs"))
	l.Append(other)
	commit, _ := l.Append(&Record{Type: TCommit, Tx: 7, PrevLSN: lsn})
	late := redo(7, commit, pid, 0, []byte("after the commit"))
	l.Append(late)
	if _, err := l.Durable(7, commit); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Durable before the force: %v, want ErrNotDurable", err)
	}
	if err := l.Flush(commit); err != nil {
		t.Fatal(err)
	}
	d, err := l.Durable(7, commit)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := d.Proof(r.Pending())
	if err != nil || proof.Page() != pid || proof.LSN() != lsn {
		t.Fatalf("proof of the transaction's own record: %+v, %v", proof, err)
	}
	for name, bad := range map[string]Pending{"another transaction's": other.Pending(), "a later": late.Pending(), "the zero": {}} {
		if _, err := d.Proof(bad); !errors.Is(err, ErrNotDurable) {
			t.Fatalf("proof of %s record: %v, want ErrNotDurable", name, err)
		}
	}
	if _, err := (Durable{}).Proof(r.Pending()); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("the zero Durable proves %v", err)
	}
}

// TestReplayerAppliesRedoAtCommit is the one rule of page history: a
// transaction's redo-only records take effect at its commit — also when the
// log ends before the transaction's end record — and never when it aborted
// (also after a commit record whose force failed), or is open or in doubt
// when the log ends. An update record is no page change at all. Restart redo
// follows the rule (Analysis.Redo).
func TestReplayerAppliesRedoAtCommit(t *testing.T) {
	l := NewMem()
	pg := func(n page.No) page.ID { return page.ID{Area: 2, Page: n} }
	ship := func(tx uint64, n page.No, s string) page.LSN {
		lsn, err := l.Append(redo(tx, 0, pg(n), 0, []byte(s)))
		if err != nil {
			t.Fatal(err)
		}
		return lsn
	}
	mark := func(tx uint64, typ Type) { l.Append(&Record{Type: typ, Tx: tx}) }

	ship(1, 1, "one")   // committed and ended
	ship(2, 2, "two")   // committed, the log ends before its end record
	ship(3, 3, "three") // aborted
	ship(4, 4, "four")  // open
	ship(5, 5, "five")  // in doubt
	ship(6, 6, "six")   // its commit's force failed: rolled back after it
	// An update record, then a commit: the codec's record, no page's history.
	l.Append(&Record{Type: TUpdate, Tx: 7, Page: pg(7), After: []byte("seven"), Before: []byte{0}})
	ship(1, 9, "nine") // a second record of tx 1, after others in the log
	mark(1, TCommit)
	mark(3, TAbort)
	mark(5, TPrepare)
	mark(6, TCommit)
	mark(1, TEnd)
	mark(6, TAbort)
	mark(6, TEnd)
	mark(7, TCommit)
	mark(2, TCommit)
	if err := l.Flush(0); err != nil {
		t.Fatal(err)
	}

	var order []string
	rp := NewReplayer(func(lsn page.LSN, rec *Record, proof Logged) error {
		if proof.LSN() != lsn || proof.Page() != rec.Page {
			return fmt.Errorf("record at %d handed on with the proof %+v", lsn, proof)
		}
		order = append(order, fmt.Sprintf("%v:%s", rec.Type, rec.After))
		return nil
	})
	if err := l.Iterate(FirstLSN(), rp.Add); err != nil {
		t.Fatal(err)
	}
	if err := rp.End(); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(order), "[redo:one redo:nine redo:two]"; got != want {
		t.Fatalf("replayed %q, want %q", got, want)
	}

	disk := newMemPager()
	st, _, err := redoOn(l, disk)
	if err != nil {
		t.Fatal(err)
	}
	for n, want := range map[page.No]string{1: "one", 2: "two", 9: "nine", 3: "", 4: "", 5: "", 6: "", 7: ""} {
		buf := make([]byte, page.Size)
		disk.ReadPage(pg(n), buf)
		if got := string(bytes.TrimRight(buf[:8], "\x00")); got != want {
			t.Fatalf("page %d after restart redo holds %q, want %q", n, got, want)
		}
	}
	if fmt.Sprint(st.Winners, st.Losers, st.InDoubt) != "[2 7] [4] [5]" {
		t.Fatalf("winners %v losers %v in doubt %v", st.Winners, st.Losers, st.InDoubt)
	}
}
