package wal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"bess/internal/page"
)

// redo is a spill (TRedo) of tx changing pid at off to after.
func redo(tx uint64, prev page.LSN, pid page.ID, off uint32, after []byte) *Record {
	return &Record{Type: TRedo, Tx: tx, PrevLSN: prev, Changes: []Change{{Page: pid, Off: off, After: after}}}
}

// TestRedoRecordHasNoUndoHalf: a page change round-trips its redo half — an
// anchor, a byte range, an all-zero image kept as its length — stores no
// before-image, and in a spill of one change costs a header 1 byte smaller
// than an update's at the same LSN (the page count in, the undo offset and the
// before-image length out). Each change of a spill, a prepare or a commit
// carries a pending token, not a page store's proof; an abort's anchors do
// not.
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
		if r.Pending(0).Page() != pid || r.Pending(0).lsn != lsn || r.Pending(1) != (Pending{}) {
			t.Fatalf("appended TRedo: pending tokens %+v, %+v", r.Pending(0), r.Pending(1))
		}
	}
	if err := l.Flush(0); err != nil {
		t.Fatal(err)
	}
	for i, want := range records {
		got := readRec(t, l, lsns[i])
		if got.Type != TRedo || got.Tx != 1 || got.PrevLSN != want.PrevLSN || !sameChanges(got.Changes, want.Changes) ||
			got.Before != nil || got.After != nil || got.UndoOff != 0 {
			t.Fatalf("record %d came back as %+v", i, got)
		}
		if got.Pending(0) != want.Pending(0) {
			t.Fatalf("record %d read back: pending token %+v", i, got.Pending(0))
		}
		fp := got.Footprint()
		if fp.Before != 0 || fp.ZeroBefore != 0 {
			t.Fatalf("record %d stores an undo half: %+v", i, fp)
		}
		c := want.Changes[0]
		update := &Record{Type: TUpdate, Tx: 1, PrevLSN: want.PrevLSN, Page: pid, Off: c.Off, After: c.After, Before: bytes.Repeat([]byte{1}, 10)}
		update.lsn = lsns[i]
		if d := update.Footprint().Header - fp.Header; d != 1 {
			t.Fatalf("a TRedo header is %d bytes smaller than an update's, want 1", d)
		}
	}
	for _, typ := range []Type{TPrepare, TCommit, TAbort} {
		r := &Record{Type: typ, Tx: 1, Changes: records[0].Changes}
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		if got := r.Pending(0); (got != Pending{}) == (typ == TAbort) {
			t.Fatalf("a %v's change: pending token %+v", typ, got)
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
// proves a store only for that transaction's changes in its commit record or
// before it.
func TestDurableOnlyAfterTheForce(t *testing.T) {
	l := NewMem()
	pid := page.ID{Area: 1, Page: 3}
	r := redo(7, 0, pid, 0, []byte("shipped"))
	lsn, _ := l.Append(r)
	other := redo(8, 0, page.ID{Area: 1, Page: 4}, 0, []byte("theirs"))
	l.Append(other)
	cr := &Record{Type: TCommit, Tx: 7, PrevLSN: lsn, Changes: []Change{{Page: pid, Off: 9, After: []byte("in the commit")}}}
	commit, _ := l.Append(cr)
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
	for _, own := range []*Record{r, cr} {
		proof, err := d.Proof(own.Pending(0))
		if err != nil || proof.Page() != pid || proof.LSN() != own.lsn {
			t.Fatalf("proof of the transaction's own %v change: %+v, %v", own.Type, proof, err)
		}
	}
	for name, bad := range map[string]Pending{"another transaction's": other.Pending(0), "a later": late.Pending(0), "the zero": {}} {
		if _, err := d.Proof(bad); !errors.Is(err, ErrNotDurable) {
			t.Fatalf("proof of %s change: %v, want ErrNotDurable", name, err)
		}
	}
	if _, err := (Durable{}).Proof(r.Pending(0)); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("the zero Durable proves %v", err)
	}
}

// TestReplayerAppliesRedoAtCommit is the one rule of page history: a
// transaction's page changes take effect at its commit — those of its spills
// and its prepare, held until then, before those its commit carries — and
// never when it aborted or is open or in doubt when the log ends. A commit
// whose force failed is followed by its abort, whose anchors take effect
// where it stands and put back what the commit replaced. An update record is
// no page change at all. Restart redo follows the rule (Analysis.Redo).
func TestReplayerAppliesRedoAtCommit(t *testing.T) {
	l := NewMem()
	pg := func(n page.No) page.ID { return page.ID{Area: 2, Page: n} }
	change := func(n page.No, s string) []Change { return []Change{{Page: pg(n), After: []byte(s)}} }
	add := func(typ Type, tx uint64, changes []Change) {
		if _, err := l.Append(&Record{Type: typ, Tx: tx, Changes: changes}); err != nil {
			t.Fatal(err)
		}
	}

	add(TRedo, 1, change(1, "one"))     // spilled, then committed
	add(TRedo, 3, change(3, "three"))   // spilled, then aborted
	add(TRedo, 4, change(4, "four"))    // spilled, open
	add(TPrepare, 5, change(5, "five")) // in doubt
	// An update record, then a commit: the codec's record, no page's history.
	l.Append(&Record{Type: TUpdate, Tx: 7, Page: pg(7), After: []byte("seven"), Before: []byte{0}})
	add(TCommit, 2, change(2, "two")) // one record
	add(TCommit, 1, change(9, "nine"))
	add(TAbort, 3, nil)
	add(TCommit, 6, change(6, "six")) // its force failed: rolled back after it
	add(TAbort, 6, change(6, "old"))
	add(TCommit, 7, nil)
	if err := l.Flush(0); err != nil {
		t.Fatal(err)
	}

	var order []string
	rp := newReplayer(func(lsn page.LSN, c *Change, proof Logged) error {
		if proof.LSN() != lsn || proof.Page() != c.Page {
			return fmt.Errorf("change at %d handed on with the proof %+v", lsn, proof)
		}
		order = append(order, fmt.Sprintf("%d:%s", c.Page.Page, c.After))
		return nil
	})
	if err := l.Iterate(FirstLSN(), rp.Add); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(order), "[2:two 1:one 9:nine 6:six 6:old]"; got != want {
		t.Fatalf("replayed %q, want %q", got, want)
	}

	disk := newMemPager()
	st, _, err := redoOn(l, disk)
	if err != nil {
		t.Fatal(err)
	}
	for n, want := range map[page.No]string{1: "one", 2: "two", 9: "nine", 6: "old", 3: "", 4: "", 5: "", 7: ""} {
		buf := make([]byte, page.Size)
		disk.ReadPage(pg(n), buf)
		if got := string(bytes.TrimRight(buf[:8], "\x00")); got != want {
			t.Fatalf("page %d after restart redo holds %q, want %q", n, got, want)
		}
	}
	if fmt.Sprint(st.Winners, st.Losers, st.InDoubt) != "[1 2 7] [4] [5]" {
		t.Fatalf("winners %v losers %v in doubt %v", st.Winners, st.Losers, st.InDoubt)
	}
}
