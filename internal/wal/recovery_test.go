package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"bess/internal/page"
)

// memPager is an in-memory page store; missing pages read as zeros. As a
// Pager (redoOn) it asserts every store's proof: non-zero, and of a record
// below the end of the log being recovered.
type memPager struct {
	pages map[page.ID][]byte
	log   *Log
}

func newMemPager() *memPager { return &memPager{pages: make(map[page.ID][]byte)} }

func (p *memPager) ReadPage(id page.ID, buf []byte) error {
	if pg, ok := p.pages[id]; ok {
		copy(buf, pg)
		return nil
	}
	for i := range buf {
		buf[i] = 0
	}
	return nil
}

func (p *memPager) WritePage(proof Logged, data []byte) error {
	if proof.LSN() == 0 {
		return ErrNotLogged
	}
	if proof.LSN() >= p.log.NextLSN() {
		return fmt.Errorf("store of %v on a proof at lsn %d, past the log end %d", proof.Page(), proof.LSN(), p.log.NextLSN())
	}
	p.put(proof.Page(), data)
	return nil
}

// redoOn is Analyze and Redo, p checking proofs against l. What restart does
// with the transactions analysis reports is tested where it lives
// (internal/tx).
func redoOn(l *Log, p *memPager) (*RecoveryStats, []Unfinished, error) {
	p.log = l
	a, err := Analyze(l, nil)
	if err != nil {
		return nil, nil, err
	}
	return &a.Stats, a.Open, a.Redo(p)
}

// put is the raw device write a buffer manager would do.
func (p *memPager) put(id page.ID, data []byte) {
	p.pages[id] = append([]byte(nil), data...)
}

func (p *memPager) byteAt(id page.ID, off int) byte {
	if pg, ok := p.pages[id]; ok {
		return pg[off]
	}
	return 0
}

// TestRedoReportsTheUnfinished: analysis sorts the log's transactions into
// winners, losers and in-doubt branches, redo repeats the winners' history and
// nobody else's, and the open ones come back latest record first.
func TestRedoReportsTheUnfinished(t *testing.T) {
	l := NewMem()
	disk := newMemPager()
	pA := page.ID{Area: 1, Page: 1}
	pB := page.ID{Area: 1, Page: 2}

	// Tx 1 (winner): writes "WIN" at pA:0, commits; the page is lost.
	r1 := upd(1, 0, pA, 0, "WIN")
	lsn1, _ := l.Append(r1)
	l.Append(&Record{Type: TCommit, Tx: 1, PrevLSN: lsn1})
	// Tx 2 (loser): two updates, no commit. Tx 3: prepared, undecided.
	// Tx 4: rolled back before the crash, its end record lost.
	lsn2, _ := l.Append(upd(2, 0, pA, 100, "XX"))
	lsn3, _ := l.Append(upd(3, 0, pB, 8, "P"))
	prep, _ := l.Append(&Record{Type: TPrepare, Tx: 3, PrevLSN: lsn3})
	last2, _ := l.Append(upd(2, lsn2, pB, 0, "LOSE"))
	lsn4, _ := l.Append(upd(4, 0, pB, 20, "a"))
	l.Append(&Record{Type: TAbort, Tx: 4, PrevLSN: lsn4})
	l.Flush(0)

	crashedLog, err := OpenMemFrom(l.DurableBytes())
	if err != nil {
		t.Fatal(err)
	}
	st, open, err := redoOn(crashedLog, disk)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(st.Winners, st.Losers, st.InDoubt) != "[1] [2] [3]" {
		t.Fatalf("winners %v losers %v in doubt %v", st.Winners, st.Losers, st.InDoubt)
	}
	want := []Unfinished{{Tx: 2, LastLSN: last2}, {Tx: 3, LastLSN: prep, Prepared: true}}
	if len(open) != 2 || open[0] != want[0] || open[1] != want[1] {
		t.Fatalf("unfinished = %+v, want %+v", open, want)
	}
	buf := make([]byte, page.Size)
	disk.ReadPage(pA, buf)
	if string(buf[0:3]) != "WIN" || buf[100] != 0 {
		t.Fatalf("pA after redo: %q %q", buf[0:3], buf[100:102])
	}
	disk.ReadPage(pB, buf)
	if !bytes.Equal(buf, make([]byte, page.Size)) {
		t.Fatalf("pB after redo: %q %q %q", buf[0:4], buf[8], buf[20])
	}
	if st.RedoApplied != 1 || crashedLog.NextLSN() != l.NextLSN() {
		t.Fatalf("redo applied %d, log grew by %d", st.RedoApplied, crashedLog.NextLSN()-l.NextLSN())
	}
}

func TestRedoReappliesLostCommittedWrites(t *testing.T) {
	// Committed but the page never made it to disk (no-force): redo must
	// reapply it.
	l := NewMem()
	disk := newMemPager()
	pid := page.ID{Area: 1, Page: 5}
	r := upd(7, 0, pid, 50, "HELLO")
	lsn, _ := l.Append(r)
	l.Append(&Record{Type: TCommit, Tx: 7, PrevLSN: lsn})
	l.Flush(0)
	// Page NOT applied to disk before crash.
	st, _, err := redoOn(l, disk)
	if err != nil {
		t.Fatal(err)
	}
	if st.RedoApplied == 0 {
		t.Fatal("nothing redone")
	}
	buf := make([]byte, page.Size)
	disk.ReadPage(pid, buf)
	if string(buf[50:55]) != "HELLO" {
		t.Fatalf("committed write lost: %q", buf[50:55])
	}
}

// TestRedoStartsEachPageAtItsRecLSN: with byte-range records, where a page's
// replay starts matters. Redo skips records of a page ahead of its recLSN —
// the checkpoint's entry, or the page's first record after the checkpoint —
// and counts a page whose first replayed record is not a whole-page image.
func TestRedoStartsEachPageAtItsRecLSN(t *testing.T) {
	l := NewMem()
	pP, pQ, pR := page.ID{Area: 1, Page: 1}, page.ID{Area: 1, Page: 2}, page.ID{Area: 1, Page: 3}
	whole := func(b byte) string { return string(bytes.Repeat([]byte{b}, page.Size)) }

	// Tx 1 anchors Q and commits. Tx 2 anchors P and stays active. Tx 3 then
	// cuts a delta out of Q — after P's anchor, i.e. past the redo start the
	// checkpoint implies, but Q is not in its dirty-page table.
	q0, _ := l.Append(upd(1, 0, pQ, 0, whole('q')))
	l.Append(&Record{Type: TCommit, Tx: 1, PrevLSN: q0})
	l.Append(&Record{Type: TEnd, Tx: 1})
	pAnchor, _ := l.Append(upd(2, 0, pP, 0, whole('p')))
	q1, _ := l.Append(upd(3, 0, pQ, 10, "ZZ"))
	l.Append(&Record{Type: TCommit, Tx: 3, PrevLSN: q1})
	l.Append(&Record{Type: TEnd, Tx: 3})
	if _, err := Checkpoint(l, []CkptPage{{Page: pP, RecLSN: pAnchor}}); err != nil {
		t.Fatal(err)
	}
	// After the checkpoint: a delta of P (anchored by its recLSN), and R's
	// first record ever, a delta — the layout the logging rule never writes.
	p1, _ := l.Append(upd(2, pAnchor, pP, 5, "abc"))
	l.Append(&Record{Type: TCommit, Tx: 2, PrevLSN: p1})
	r0, _ := l.Append(upd(4, 0, pR, 0, "r"))
	l.Append(&Record{Type: TCommit, Tx: 4, PrevLSN: r0})
	l.Flush(0)

	// The disk lost everything but Q, which the checkpoint vouches for.
	disk := newMemPager()
	wantQ := []byte(whole('q'))
	copy(wantQ[10:], "ZZ")
	disk.put(pQ, wantQ)
	disk.pages[pQ][0] = '!' // would be "repaired" by a replay the checkpoint does not ask for

	st, _, err := redoOn(l, disk)
	if err != nil {
		t.Fatal(err)
	}
	if st.RedoStartLSN != pAnchor {
		t.Fatalf("redo start = %d, want P's anchor %d", st.RedoStartLSN, pAnchor)
	}
	if disk.byteAt(pQ, 0) != '!' || disk.byteAt(pQ, 10) != 'Z' {
		t.Fatal("redo replayed a page the checkpoint lists as clean")
	}
	wantP := []byte(whole('p'))
	copy(wantP[5:], "abc")
	if !bytes.Equal(disk.pages[pP], wantP) {
		t.Fatal("P not rebuilt from its anchor")
	}
	if st.RedoApplied != 3 || st.UnanchoredPages != 1 {
		t.Fatalf("redo applied %d records, %d unanchored pages; want 3 and 1 (R)", st.RedoApplied, st.UnanchoredPages)
	}
}

// TestAnalyzePreparedAcrossCheckpoints: a transaction's status is its own last
// record, wherever the last checkpoint falls. The log is one the builds before
// this one wrote — the checkpoint lists the branch and the loser as active,
// which those builds took for two losers — and a second, current checkpoint
// follows: the branch prepared before both is in doubt with its last LSN, the
// loser is a loser, and the transaction committed before both, its end record
// lost, is a winner.
func TestAnalyzePreparedAcrossCheckpoints(t *testing.T) {
	l := NewMem()
	pA, pB := page.ID{Area: 1, Page: 1}, page.ID{Area: 1, Page: 2}
	w, _ := l.Append(upd(1, 0, pA, 0, "W"))
	l.Append(&Record{Type: TCommit, Tx: 1, PrevLSN: w})
	b, _ := l.Append(upd(2, 0, pB, 0, "B"))
	prep, _ := l.Append(&Record{Type: TPrepare, Tx: 2, PrevLSN: b})
	u, _ := l.Append(upd(3, 0, pA, 8, "L"))
	l.Flush(0)
	body := listingCheckpoint([][2]uint64{{2, uint64(prep)}, {3, uint64(u)}}, []CkptPage{{Page: pA, RecLSN: w}, {Page: pB, RecLSN: b}})
	img := binary.BigEndian.AppendUint32(l.DurableBytes(), uint32(len(body)))
	img = append(binary.BigEndian.AppendUint32(img, page.Checksum(body)), body...)
	old, err := OpenMemFrom(img)
	if err != nil {
		t.Fatal(err)
	}
	last, _ := old.Append(upd(3, u, pA, 9, "M"))
	ckpt, _ := Checkpoint(old, []CkptPage{{Page: pA, RecLSN: w}, {Page: pB, RecLSN: b}})

	disk := newMemPager()
	st, open, err := redoOn(old, disk)
	if err != nil {
		t.Fatal(err)
	}
	want := []Unfinished{{Tx: 3, LastLSN: last}, {Tx: 2, LastLSN: prep, Prepared: true}}
	if fmt.Sprint(st.Winners, st.Losers, st.InDoubt) != "[1] [3] [2]" || !reflect.DeepEqual(open, want) {
		t.Fatalf("winners %v losers %v in doubt %v, open %+v; want open %+v", st.Winners, st.Losers, st.InDoubt, open, want)
	}
	if st.CheckpointLSN != ckpt || st.RedoStartLSN != w || st.RecordsAnalyzed != 8 || st.RedoApplied != 1 {
		t.Fatalf("%+v", st)
	}
	if disk.byteAt(pA, 0) != 'W' || disk.byteAt(pA, 8) != 0 || disk.byteAt(pA, 9) != 0 || disk.byteAt(pB, 0) != 0 {
		t.Fatal("redo did not repeat the winner's history, and only that, from the checkpoint's recLSNs")
	}
}

// TestAnalyzeVisitsEveryRecord: the visitor sees each record once, in log
// order, from the first — catalog records included — and its error ends the
// pass.
func TestAnalyzeVisitsEveryRecord(t *testing.T) {
	l := NewMem()
	var want []page.LSN
	for _, r := range []*Record{{Type: TCatalog, Body: catalogBody(t)}, upd(1, 0, page.ID{Area: 1, Page: 1}, 0, "x"),
		{Type: TCheckpoint}, {Type: TCommit, Tx: 1}, {Type: TCatalog, Body: catalogBody(t)}} {
		lsn, _ := l.Append(r)
		want = append(want, lsn)
	}
	l.Flush(0)
	var got []page.LSN
	if _, err := Analyze(l, func(lsn page.LSN, _ *Record) error { got = append(got, lsn); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("visited %v, want %v", got, want)
	}
	stop := errors.New("stop")
	n := 0
	if _, err := Analyze(l, func(page.LSN, *Record) error { n++; return stop }); err != stop || n != 1 {
		t.Fatalf("a failing visitor: %v after %d records", err, n)
	}
}

// TestRedoPassesOverCatalogRecords: catalog records belong to the server,
// not to a transaction or a page. Interleaved with a winner and a loser they
// change nothing about what restart rebuilds, come back from the log byte for
// byte, and verify like any other record.
func TestRedoPassesOverCatalogRecords(t *testing.T) {
	l := NewMem()
	disk := newMemPager()
	pA := page.ID{Area: 1, Page: 1}
	body := catalogBody(t)
	cat := func() page.LSN {
		lsn, err := l.Append(&Record{Type: TCatalog, Body: body})
		if err != nil {
			t.Fatal(err)
		}
		return lsn
	}

	first := cat()
	r1 := upd(1, 0, pA, 0, "WIN")
	lsn1, _ := l.Append(r1)
	cat()
	l.Append(&Record{Type: TCommit, Tx: 1, PrevLSN: lsn1})
	r2 := upd(2, 0, pA, 100, "XX")
	l.Append(r2)
	last := cat()
	if err := l.Flush(0); err != nil {
		t.Fatal(err)
	}

	st, _, err := redoOn(l, disk)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Winners) != 1 || len(st.Losers) != 1 || st.RecordsAnalyzed != 6 {
		t.Fatalf("winners %v losers %v over %d records", st.Winners, st.Losers, st.RecordsAnalyzed)
	}
	if disk.byteAt(pA, 0) != 'W' || disk.byteAt(pA, 100) != 0 {
		t.Fatal("catalog records in the log changed what restart rebuilt")
	}
	for _, lsn := range []page.LSN{first, last} {
		rec, err := l.ReadRecord(lsn)
		if err != nil || rec.Type != TCatalog || !bytes.Equal(rec.Body, body) || rec.Tx != 0 {
			t.Fatalf("catalog record at %d came back as %+v (%v)", lsn, rec, err)
		}
	}
	if _, err := l.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := TCatalog.String(); got != "catalog" {
		t.Fatalf("TCatalog prints as %q", got)
	}
}
