package tx

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"bess/internal/fault"
	"bess/internal/lock"
	"bess/internal/page"
	"bess/internal/wal"
)

// watchPager is a memPager that runs before (if set) ahead of each store.
type watchPager struct {
	*memPager
	before func(proof wal.Logged)
}

func (p *watchPager) WritePage(proof wal.Logged, data []byte) error {
	if p.before != nil {
		p.before(proof)
	}
	return p.memPager.WritePage(proof, data)
}

// TestLogRedoWritesAfterTheForce: a shipped change is a record with no undo
// half, nothing reaches the page store before the commit, and the store the
// commit makes comes after its record is durable.
func TestLogRedoWritesAfterTheForce(t *testing.T) {
	m, mp, l, _ := newEnv()
	pg := &watchPager{memPager: mp}
	m.pager = pg
	pid := page.ID{Area: 1, Page: 5}
	tr := m.Begin()
	from := l.NextLSN()
	ship(t, tr, mp, pid, 100, []byte("shipped"))
	if len(mp.pages) != 0 {
		t.Fatal("a shipped change reached the page store before its commit")
	}
	rec := readRec(t, l, from)
	if rec.Type != wal.TRedo || !rec.WholePage() || rec.Before != nil || rec.Footprint().Before != 0 {
		t.Fatalf("first shipped change of a page: %v, whole page %v, %d undo bytes", rec.Type, rec.WholePage(), len(rec.Before))
	}
	var flushedAtWrite page.LSN
	pg.before = func(wal.Logged) { flushedAtWrite = l.FlushedLSN() }
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := mp.get(pid, 100, 7); string(got) != "shipped" {
		t.Fatalf("commit left %q on the page", got)
	}
	if commit := tr.LastLSN(); flushedAtWrite <= commit {
		t.Fatalf("page written with the log durable to %d, commit record at %d", flushedAtWrite, commit)
	}
}

// TestRolledBackRedoWritesNoCLR: rolling back a shipped change logs abort and
// end and nothing else, and stores nothing — the page was never written — and
// forgets the anchor the change set, so the page's next writer anchors it
// again.
func TestRolledBackRedoWritesNoCLR(t *testing.T) {
	m, mp, l, _ := newEnv()
	pid := page.ID{Area: 1, Page: 6}
	tr := m.Begin()
	ship(t, tr, mp, pid, 0, []byte("never"))
	if err := tr.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(txRecords(l, tr.ID())); got != "[redo abort end]" || len(mp.pages) != 0 {
		t.Fatalf("rollback of a shipped change: records %s, %d pages stored", got, len(mp.pages))
	}
	next := m.Begin()
	from := l.NextLSN()
	ship(t, next, mp, pid, 40, []byte("again"))
	if rec := readRec(t, l, from); !rec.WholePage() {
		t.Fatalf("the next writer of a rolled-back anchor's page logged %d bytes at %d, want an anchor", len(rec.After), rec.Off)
	}
	if err := next.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := mp.get(pid, 0, 45); !bytes.Equal(got[:5], make([]byte, 5)) || string(got[40:]) != "again" {
		t.Fatalf("page after the second commit: %q", got)
	}
}

// TestCheckpointBetweenForceAndWrites: a checkpoint taken after a commit's
// force and before its page writes lists the pages, so a crash right then —
// the checkpoint durable, the pages not — restarts to the committed image.
func TestCheckpointBetweenForceAndWrites(t *testing.T) {
	m, mp, l, _ := newEnv()
	pg := &watchPager{memPager: mp}
	m.pager = pg
	pid := page.ID{Area: 1, Page: 7}
	tr := m.Begin()
	ship(t, tr, mp, pid, 0, []byte("committed"))
	var ckpt *wal.Record
	var durable []byte
	var disk *memPager
	pg.before = func(wal.Logged) {
		pg.before = nil
		lsn, err := m.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		ckpt = readRec(t, l, lsn)
		durable, disk = l.DurableBytes(), mp.clone()
	}
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
	if ckpt == nil || len(ckpt.DirtyPages) != 1 || ckpt.DirtyPages[0].Page != pid {
		t.Fatalf("checkpoint between the force and the page writes lists %+v, want %v", ckpt, pid)
	}
	crashed, err := wal.OpenMemFrom(durable)
	if err != nil {
		t.Fatal(err)
	}
	_, st := restartOn(t, crashed, disk)
	if got := disk.get(pid, 0, 9); string(got) != "committed" || st.UnanchoredPages != 0 {
		t.Fatalf("restart from that checkpoint: page %q, %d unanchored", got, st.UnanchoredPages)
	}
}

// TestPreparedRedoWritesAtDecision: a prepared branch's shipped changes stay
// off its pages — through a restart too — until its coordinator commits, and
// the commit writes them from the branch's log chain; an abort writes nothing.
func TestPreparedRedoWritesAtDecision(t *testing.T) {
	pid, other := page.ID{Area: 1, Page: 8}, page.ID{Area: 1, Page: 9}
	for _, commit := range []bool{true, false} {
		for _, restarted := range []bool{false, true} {
			m, mp, l, _ := newEnv()
			b := m.Begin()
			ship(t, b, mp, pid, 0, []byte("branch"))
			ship(t, b, mp, pid, 0, []byte("branch+more")) // a range of the page the branch anchored
			ship(t, b, mp, other, 2000, []byte("elsewhere"))
			if err := b.Prepare(); err != nil {
				t.Fatal(err)
			}
			if len(mp.pages) != 0 {
				t.Fatal("prepare wrote a page")
			}
			if restarted {
				var err error
				if m, _, err = restart(crash(t, l), mp); err != nil {
					t.Fatal(err)
				}
				if len(mp.pages) != 0 {
					t.Fatal("restart wrote an in-doubt branch's page")
				}
				mp.log = m.log
				if b = m.Lookup(b.ID()); b == nil || b.State() != Prepared {
					t.Fatal("the branch is not in doubt after restart")
				}
			}
			end := b.Abort
			if commit {
				end = b.Commit
			}
			if err := end(); err != nil {
				t.Fatal(err)
			}
			got, elsewhere := mp.get(pid, 0, 11), mp.get(other, 2000, 9)
			switch {
			case commit && (string(got) != "branch+more" || string(elsewhere) != "elsewhere"):
				t.Fatalf("commit (restarted %v): pages hold %q and %q", restarted, got, elsewhere)
			case !commit && len(mp.pages) != 0:
				t.Fatalf("abort (restarted %v) wrote a page", restarted)
			}
		}
	}
}

// TestFailedForceRollsBackTheShippedCommit: a commit whose force fails did
// not happen. Its records reach the log with the next force all the same —
// commit record included — and its rollback's abort record after them, so
// neither the run nor a restart ever writes its pages. A prepared branch's
// is not rolled back: it stays in doubt for the decision to come again.
func TestFailedForceRollsBackTheShippedCommit(t *testing.T) {
	inj := fault.NewInjector(1)
	l, err := wal.Open(fault.NewStore(inj).WAL())
	if err != nil {
		t.Fatal(err)
	}
	mp := newMemPager()
	mp.log = l
	m := NewManager(l, lock.NewManager(), mp, nil)
	pid := page.ID{Area: 1, Page: 10}
	tr := m.Begin()
	ship(t, tr, mp, pid, 0, []byte("lost"))
	inj.FailAt(inj.Events()+2, nil) // the force's sync, after its write
	if err := tr.Commit(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("commit over a failing force: %v", err)
	}
	if m.Lookup(tr.ID()) != nil || len(mp.pages) != 0 {
		t.Fatal("the failed commit is still in the table, or wrote its page")
	}
	var types []wal.Type
	l.Iterate(0, func(_ page.LSN, r *wal.Record) error {
		if r.Tx == tr.ID() {
			types = append(types, r.Type)
		}
		return nil
	})
	if len(types) != 4 || types[1] != wal.TCommit || types[2] != wal.TAbort {
		t.Fatalf("the transaction's records: %v", types)
	}
	if _, _, err := restart(crash(t, l), mp); err != nil {
		t.Fatal(err)
	}
	if len(mp.pages) != 0 {
		t.Fatal("restart wrote the pages of a commit that was rolled back")
	}

	// A prepared branch is the coordinator's: a commit decision whose force
	// fails leaves it in doubt, and the decision delivered again writes it.
	b := m.Begin()
	ship(t, b, mp, pid, 0, []byte("decided"))
	if err := b.Prepare(); err != nil {
		t.Fatal(err)
	}
	inj.FailAt(inj.Events()+2, nil)
	if err := b.Commit(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("commit decision over a failing force: %v", err)
	}
	if m.Lookup(b.ID()) != b || b.State() != Prepared || len(mp.pages) != 0 {
		t.Fatalf("after a failed commit decision: in the table %v, state %v, %d pages written", m.Lookup(b.ID()) == b, b.State(), len(mp.pages))
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := mp.get(pid, 0, 7); string(got) != "decided" {
		t.Fatalf("the redelivered decision left %q", got)
	}
}
