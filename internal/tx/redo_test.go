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

// watchPager is a memPager that runs before (if set) ahead of each store, on
// each of its proofs.
type watchPager struct {
	*memPager
	before func(proof wal.Logged)
}

func (p *watchPager) WriteRun(proofs []wal.Logged, data []byte) error {
	if p.before != nil {
		for _, proof := range proofs {
			p.before(proof)
		}
	}
	return p.memPager.WriteRun(proofs, data)
}

// TestLogRedoWritesAfterTheForce: a shipped change is queued, not logged;
// the commit record carries it, with no undo half; nothing reaches the page
// store before the commit, and the store the commit makes comes after its
// record is durable.
func TestLogRedoWritesAfterTheForce(t *testing.T) {
	m, mp, l, _ := newEnv()
	pg := &watchPager{memPager: mp}
	m.pager = pg
	pid := page.ID{Area: 1, Page: 5}
	tr := m.Begin()
	from := l.NextLSN()
	ship(t, tr, mp, pid, 100, []byte("shipped"))
	if len(mp.pages) != 0 || l.NextLSN() != from {
		t.Fatal("a shipped change reached the page store or the log before its commit")
	}
	var flushedAtWrite page.LSN
	pg.before = func(wal.Logged) { flushedAtWrite = durableLSN(l) }
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
	rec := readRec(t, l, from)
	if rec.Type != wal.TCommit || len(rec.Changes) != 1 || !rec.Changes[0].WholePage() || rec.Before != nil || rec.Footprint().Before != 0 {
		t.Fatalf("commit of a page's first shipped change: %v of %d changes, %d undo bytes", rec.Type, len(rec.Changes), len(rec.Before))
	}
	if got := mp.get(pid, 100, 7); string(got) != "shipped" {
		t.Fatalf("commit left %q on the page", got)
	}
	if commit := tr.LastLSN(); commit != from || flushedAtWrite <= commit {
		t.Fatalf("page written with the log durable to %d, commit record at %d", flushedAtWrite, commit)
	}
}

// TestRolledBackRedoWritesNoCLR: rolling back a change only queued logs
// nothing; rolling back one that reached the log — a prepared branch's — logs
// an abort record and nothing else, which carries no undo image and no
// compensation but the page as it was before the branch, whole: the page's
// new anchor. Neither stores anything, and the page's next writer logs a
// range on top of that anchor, which restart replays from.
func TestRolledBackRedoWritesNoCLR(t *testing.T) {
	m, mp, l, _ := newEnv()
	pid := page.ID{Area: 1, Page: 6}
	mp.set(pid, 0, []byte("old"))
	stored := mp.clone()
	tr := m.Begin()
	ship(t, tr, mp, pid, 0, []byte("never"))
	if err := tr.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(txRecords(l, tr.ID())); got != "[]" {
		t.Fatalf("rollback of a queued change: records %s", got)
	}

	b := m.Begin()
	ship(t, b, mp, pid, 0, []byte("never"))
	if err := b.Prepare(); err != nil {
		t.Fatal(err)
	}
	if err := b.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(txRecords(l, b.ID())); got != "[prepare abort]" {
		t.Fatalf("rollback of a prepared change: records %s", got)
	}
	abort := readRec(t, l, b.LastLSN())
	if len(abort.Changes) != 1 || !abort.Changes[0].WholePage() || !bytes.Equal(abort.Changes[0].After, stored.get(pid, 0, page.Size)) {
		t.Fatalf("the abort record carries %d changes, want the page as stored, whole", len(abort.Changes))
	}
	if !bytes.Equal(mp.get(pid, 0, page.Size), stored.get(pid, 0, page.Size)) {
		t.Fatal("a rollback stored a page")
	}

	next := m.Begin()
	ship(t, next, mp, pid, 40, []byte("again"))
	if err := next.Commit(); err != nil {
		t.Fatal(err)
	}
	if c := readRec(t, l, next.LastLSN()).Changes[0]; c.WholePage() || c.Off != 40 || len(c.After) != 5 {
		t.Fatalf("the next writer of a re-anchored page logged %d bytes at %d, want a range", len(c.After), c.Off)
	}
	mp.pages[pid] = bytes.Repeat([]byte{0xEE}, page.Size) // a torn write
	if _, st := restartOn(t, crash(t, l), mp); st.UnanchoredPages != 0 || string(mp.get(pid, 0, 45)[:3]) != "old" || string(mp.get(pid, 40, 5)) != "again" {
		t.Fatalf("restart over a torn page: %d unanchored, page %q", st.UnanchoredPages, mp.get(pid, 0, 45))
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
// the commit writes them as the replay of the branch's records leaves them;
// an abort writes nothing.
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

// TestDecidedBranchReplaysItsOwnRecords: a branch prepares a change of a page
// it anchors and one of a page an earlier commit anchored, which it logs as
// runs; k other transactions then commit changes of other pages, and the
// branch is decided commit — live, and after a restart that adopts it. The
// decision writes the branch's two pages, each holding exactly what the
// branch left on what the store held, and no other page: the replay keeps
// the branch's records and no one else's.
func TestDecidedBranchReplaysItsOwnRecords(t *testing.T) {
	const k = 8
	anchored, ranged := page.ID{Area: 1, Page: 20}, page.ID{Area: 1, Page: 21}
	for _, restarted := range []bool{false, true} {
		m, mp, l, _ := newEnv()
		t0 := m.Begin()
		ship(t, t0, mp, ranged, 0, bytes.Repeat([]byte{'o'}, 64))
		if err := t0.Commit(); err != nil {
			t.Fatal(err)
		}
		b := m.Begin()
		ship(t, b, mp, anchored, 100, []byte("anchored"))
		ship(t, b, mp, ranged, 3000, []byte("runs"))
		if err := b.Prepare(); err != nil {
			t.Fatal(err)
		}
		prep := readRec(t, l, b.LastLSN())
		if len(prep.Changes) != 2 || !prep.Changes[0].WholePage() || prep.Changes[1].WholePage() {
			t.Fatalf("prepare carries %d changes, want an anchor of %v and a range of %v", len(prep.Changes), anchored, ranged)
		}
		for i := 0; i < k; i++ {
			o := m.Begin()
			ship(t, o, mp, page.ID{Area: 1, Page: page.No(30 + i)}, 8*i, []byte(fmt.Sprintf("other %d", i)))
			if err := o.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		want := map[page.ID][]byte{anchored: make([]byte, page.Size), ranged: mp.get(ranged, 0, page.Size)}
		copy(want[anchored][100:], "anchored")
		copy(want[ranged][3000:], "runs")

		wp := &watchPager{memPager: mp}
		if restarted {
			crashed := crash(t, l)
			mp.log = crashed
			var err error
			if m, _, err = restart(crashed, wp); err != nil {
				t.Fatal(err)
			}
			if b = m.Lookup(b.ID()); b == nil || b.State() != Prepared {
				t.Fatal("the branch is not in doubt after restart")
			}
		} else {
			m.pager = wp
		}
		wrote := make(map[page.ID]int)
		wp.before = func(proof wal.Logged) { wrote[proof.Page()]++ }
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
		if len(wrote) != 2 || wrote[anchored] != 1 || wrote[ranged] != 1 {
			t.Fatalf("restarted %v: the decision wrote %v, want %v and %v once each", restarted, wrote, anchored, ranged)
		}
		for pid, w := range want {
			if got := mp.get(pid, 0, page.Size); !bytes.Equal(got, w) {
				t.Fatalf("restarted %v: page %v holds %q…, want %q…", restarted, pid, got[:8], w[:8])
			}
		}
	}
}

// BenchmarkDecide times a prepared branch's commit decision, the branch
// prepared before n other transactions commit. Two commits go first, so that
// each log buffer the decision's record can go to is allocated already.
func BenchmarkDecide(b *testing.B) {
	commit := func(m *Manager, mp *memPager, j int) {
		o := m.Begin()
		if shipAt(o, mp, page.ID{Area: 1, Page: page.No(3 + j%64)}, 8*(j%500), []byte("other")) != nil || o.Commit() != nil {
			b.Fatal("a commit failed")
		}
	}
	for _, n := range []int{0, 1000} {
		b.Run(fmt.Sprintf("commits=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m, mp, _, _ := newEnv()
				commit(m, mp, 0)
				commit(m, mp, 1)
				br := m.Begin()
				if shipAt(br, mp, page.ID{Area: 1, Page: 1}, 100, []byte("branch")) != nil ||
					shipAt(br, mp, page.ID{Area: 1, Page: 2}, 200, []byte("branch")) != nil || br.Prepare() != nil {
					b.Fatal("preparing the branch failed")
				}
				for j := 0; j < n; j++ {
					commit(m, mp, j)
				}
				b.StartTimer()
				if err := br.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestFailedForceRollsBackTheShippedCommit: a commit whose force fails did
// not happen. Its commit record reaches the log with the next force all the
// same, and its rollback's abort record after it, carrying one anchor per page
// the commit named: the page as it was before the commit. So neither the run
// nor a restart ever writes its pages: a later
// commit that changes another range of one of them logs that range alone, and
// a restart rebuilding the page over garbage replays it on the abort's
// anchor, not on the failed commit's bytes. A prepared branch's is not rolled
// back: it stays in doubt for the decision to come again.
func TestFailedForceRollsBackTheShippedCommit(t *testing.T) {
	inj := fault.NewInjector(1)
	l, err := wal.Open(fault.NewStore(inj).WAL())
	if err != nil {
		t.Fatal(err)
	}
	mp := newMemPager()
	mp.log = l
	m := NewManager(l, lock.NewManager(), mp, nil)
	pid, fresh := page.ID{Area: 1, Page: 10}, page.ID{Area: 1, Page: 11}
	first := m.Begin()
	ship(t, first, mp, pid, 0, bytes.Repeat([]byte{'o'}, 128))
	if err := first.Commit(); err != nil {
		t.Fatal(err)
	}
	stored := mp.clone()

	tr := m.Begin()
	ship(t, tr, mp, pid, 0, bytes.Repeat([]byte{'X'}, 64))
	ship(t, tr, mp, fresh, 0, []byte("lost"))
	inj.FailAt(inj.Events()+2, nil) // the force's sync, after its write
	if err := tr.Commit(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("commit over a failing force: %v", err)
	}
	if m.Lookup(tr.ID()) != nil || len(mp.pages) != 1 || !bytes.Equal(mp.get(pid, 0, page.Size), stored.get(pid, 0, page.Size)) {
		t.Fatal("the failed commit is still in the table, or wrote its page")
	}
	if got := fmt.Sprint(txRecords(l, tr.ID())); got != "[commit abort]" {
		t.Fatalf("the transaction's records: %s", got)
	}
	abort := readRec(t, l, tr.LastLSN())
	if len(abort.Changes) != 2 {
		t.Fatalf("the abort record carries %d changes, want an anchor of each of 2 pages", len(abort.Changes))
	}
	for _, c := range abort.Changes {
		if !c.WholePage() || !bytes.Equal(c.After, stored.get(c.Page, 0, page.Size)) {
			t.Fatalf("the abort's change of %v is not the page as stored, whole", c.Page)
		}
	}

	// The next commit changes only [100, 110) of the page.
	next := m.Begin()
	ship(t, next, mp, pid, 100, []byte("0123456789"))
	if err := next.Commit(); err != nil {
		t.Fatal(err)
	}
	if c := readRec(t, l, next.LastLSN()).Changes[0]; c.WholePage() || c.Off != 100 || len(c.After) != 10 {
		t.Fatalf("the next commit logged %d bytes at %d, want the range [100, 110)", len(c.After), c.Off)
	}
	want := mp.get(pid, 0, page.Size)
	disk := mp.clone()
	disk.pages[pid] = bytes.Repeat([]byte{0xEE}, page.Size) // a torn write
	if _, st := restartOn(t, crash(t, l), disk); st.UnanchoredPages != 0 || !bytes.Equal(disk.get(pid, 0, page.Size), want) {
		t.Fatalf("restart over a torn page: %d unanchored, [0, 64) holds %q", st.UnanchoredPages, disk.get(pid, 0, 64))
	}
	if got := disk.get(fresh, 0, 4); !bytes.Equal(got, make([]byte, 4)) {
		t.Fatalf("restart wrote the rolled-back commit's page: %q", got)
	}
	mp.log = l

	// A prepared branch is the coordinator's: a commit decision whose force
	// fails leaves it in doubt, and the decision delivered again writes it.
	b := m.Begin()
	ship(t, b, mp, fresh, 0, []byte("decided"))
	if err := b.Prepare(); err != nil {
		t.Fatal(err)
	}
	inj.FailAt(inj.Events()+2, nil)
	if err := b.Commit(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("commit decision over a failing force: %v", err)
	}
	if m.Lookup(b.ID()) != b || b.State() != Prepared || mp.get(fresh, 0, 1)[0] != 0 {
		t.Fatalf("after a failed commit decision: in the table %v, state %v", m.Lookup(b.ID()) == b, b.State())
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := mp.get(fresh, 0, 7); string(got) != "decided" {
		t.Fatalf("the redelivered decision left %q", got)
	}
}

// TestLargeTransactionSpills: a transaction whose queued changes pass a log
// buffer logs them ahead of its commit, in one multi-page TRedo, and its
// commit record carries the rest — of pages written whole, and of anchored
// pages whose every other 8-byte word changes: 256 runs a page, each with a
// header the spill's bound must count. No record passes a buffer. Nothing is
// written before the commit: a crash before it leaves every page as it was,
// and a crash after it — every page write lost — restarts to every page.
func TestLargeTransactionSpills(t *testing.T) {
	fill := func(i int) []byte { return bytes.Repeat([]byte{byte(i%250 + 1)}, page.Size) }
	striped := func(i int) []byte {
		p := fill(i)
		for w := 0; w < page.Size; w += 16 {
			for j := w; j < w+8; j++ {
				p[j] = ^p[j]
			}
		}
		return p
	}
	pid := func(i int) page.ID { return page.ID{Area: 1, Page: page.No(i)} }
	for _, tc := range []struct {
		name          string
		n             int
		before, after func(i int) []byte
		runs          int // the runs of a page's change
	}{
		{"whole pages", wal.BufSize/page.Size + 16, func(int) []byte { return make([]byte, page.Size) }, fill, 1},
		{"every other word", wal.BufSize/(page.Size/2) + 16, fill, striped, page.Size / 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, mp, l, _ := newEnv()
			if tc.runs > 1 {
				setup := m.Begin() // anchors the pages: their next changes are runs
				for i := 0; i < tc.n; i++ {
					if err := setup.LogRedo(pid(i), make([]byte, page.Size), tc.before(i)); err != nil {
						t.Fatal(err)
					}
				}
				if err := setup.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			// wrote is whether every page holds what img gives it.
			wrote := func(p *memPager, img func(int) []byte) bool {
				for i := 0; i < tc.n; i++ {
					if !bytes.Equal(p.get(pid(i), 0, page.Size), img(i)) {
						return false
					}
				}
				return true
			}
			tr := m.Begin()
			for i := 0; i < tc.n; i++ {
				if err := tr.LogRedo(pid(i), tc.before(i), tc.after(i)); err != nil {
					t.Fatal(err)
				}
			}
			if got := fmt.Sprint(txRecords(l, tr.ID())); got != "[]" {
				t.Fatalf("before the commit, durable records %s: the spill is not forced", got)
			}
			if err := l.Flush(0); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(txRecords(l, tr.ID())); got != "[redo]" {
				t.Fatalf("before the commit: records %s, want one spill", got)
			}
			spill := readRec(t, l, tr.LastLSN())
			if k := spill.Pages(); k < tc.n/2 || k >= tc.n || len(spill.Changes) != k*tc.runs {
				t.Fatalf("the spill carries %d of %d pages in %d runs", k, tc.n, len(spill.Changes))
			}
			if !wrote(mp, tc.before) {
				t.Fatal("a spill wrote a page")
			}
			// A checkpoint now lists the pages the spill logged.
			lsn, err := m.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if got := len(readRec(t, l, lsn).DirtyPages); got != spill.Pages() {
				t.Fatalf("the checkpoint lists %d pages, the spill logged %d", got, spill.Pages())
			}

			before := mp.clone() // the pages as the set-up left them
			if _, st := restartOn(t, crash(t, l), before); len(st.Losers) != 1 || !wrote(before, tc.before) {
				t.Fatalf("a crash before the commit: losers %v, or a page not as it was", st.Losers)
			}

			if err := tr.Commit(); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(txRecords(l, tr.ID())); got != "[redo commit]" {
				t.Fatalf("the transaction's records: %s", got)
			}
			if c := readRec(t, l, tr.LastLSN()); c.Pages()+spill.Pages() != tc.n {
				t.Fatalf("spill and commit carry %d + %d of %d pages", spill.Pages(), c.Pages(), tc.n)
			}
			l.Iterate(0, func(lsn page.LSN, r *wal.Record) error {
				if fp := r.Footprint(); fp.Header+fp.After > wal.BufSize {
					t.Fatalf("the %v at %d takes %d bytes, past a log buffer", r.Type, lsn, fp.Header+fp.After)
				}
				return nil
			})
			after := newMemPager()
			if _, st := restartOn(t, crash(t, l), after); st.UnanchoredPages != 0 || len(after.pages) != tc.n {
				t.Fatalf("a crash after the commit: %d pages written of %d, %d unanchored", len(after.pages), tc.n, st.UnanchoredPages)
			}
			if !wrote(after, tc.after) || !wrote(mp, tc.after) {
				t.Fatal("a page after the commit differs from its image")
			}
		})
	}
}

// TestRollbackAnchorsComeFromTheLog: a rollback's anchor of a page is the page
// as the log's history of it leaves it without the rolled-back records, not
// what the disk holds: rot on a page under a prepared branch that aborts never
// becomes the page's history, and a restart over the rotted page rebuilds it
// from the abort's anchor.
func TestRollbackAnchorsComeFromTheLog(t *testing.T) {
	m, mp, l, _ := newEnv()
	pid := page.ID{Area: 1, Page: 12}
	first := m.Begin()
	ship(t, first, mp, pid, 0, []byte("committed"))
	if err := first.Commit(); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), mp.get(pid, 0, page.Size)...)

	b := m.Begin()
	ship(t, b, mp, pid, 100, []byte("branch"))
	if err := b.Prepare(); err != nil {
		t.Fatal(err)
	}
	mp.pages[pid][5] ^= 0x5A // rot under the branch's X lock
	if err := b.Abort(); err != nil {
		t.Fatal(err)
	}
	abort := readRec(t, l, b.LastLSN())
	if abort.Type != wal.TAbort || len(abort.Changes) != 1 || !bytes.Equal(abort.Changes[0].After, want) {
		t.Fatalf("the abort record's anchor is not the page as the log left it: %q…", abort.Changes[0].After[:12])
	}
	if _, st := restartOn(t, crash(t, l), mp); st.UnanchoredPages != 0 || !bytes.Equal(mp.get(pid, 0, page.Size), want) {
		t.Fatalf("restart over the rotted page: %d unanchored, page %q…", st.UnanchoredPages, mp.get(pid, 0, 12))
	}
}

// TestLargeRollbackSplitsItsAnchors: a rollback whose anchors would pass a log
// buffer logs them ahead of its abort record in rollback records, so that no
// record passes a buffer, and they take effect with the abort: at run time,
// for a loser at restart, and at a restart after a crash cut that rollback
// between its records — which leaves the transaction a loser to roll back
// again, not a half-anchored one.
func TestLargeRollbackSplitsItsAnchors(t *testing.T) {
	n := 2*wal.BufSize/page.Size + 16 // two spills' worth of pages
	pid := func(i int) page.ID { return page.ID{Area: 1, Page: page.No(i)} }
	img := func(i int, b byte) []byte {
		p := bytes.Repeat([]byte{b}, page.Size)
		p[0], p[1] = byte(i), byte(i>>8)
		return p
	}
	m, mp, l, _ := newEnv()
	setup := m.Begin()
	for i := 0; i < n; i++ {
		if err := setup.LogRedo(pid(i), make([]byte, page.Size), img(i, 'a')); err != nil {
			t.Fatal(err)
		}
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	// doomed rewrites every page, and spills all of them but the last few.
	doomed := func(m *Manager) uint64 {
		tr := m.Begin()
		for i := 0; i < n; i++ {
			if err := tr.LogRedo(pid(i), img(i, 'a'), img(i, 'z')); err != nil {
				t.Fatal(err)
			}
		}
		return tr.ID()
	}
	// check: tx's records are typs, none past a log buffer, and a restart
	// over pages a torn write left garbage rebuilds every page as set up.
	check := func(when string, l *wal.Log, tx uint64, typs string) {
		t.Helper()
		if err := l.Flush(0); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(txRecords(l, tx)); got != typs {
			t.Fatalf("%s: records %s, want %s", when, got, typs)
		}
		l.Iterate(0, func(lsn page.LSN, r *wal.Record) error {
			if fp := r.Footprint(); fp.Header+fp.After > wal.BufSize {
				t.Fatalf("%s: the %v at %d takes %d bytes, past a log buffer", when, r.Type, lsn, fp.Header+fp.After)
			}
			return nil
		})
		disk := newMemPager()
		for i := 0; i < n; i++ {
			disk.pages[pid(i)] = bytes.Repeat([]byte{0xEE}, page.Size)
		}
		if _, st := restartOn(t, crash(t, l), disk); st.UnanchoredPages != 0 || len(st.Losers) != 0 {
			t.Fatalf("%s: restart with %d unanchored pages, losers %v", when, st.UnanchoredPages, st.Losers)
		}
		for i := 0; i < n; i++ {
			if !bytes.Equal(disk.get(pid(i), 0, page.Size), img(i, 'a')) {
				t.Fatalf("%s: page %d after restart is not as set up", when, i)
			}
		}
	}

	// At run time.
	tr := m.Lookup(doomed(m))
	if err := tr.Abort(); err != nil {
		t.Fatal(err)
	}
	check("run time", l, tr.ID(), "[redo redo rollback abort]")
	if !bytes.Equal(mp.get(pid(0), 0, page.Size), img(0, 'a')) {
		t.Fatal("the rollback stored a page")
	}

	// A loser at restart.
	id := doomed(m)
	if err := l.Flush(0); err != nil {
		t.Fatal(err)
	}
	restarted, _ := restartOn(t, crash(t, l), mp.clone())
	check("restart", restarted.log, id, "[redo redo rollback abort]")

	// A crash between that rollback's records: its abort record lost.
	var abortAt page.LSN
	restarted.log.Iterate(0, func(lsn page.LSN, r *wal.Record) error {
		if r.Tx == id && r.Type == wal.TAbort {
			abortAt = lsn
		}
		return nil
	})
	cut, err := wal.OpenMemFrom(restarted.log.DurableBytes()[:abortAt])
	if err != nil {
		t.Fatal(err)
	}
	again, st := restartOn(t, cut, mp.clone())
	if fmt.Sprint(st.Losers) != fmt.Sprint([]uint64{id}) {
		t.Fatalf("a rollback cut short: losers %v, want [%d]", st.Losers, id)
	}
	check("restart after a cut rollback", again.log, id, "[redo redo rollback rollback abort]")
}
