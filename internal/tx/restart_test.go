package tx

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"bess/internal/hooks"
	"bess/internal/lock"
	"bess/internal/page"
	"bess/internal/wal"
)

// The tests that build a log by hand write records Tx.LogRedo never would
// (no anchors): restart must make sense of any log the format allows.

// upd is a shipped change of tx logged ahead of its commit: a spill of pid's
// bytes at off.
func upd(tx uint64, prev page.LSN, pid page.ID, off uint32, after string) *wal.Record {
	return &wal.Record{Type: wal.TRedo, Tx: tx, PrevLSN: prev, Changes: []wal.Change{{Page: pid, Off: off, After: []byte(after)}}}
}

// written is r's page write, which its transaction's commit makes.
func written(p *memPager, r *wal.Record) {
	for _, c := range r.Changes {
		p.set(c.Page, int(c.Off), c.After)
	}
}

// restart is Restart over l's analysis.
func restart(l *wal.Log, p wal.Pager) (*Manager, *wal.RecoveryStats, error) {
	an, err := wal.Analyze(l, nil)
	if err != nil {
		return nil, nil, err
	}
	return Restart(an, lock.NewManager(), p, nil)
}

// restartOn is restart over l and p, p checking proofs against l.
func restartOn(t *testing.T, l *wal.Log, p *memPager) (*Manager, *wal.RecoveryStats) {
	t.Helper()
	p.log = l
	m, st, err := restart(l, p)
	if err != nil {
		t.Fatal(err)
	}
	return m, st
}

func crash(t *testing.T, l *wal.Log) *wal.Log {
	t.Helper()
	crashed, err := wal.OpenMemFrom(l.DurableBytes())
	if err != nil {
		t.Fatal(err)
	}
	return crashed
}

// TestRestartWinnerLoserInDoubt: a winner whose page was lost, a loser, and a
// prepared branch, with catalog records (the server's, no transaction's) in
// between. Restart redoes the winner, ends the loser with an abort record and
// writes nothing for it, and keeps the branch in the table for either
// decision, its page unwritten until then.
func TestRestartWinnerLoserInDoubt(t *testing.T) {
	pA, pB, pC := page.ID{Area: 1, Page: 1}, page.ID{Area: 1, Page: 2}, page.ID{Area: 1, Page: 3}
	build := func() (*wal.Log, *memPager) {
		l := wal.NewMem()
		cat := &wal.Record{Type: wal.TCatalog, Body: []byte("not restart's business")}
		l.Append(cat)
		lsn1, _ := l.Append(upd(1, 0, pA, 0, "WIN"))
		l.Append(&wal.Record{Type: wal.TCommit, Tx: 1, PrevLSN: lsn1})
		// The loser: three changes.
		lsnU1, _ := l.Append(upd(2, 0, pA, 100, "XX"))
		lsnU2, _ := l.Append(upd(2, lsnU1, pB, 0, "LOSE"))
		l.Append(cat)
		l.Append(upd(2, lsnU2, pB, 50, "!"))
		// The branch: one change, prepared.
		lsnB1, _ := l.Append(upd(3, 0, pC, 7, "2P"))
		l.Append(&wal.Record{Type: wal.TPrepare, Tx: 3, PrevLSN: lsnB1})
		l.Flush(0)
		return crash(t, l), newMemPager()
	}
	check := func(t *testing.T, disk *memPager, branch string) {
		t.Helper()
		wantA, wantB, wantC := make([]byte, page.Size), make([]byte, page.Size), make([]byte, page.Size)
		copy(wantA, "WIN")
		copy(wantC[7:], branch)
		for pid, want := range map[page.ID][]byte{pA: wantA, pB: wantB, pC: wantC} {
			if got := disk.get(pid, 0, page.Size); !bytes.Equal(got, want) {
				t.Fatalf("page %v after restart: %q…, want %q…", pid, got[:10], want[:10])
			}
		}
	}

	l, disk := build()
	m, st := restartOn(t, l, disk)
	if fmt.Sprint(st.Winners, st.Losers, st.InDoubt) != "[1] [2] [3]" {
		t.Fatalf("winners %v losers %v in doubt %v", st.Winners, st.Losers, st.InDoubt)
	}
	check(t, disk, "\x00\x00")
	branch := m.Lookup(3)
	if live(m) != 1 || branch == nil || branch.State() != Prepared || m.Lookup(2) != nil {
		t.Fatalf("table after restart: %d live, branch %v", live(m), branch)
	}
	if tr := m.Begin(); tr.ID() <= 3 {
		t.Fatalf("a new transaction got id %d, below an adopted one", tr.ID())
	} else if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := branch.Commit(); err != nil {
		t.Fatal(err)
	}
	check(t, disk, "2P")
	if live(m) != 0 {
		t.Fatal("decided branch still in the table")
	}
	// A second restart, over the log the first one extended, finds nothing to
	// do and changes nothing.
	_, st2 := restartOn(t, crash(t, l), disk)
	if len(st2.Losers)+len(st2.InDoubt) != 0 {
		t.Fatalf("second restart: %+v", st2)
	}
	check(t, disk, "2P")

	// The other decision: the branch is rolled back like any transaction.
	l, disk = build()
	m, _ = restartOn(t, l, disk)
	if err := m.Lookup(3).Abort(); err != nil {
		t.Fatal(err)
	}
	check(t, disk, "\x00\x00")
	if _, st2 := restartOn(t, crash(t, l), disk); len(st2.Losers)+len(st2.InDoubt) != 0 {
		t.Fatalf("restart after the abort decision: %+v", st2)
	}
}

// TestRestartIdempotent: crashing after recovery and recovering again must
// converge — the abort record the first restart wrote ends the loser.
func TestRestartIdempotent(t *testing.T) {
	l := wal.NewMem()
	disk := newMemPager()
	pid := page.ID{Area: 1, Page: 9}
	disk.set(pid, 10, []byte("ORIG"))
	l.Append(upd(3, 0, pid, 10, "NEWX"))
	l.Flush(0)

	if _, st := restartOn(t, l, disk); len(st.Losers) != 1 {
		t.Fatalf("first restart: losers %v", st.Losers)
	}
	snapshot := disk.clone()
	_, st2 := restartOn(t, l, disk)
	if len(st2.Losers) != 0 {
		t.Fatalf("second restart found losers again: %+v", st2)
	}
	if !bytes.Equal(snapshot.get(pid, 0, page.Size), disk.get(pid, 0, page.Size)) {
		t.Fatal("second restart changed the database")
	}
	if got := disk.get(pid, 10, 4); string(got) != "ORIG" {
		t.Fatalf("loser reached the page: %q", got)
	}
}

// TestRestartWithCheckpoint: a loser that straddles the checkpoint — its page
// in the checkpoint's table — reaches its page on neither side of it.
func TestRestartWithCheckpoint(t *testing.T) {
	l := wal.NewMem()
	disk := newMemPager()
	pid := page.ID{Area: 1, Page: 1}

	r0 := upd(1, 0, pid, 0, "A")
	lsn0, _ := l.Append(r0)
	l.Append(&wal.Record{Type: wal.TCommit, Tx: 1, PrevLSN: lsn0})
	written(disk, r0)

	lsn1, _ := l.Append(upd(2, 0, pid, 10, "B"))
	if _, err := wal.Checkpoint(l, []wal.CkptPage{{Page: pid, RecLSN: lsn1}}); err != nil {
		t.Fatal(err)
	}
	l.Append(upd(2, lsn1, pid, 20, "C"))
	l.Flush(0)

	_, st := restartOn(t, l, disk)
	if st.CheckpointLSN == 0 {
		t.Fatal("checkpoint not found")
	}
	if got := disk.get(pid, 0, 21); got[0] != 'A' || got[10] != 0 || got[20] != 0 {
		t.Fatalf("page after restart: %q %q %q", got[0], got[10], got[20])
	}
	if len(st.Losers) != 1 || st.Losers[0] != 2 {
		t.Fatalf("losers = %v", st.Losers)
	}
}

// TestRestartKeepsABranchPreparedBeforeACheckpoint: a branch that voted yes
// before a checkpoint comes back from the crash in doubt — not a loser — with
// its change off the page, and so again from a second restart; its
// coordinator's decision then writes it.
func TestRestartKeepsABranchPreparedBeforeACheckpoint(t *testing.T) {
	m, pg, l, _ := newEnv()
	pid := page.ID{Area: 1, Page: 5}
	b := m.Begin()
	ship(t, b, pg, pid, 0, []byte("VOTED"))
	if err := b.Prepare(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	l2 := crash(t, l)
	var branch *Tx
	for i := 1; i <= 2; i++ {
		m2, st := restartOn(t, l2, pg)
		if got := fmt.Sprint(st.Losers, st.InDoubt); got != fmt.Sprintf("[] [%d]", b.ID()) {
			t.Fatalf("restart %d: losers, in doubt %s", i, got)
		}
		if branch = m2.Lookup(b.ID()); branch == nil || branch.State() != Prepared {
			t.Fatalf("restart %d: branch %v not adopted in doubt", i, branch)
		}
		if len(pg.pages) != 0 {
			t.Fatalf("restart %d wrote the branch's page: %q", i, pg.get(pid, 0, 5))
		}
	}
	if err := branch.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, st := restartOn(t, crash(t, l2), pg); len(st.InDoubt)+len(st.Losers) != 0 || string(pg.get(pid, 0, 5)) != "VOTED" {
		t.Fatalf("restart after the commit decision: %+v", st)
	}
}

// TestRestartCrashPointProperty drives random multi-transaction workloads,
// each transaction's records contiguous and a committed one's page writes
// lost at random, and checks the fundamental invariant: committed effects
// survive, uncommitted effects never appear.
func TestRestartCrashPointProperty(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := wal.NewMem()
		disk := newMemPager()
		// (page, offset) → the value restart must leave: the last winner's. A
		// loser's bytes stay locked to the crash (strict 2PL), so no later
		// transaction writes them.
		model, locked := map[[2]int]byte{}, map[[2]int]bool{}
		for id := uint64(1); id <= uint64(3+rng.Intn(4)); id++ {
			var last page.LSN
			var recs []*wal.Record
			for w := 1 + rng.Intn(4); w > 0; w-- {
				k := [2]int{rng.Intn(3), rng.Intn(100)}
				if locked[k] {
					continue
				}
				rec := upd(id, last, page.ID{Area: 1, Page: page.No(k[0])}, uint32(k[1]), string([]byte{byte(1 + rng.Intn(255))}))
				last, _ = l.Append(rec)
				recs = append(recs, rec)
			}
			commit := rng.Intn(2) == 0 && last != 0
			if commit {
				l.Append(&wal.Record{Type: wal.TCommit, Tx: id, PrevLSN: last})
				l.Flush(0)
			}
			for _, rec := range recs {
				c := rec.Changes[0]
				k := [2]int{int(c.Page.Page), int(c.Off)}
				if !commit {
					locked[k] = true
					continue
				}
				model[k] = c.After[0]
				if rng.Intn(2) == 0 {
					written(disk, rec) // the commit's write reached the disk before the crash
				}
			}
		}
		crashDisk := disk.clone()
		restartOn(t, crash(t, l), crashDisk)
		for p := 0; p < 3; p++ {
			pid := page.ID{Area: 1, Page: page.No(p)}
			for off := 0; off < 100; off++ {
				if got, want := crashDisk.get(pid, off, 1)[0], model[[2]int{p, off}]; got != want {
					t.Fatalf("seed %d: page %d off %d = %d, want %d", seed, p, off, got, want)
				}
			}
		}
	}
}

// TestRestartAnchorsEveryPageAfresh: the manager restart returns has seen no
// page, so what it logs next for a page is an anchor, whatever the log before
// the crash held — and a second restart, handed garbage for the page, rebuilds
// it from that whole image. A loser's page is anchored by its rollback.
func TestRestartAnchorsEveryPageAfresh(t *testing.T) {
	m, pg, l, _ := newEnv()
	pid, lost := page.ID{Area: 1, Page: 4}, page.ID{Area: 1, Page: 5}
	done := m.Begin()
	ship(t, done, pg, pid, 0, []byte("committed"))
	ship(t, done, pg, lost, 0, []byte("before the loser"))
	if err := done.Commit(); err != nil {
		t.Fatal(err)
	}
	// A loser: a spill of a page, never committed.
	l.Append(&wal.Record{Type: wal.TRedo, Tx: 99, Changes: []wal.Change{{Page: lost, Off: 7, After: []byte("doomed")}}})
	l.Flush(0)

	l2 := crash(t, l)
	m2, st := restartOn(t, l2, pg)
	if len(st.Losers) != 1 || st.UnanchoredPages != 0 || string(pg.get(pid, 0, 9)) != "committed" {
		t.Fatalf("first restart: %+v, page %q", st, pg.get(pid, 0, 9))
	}
	var rollback *wal.Record
	l2.Iterate(0, func(_ page.LSN, r *wal.Record) error {
		rollback = r
		return nil
	})
	if rollback.Type != wal.TAbort || rollback.Tx != 99 || len(rollback.Changes) != 1 || !rollback.Changes[0].WholePage() ||
		rollback.Changes[0].Page != lost || string(rollback.Changes[0].After[:16]) != "before the loser" {
		t.Fatalf("the loser's rollback logged %v of tx %d carrying %d changes", rollback.Type, rollback.Tx, len(rollback.Changes))
	}
	// In flight across a checkpoint, the first commit after restart anchors
	// the page; the next one logs a range.
	tr := m2.Begin()
	ship(t, tr, pg, pid, 100, []byte("next"))
	if _, err := m2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
	if rec := readRec(t, l2, tr.LastLSN()); !rec.Changes[0].WholePage() {
		t.Fatal("the first change after restart did not anchor its page")
	}
	tr = m2.Begin()
	ship(t, tr, pg, pid, 200, []byte("more"))
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
	if rec := readRec(t, l2, tr.LastLSN()); rec.Changes[0].WholePage() {
		t.Fatal("the second change after restart anchored its page again")
	}

	pg.pages[pid] = bytes.Repeat([]byte{0x99}, page.Size) // the commit's write tore
	_, st3 := restartOn(t, crash(t, l2), pg)
	if st3.UnanchoredPages != 0 || len(st3.Losers) != 0 {
		t.Fatalf("second restart: %+v", st3)
	}
	want := make([]byte, page.Size)
	copy(want, "committed")
	copy(want[100:], "next")
	copy(want[200:], "more")
	if !bytes.Equal(pg.get(pid, 0, page.Size), want) {
		t.Fatal("second restart did not rebuild the page from its anchor")
	}
}

// countingPager is a memPager that counts the reads and writes made through it.
type countingPager struct {
	*memPager
	reads, writes int
}

func (p *countingPager) ReadPage(id page.ID, buf []byte) error {
	p.reads++
	return p.memPager.ReadPage(id, buf)
}

func (p *countingPager) WritePage(proof wal.Logged, data []byte) error {
	p.writes++
	return p.memPager.WritePage(proof, data)
}

// TestRestartRebuildsHotPagesOnce: 64 hot pages take single-page commits
// between checkpoints — 2,000 between each of 20. A checkpoint starts no new
// anchor epoch, so each page's one anchor is its first record, and every
// record after it, across all 20 checkpoints, is a byte range. Restart replays
// each page in memory from that anchor: it reads no page, writes each page of
// the redo set once, and rebuilds every page byte-exact over garbage.
func TestRestartRebuildsHotPagesOnce(t *testing.T) {
	const hot = 64
	ckpts, each := 20, 2000
	if testing.Short() {
		ckpts, each = 4, 500
	}
	m, pg, l, _ := newEnv()
	n := 0
	for c := 0; c < ckpts; c++ {
		if _, err := m.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < each; i++ {
			n++
			tr := m.Begin()
			ship(t, tr, pg, page.ID{Area: 1, Page: page.No(n % hot)}, (n*53)%(page.Size-8), []byte(fmt.Sprintf("%08d", n)))
			if err := tr.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	crashed := crash(t, l)
	disk := &countingPager{memPager: newMemPager()}
	disk.log = crashed
	junk := bytes.Repeat([]byte{0xA5}, page.Size) // what torn writes left
	for p := 0; p < hot; p++ {
		disk.set(page.ID{Area: 1, Page: page.No(p)}, 0, junk)
	}

	start := time.Now()
	an, err := wal.Analyze(crashed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := an.Redo(disk); err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	st := an.Stats
	if disk.reads != 0 || disk.writes != hot || st.UnanchoredPages != 0 || st.RedoApplied != n {
		t.Fatalf("redo read %d pages and wrote %d, applied %d of %d records, %d unanchored; want 0 reads and %d writes",
			disk.reads, disk.writes, st.RedoApplied, n, st.UnanchoredPages, hot)
	}
	for p := 0; p < hot; p++ {
		pid := page.ID{Area: 1, Page: page.No(p)}
		if !bytes.Equal(disk.get(pid, 0, page.Size), pg.get(pid, 0, page.Size)) {
			t.Fatalf("page %v differs from its last commit after restart", pid)
		}
	}
	t.Logf("%d commits, %d checkpoints, %d B of log: restart (analyze + redo) %v, %d reads, %d writes",
		n, ckpts, crashed.NextLSN(), took, disk.reads, disk.writes)
}

// TestEnsureBeginsOnce: sixteen callers asking for one id get one transaction.
func TestEnsureBeginsOnce(t *testing.T) {
	m, _, _, hk := newEnv()
	if _, err := hk.Register(hooks.EvTxBegin, func(*hooks.Info) error { return nil }); err != nil {
		t.Fatal(err)
	}
	got := make([]*Tx, 16)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = m.Ensure(77, uint32(i+1))
		}(i)
	}
	wg.Wait()
	for _, tr := range got {
		if tr != got[0] {
			t.Fatal("Ensure began one id twice")
		}
	}
	if live(m) != 1 || hk.Fired(hooks.EvTxBegin) != 1 {
		t.Fatalf("%d live transactions, %d begin events", live(m), hk.Fired(hooks.EvTxBegin))
	}
}

// TestAbortOwned: a dropped connection takes its active transactions with it
// — rolled back, locks released — and nothing else: not another owner's, not
// its own prepared branch, which stays in doubt, unowned, with its locks.
func TestAbortOwned(t *testing.T) {
	m, pg, _, _ := newEnv()
	write := func(tr *Tx, n page.No) lock.Name {
		t.Helper()
		name := lock.PageName(1, int64(n), 0)
		if err := tr.Lock(name, lock.X); err != nil {
			t.Fatal(err)
		}
		ship(t, tr, pg, page.ID{Area: 1, Page: n}, 0, []byte{byte(n)})
		return name
	}
	active, prepared, other := m.Ensure(10, 1), m.Ensure(11, 1), m.Ensure(12, 2)
	nActive, nPrepared, nOther := write(active, 1), write(prepared, 2), write(other, 3)
	if err := prepared.Prepare(); err != nil {
		t.Fatal(err)
	}
	if err := m.AbortOwned(1); err != nil {
		t.Fatal(err)
	}
	if active.State() != Aborted || prepared.State() != Prepared || other.State() != Active {
		t.Fatalf("states: %v %v %v", active.State(), prepared.State(), other.State())
	}
	if m.Lookup(10) != nil || m.Lookup(11) != prepared || m.Lookup(12) != other {
		t.Fatal("table after AbortOwned")
	}
	for i, want := range []lock.Mode{lock.None, lock.X, lock.X} {
		id, name := []uint64{10, 11, 12}[i], []lock.Name{nActive, nPrepared, nOther}[i]
		if got := m.locks.Holds(lock.TxID(id), name); got != want {
			t.Errorf("tx %d holds %v, want %v", id, got, want)
		}
	}
	if len(pg.pages) != 0 {
		t.Fatal("AbortOwned wrote a page")
	}
	// The owner is gone for good: a second drop finds nothing of its, and the
	// branch is still Decide's to finish.
	if err := m.AbortOwned(1); err != nil || prepared.State() != Prepared {
		t.Fatalf("second AbortOwned: %v, branch %v", err, prepared.State())
	}
	if err := prepared.Abort(); err != nil {
		t.Fatal(err)
	}
	if m.locks.Holds(11, nPrepared) != lock.None || live(m) != 1 {
		t.Fatal("abort decision left the branch's lock or table entry")
	}
}

// TestFailedCommitForceEndsTheTransaction: when the commit record cannot be
// forced the transaction is over — error to the caller, nothing published,
// no table entry and no lock left behind for the next one to wait on.
func TestFailedCommitForceEndsTheTransaction(t *testing.T) {
	back := &gatedBacking{}
	l, err := wal.Open(back)
	if err != nil {
		t.Fatal(err)
	}
	pg := newMemPager()
	m := NewManager(l, lock.NewManager(), pg, nil)
	var published, unstaged int
	m.SetCommitHook(func(uint64, page.LSN) { published++ })
	m.SetAbortHook(func(uint64) { unstaged++ })
	name := lock.PageName(1, 1, 0)
	tr := m.Begin()
	if err := tr.Lock(name, lock.X); err != nil {
		t.Fatal(err)
	}
	ship(t, tr, pg, page.ID{Area: 1, Page: 1}, 0, []byte("x"))

	diskGone := errors.New("disk gone")
	back.mu.Lock()
	back.syncErr = diskGone
	back.mu.Unlock()
	if err := tr.Commit(); !errors.Is(err, diskGone) {
		t.Fatalf("commit over a failing force: %v", err)
	}
	if live(m) != 0 || m.Lookup(tr.ID()) != nil {
		t.Fatal("the transaction is still in the table")
	}
	if got := m.locks.Holds(lock.TxID(tr.ID()), name); got != lock.None {
		t.Fatalf("the transaction still holds %v", got)
	}
	if c, _ := m.Counts(); c != 0 || published != 0 || unstaged != 1 {
		t.Fatalf("commits %d, published %d, unstaged %d", c, published, unstaged)
	}
}
