package tx

import (
	"fmt"
	"testing"
	"time"

	"bess/internal/hooks"
	"bess/internal/lock"
	"bess/internal/page"
	"bess/internal/wal"
)

// memPager mirrors the wal test pager: as a wal.Pager it asserts every store's
// proof — non-zero, and of a record below the end of log when it has one.
type memPager struct {
	pages map[page.ID][]byte
	log   *wal.Log
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

func (p *memPager) WriteRun(proofs []wal.Logged, data []byte) error {
	if _, err := wal.RunOf(proofs, data); err != nil {
		return err
	}
	for i, proof := range proofs {
		if p.log != nil && proof.LSN() >= p.log.NextLSN() {
			return fmt.Errorf("store of %v on a proof at lsn %d, past the log end %d", proof.Page(), proof.LSN(), p.log.NextLSN())
		}
		p.pages[proof.Page()] = append([]byte(nil), data[i*page.Size:(i+1)*page.Size]...)
	}
	return nil
}

func (p *memPager) clone() *memPager {
	c := newMemPager()
	for id, pg := range p.pages {
		c.pages[id] = append([]byte(nil), pg...)
	}
	return c
}

func (p *memPager) set(id page.ID, off int, b []byte) {
	buf := make([]byte, page.Size)
	p.ReadPage(id, buf)
	copy(buf[off:], b)
	p.pages[id] = buf
}

func (p *memPager) get(id page.ID, off, n int) []byte {
	buf := make([]byte, page.Size)
	p.ReadPage(id, buf)
	return buf[off : off+n]
}

// ship logs the change of pid's bytes at off to b as a shipped commit logs it
// (LogRedo): whole-page images, before from the pager, after the page as tr
// sees it — with its own earlier changes — and b.
func ship(t *testing.T, tr *Tx, p *memPager, pid page.ID, off int, b []byte) {
	t.Helper()
	if err := shipAt(tr, p, pid, off, b); err != nil {
		t.Fatal(err)
	}
}

func shipAt(tr *Tx, p *memPager, pid page.ID, off int, b []byte) error {
	before := make([]byte, page.Size)
	p.ReadPage(pid, before)
	after := append([]byte(nil), before...)
	tr.mu.Lock()
	for _, w := range tr.writes {
		if w.pid == pid {
			copy(after, w.img)
		}
	}
	tr.mu.Unlock()
	copy(after[off:], b)
	return tr.LogRedo(pid, before, after)
}

func newEnv() (*Manager, *memPager, *wal.Log, *hooks.Registry) {
	l := wal.NewMem()
	lm := lock.NewManager()
	pg := newMemPager()
	pg.log = l
	hk := hooks.NewRegistry()
	return NewManager(l, lm, pg, hk), pg, l, hk
}

func TestCommitForcesLog(t *testing.T) {
	m, pg, l, _ := newEnv()
	pid := page.ID{Area: 1, Page: 3}
	tr := m.Begin()
	if tr.State() != Active {
		t.Fatal("not active")
	}
	ship(t, tr, pg, pid, 0, []byte("abc"))
	if durableLSN(l) != wal.FirstLSN() {
		t.Fatal("log flushed before commit")
	}
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
	if durableLSN(l) <= wal.FirstLSN() {
		t.Fatal("commit did not force the log")
	}
	if string(pg.get(pid, 0, 3)) != "abc" {
		t.Fatal("commit did not write the page")
	}
	if tr.State() != Committed {
		t.Fatalf("state = %v", tr.State())
	}
	if c, _ := m.Counts(); c != 1 {
		t.Fatalf("commits = %d", c)
	}
	if live(m) != 0 {
		t.Fatal("tx still active")
	}
	// Further operations fail.
	if err := shipAt(tr, pg, pid, 0, []byte("x")); err != ErrNotActive {
		t.Fatalf("update after commit: %v", err)
	}
	if err := tr.Commit(); err != ErrNotActive {
		t.Fatalf("double commit: %v", err)
	}
}

// TestAbortRollsBack: a rolled-back transaction's changes never reach its
// pages, and a rollback of changes only queued logs nothing at all.
func TestAbortRollsBack(t *testing.T) {
	m, pg, l, _ := newEnv()
	pid := page.ID{Area: 1, Page: 3}
	pg.set(pid, 0, []byte("old-value"))

	tr := m.Begin()
	ship(t, tr, pg, pid, 0, []byte("new-value"))
	ship(t, tr, pg, pid, 20, []byte("zz"))
	if err := tr.Abort(); err != nil {
		t.Fatal(err)
	}
	if string(pg.get(pid, 0, 9)) != "old-value" || pg.get(pid, 20, 1)[0] != 0 {
		t.Fatalf("rolled-back changes reached the page: %q", pg.get(pid, 0, 22))
	}
	if got := fmt.Sprint(txRecords(l, tr.ID())); got != "[]" {
		t.Fatalf("the transaction's records: %s", got)
	}
	if tr.State() != Aborted {
		t.Fatalf("state = %v", tr.State())
	}
	if _, a := m.Counts(); a != 1 {
		t.Fatalf("aborts = %d", a)
	}
}

// txRecords lists the types of tx's durable records, in log order.
func txRecords(l *wal.Log, tx uint64) (types []wal.Type) {
	l.Iterate(0, func(_ page.LSN, r *wal.Record) error {
		if r.Tx == tx {
			types = append(types, r.Type)
		}
		return nil
	})
	return types
}

func TestLocksReleasedAtEnd(t *testing.T) {
	m, _, _, _ := newEnv()
	name := lock.PageName(1, 10, 0)
	t1 := m.Begin()
	if err := t1.Lock(name, lock.X); err != nil {
		t.Fatal(err)
	}
	t2 := m.Begin()
	m.locks.DefaultTimeout = 20 * time.Millisecond
	if err := t2.Lock(name, lock.X); err != lock.ErrTimeout {
		t.Fatalf("conflicting lock: %v", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Lock(name, lock.X); err != nil {
		t.Fatalf("lock after release: %v", err)
	}
	t2.Abort()
}

func TestHooksFire(t *testing.T) {
	m, _, _, hk := newEnv()
	var events []hooks.Event
	for _, e := range []hooks.Event{hooks.EvTxBegin, hooks.EvTxCommit, hooks.EvTxAbort} {
		e := e
		hk.Register(e, func(i *hooks.Info) error {
			events = append(events, i.Event)
			return nil
		})
	}
	t1 := m.Begin()
	t1.Commit()
	t2 := m.Begin()
	t2.Abort()
	want := []hooks.Event{hooks.EvTxBegin, hooks.EvTxCommit, hooks.EvTxBegin, hooks.EvTxAbort}
	if len(events) != len(want) {
		t.Fatalf("events = %v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v", events)
		}
	}
}

func TestCrashAfterCommitRecovers(t *testing.T) {
	m, pg, l, _ := newEnv()
	pid := page.ID{Area: 1, Page: 1}
	tr := m.Begin()
	ship(t, tr, pg, pid, 0, []byte("DATA"))
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}
	delete(pg.pages, pid) // the commit's page write is lost in the crash
	crashed, err := wal.OpenMemFrom(l.DurableBytes())
	if err != nil {
		t.Fatal(err)
	}
	pg.log = crashed
	_, st, err := restart(crashed, pg)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Winners) != 1 {
		t.Fatalf("winners = %v", st.Winners)
	}
	if string(pg.get(pid, 0, 4)) != "DATA" {
		t.Fatal("committed data lost across crash")
	}
}

func TestCrashMidTransactionRollsBack(t *testing.T) {
	m, pg, l, _ := newEnv()
	pid := page.ID{Area: 1, Page: 1}
	tr := m.Begin()
	ship(t, tr, pg, pid, 0, []byte("BAD"))
	if err := l.Flush(0); err != nil {
		t.Fatal(err)
	}
	// Crash before commit: the change was queued for the commit record, and
	// nothing of the transaction is in the log.
	crashed, err := wal.OpenMemFrom(l.DurableBytes())
	if err != nil {
		t.Fatal(err)
	}
	pg.log = crashed
	_, st, err := restart(crashed, pg)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Losers)+len(st.Winners) != 0 {
		t.Fatalf("losers %v, winners %v", st.Losers, st.Winners)
	}
	if got := pg.get(pid, 0, 3); got[0] != 0 || len(pg.pages) != 0 {
		t.Fatalf("the uncommitted change reached the page: %q", got)
	}
	if got := fmt.Sprint(txRecords(crashed, tr.ID())); got != "[]" {
		t.Fatalf("the transaction's records after restart: %s", got)
	}
}

func TestPrepareMakesTxInDoubt(t *testing.T) {
	m, pg, l, _ := newEnv()
	pid := page.ID{Area: 1, Page: 2}
	tr := m.Begin()
	ship(t, tr, pg, pid, 0, []byte{9})
	if err := tr.Prepare(); err != nil {
		t.Fatal(err)
	}
	if tr.State() != Prepared {
		t.Fatalf("state = %v", tr.State())
	}
	// Crash: the prepared tx is in doubt, its effect is neither on its page
	// nor given up.
	crashed, _ := wal.OpenMemFrom(l.DurableBytes())
	m2, st, err := restart(crashed, pg)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.InDoubt) != 1 || st.InDoubt[0] != tr.ID() {
		t.Fatalf("in-doubt = %v", st.InDoubt)
	}
	if len(st.Losers) != 0 {
		t.Fatalf("prepared tx treated as loser: %v", st.Losers)
	}
	if pg.get(pid, 0, 1)[0] != 0 {
		t.Fatal("prepared effect written before decision")
	}
	pg.log = crashed
	if err := m2.Lookup(tr.ID()).Commit(); err != nil || pg.get(pid, 0, 1)[0] != 9 {
		t.Fatalf("commit decision after restart: %v, page holds %d", err, pg.get(pid, 0, 1)[0])
	}
}

func TestPreparedTxCanCommitOrAbort(t *testing.T) {
	m, pg, _, _ := newEnv()
	pid := page.ID{Area: 1, Page: 2}
	tr := m.Begin()
	ship(t, tr, pg, pid, 0, []byte{7})
	tr.Prepare()
	if err := tr.Commit(); err != nil {
		t.Fatal(err)
	}

	tr2 := m.Begin()
	ship(t, tr2, pg, pid, 1, []byte{8})
	tr2.Prepare()
	if err := tr2.Abort(); err != nil {
		t.Fatal(err)
	}
	if pg.get(pid, 0, 1)[0] != 7 {
		t.Fatal("committed branch lost")
	}
	if pg.get(pid, 1, 1)[0] != 0 {
		t.Fatal("aborted branch survived")
	}
}

// TestCheckpointCapturesActiveState: a checkpoint lists the pages whose
// changes a transaction still open logged — a prepared branch's, at the
// prepare record that anchored them — and not those an active one only
// queued, whose commit record will follow the checkpoint's.
func TestCheckpointCapturesActiveState(t *testing.T) {
	m, pg, l, _ := newEnv()
	pid := page.ID{Area: 1, Page: 4}
	tr := m.Begin()
	ship(t, tr, pg, pid, 0, []byte{1})
	if err := tr.Prepare(); err != nil {
		t.Fatal(err)
	}
	queued := m.Begin()
	ship(t, queued, pg, page.ID{Area: 1, Page: 5}, 0, []byte{2})
	lsn, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	rec := readRec(t, l, lsn)
	if len(rec.DirtyPages) != 1 || rec.DirtyPages[0] != (wal.CkptPage{Page: pid, RecLSN: tr.LastLSN()}) {
		t.Fatalf("checkpoint dirty pages = %+v, want %v at the prepare, %d", rec.DirtyPages, pid, tr.LastLSN())
	}
	tr.Abort()
	queued.Abort()
}

func TestEnsureAdvancesAutoIDs(t *testing.T) {
	m, _, _, _ := newEnv()
	tr := m.Ensure(500, 7)
	if tr.ID() != 500 || m.Lookup(500) != tr || m.Ensure(500, 8) != tr {
		t.Fatalf("Ensure(500) = tx %d, looked up %v", tr.ID(), m.Lookup(500))
	}
	if tr2 := m.Begin(); tr2.ID() <= 500 {
		t.Fatalf("auto id %d not advanced", tr2.ID())
	}
	if m.Lookup(499) != nil {
		t.Fatal("Lookup of an id nobody began")
	}
}

func TestStateString(t *testing.T) {
	if Active.String() != "active" || Prepared.String() != "prepared" ||
		Committed.String() != "committed" || Aborted.String() != "aborted" {
		t.Fatal("state strings")
	}
}

// durableLSN is l's durable frontier: the log bytes a crash would keep.
func durableLSN(l *wal.Log) page.LSN { return page.LSN(len(l.DurableBytes())) }

// live is the number of transactions in m's table.
func live(m *Manager) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}
