package tx

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"bess/internal/lock"
	"bess/internal/page"
	"bess/internal/wal"
)

// readRec returns the record at lsn, forcing the log first.
func readRec(t *testing.T, l *wal.Log, lsn page.LSN) *wal.Record {
	t.Helper()
	if err := l.Flush(lsn); err != nil {
		t.Fatal(err)
	}
	rec, err := l.ReadRecord(lsn)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func allCLRs(l *wal.Log) (clrs []*wal.Record) {
	l.Iterate(0, func(_ page.LSN, r *wal.Record) error {
		if r.Type == wal.TCLR {
			clrs = append(clrs, r)
		}
		return nil
	})
	return clrs
}

// TestLogUpdateRule is the table for the logging rule: which bytes a record's
// halves carry, and when the redo half is the whole page instead.
func TestLogUpdateRule(t *testing.T) {
	m, _, l, _ := newEnv()
	pid := page.ID{Area: 1, Page: 9}
	cur := make([]byte, page.Size) // the page as the "disk" holds it
	for i := range cur {
		cur[i] = byte(i * 7)
	}
	tr := m.Begin()

	// step logs cur → cur with edit applied and checks the record: its undo
	// half is [wantOff, wantOff+wantLen) and so is its redo half, unless the
	// record is the page's anchor.
	step := func(name string, edit func(img []byte), wantOff, wantLen int, anchor bool) {
		t.Helper()
		after := append([]byte(nil), cur...)
		edit(after)
		next := l.NextLSN()
		proof, err := tr.LogUpdate(pid, cur, after)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lsn := proof.LSN()
		if lsn != 0 && proof.Page() != pid {
			t.Fatalf("%s: proof names %v, logged %v", name, proof.Page(), pid)
		}
		if wantLen == 0 {
			if lsn != 0 || l.NextLSN() != next {
				t.Fatalf("%s: logged a record (lsn %d) for an unchanged page", name, lsn)
			}
			return
		}
		rec := readRec(t, l, lsn)
		redoOff, redoLen := wantOff, wantLen
		if anchor {
			redoOff, redoLen = 0, page.Size
		}
		if rec.Type != wal.TUpdate || rec.Page != pid || int(rec.UndoOff) != wantOff || len(rec.Before) != wantLen ||
			int(rec.Off) != redoOff || len(rec.After) != redoLen {
			t.Fatalf("%s: record undo off %d, %d bytes, redo off %d, %d bytes; want %d, %d and %d, %d",
				name, rec.UndoOff, len(rec.Before), rec.Off, len(rec.After), wantOff, wantLen, redoOff, redoLen)
		}
		if !bytes.Equal(rec.Before, cur[wantOff:wantOff+wantLen]) || !bytes.Equal(rec.After, after[redoOff:redoOff+redoLen]) {
			t.Fatalf("%s: images are not the pages' bytes at the record's ranges", name)
		}
		if rec.WholePage() != (redoOff == 0 && redoLen == page.Size) {
			t.Fatalf("%s: WholePage() = %v", name, rec.WholePage())
		}
		cur = after
	}
	flip := func(at ...int) func([]byte) {
		return func(img []byte) {
			for _, i := range at {
				img[i] ^= 0xFF
			}
		}
	}

	step("identical pages, never logged", flip(), 0, 0, false)
	step("first touch after open: anchor, undo of what changed", flip(1000), 1000, 1, true)
	step("identical pages", flip(), 0, 0, false)
	step("one byte", flip(77), 77, 1, false)
	step("first byte", flip(0), 0, 1, false)
	step("last byte", flip(page.Size-1), page.Size-1, 1, false)
	step("two distant ranges: one covering range", flip(100, 101, 3000), 100, 2901, false)
	step("range not aligned to the compare stride", flip(13, 14, 15, 16, 17), 13, 5, false)
	step("whole page", func(img []byte) {
		for i := range img {
			img[i]++
		}
	}, 0, page.Size, false)
	step("short tail: a change confined to the page's head", func(img []byte) {
		copy(img, bytes.Repeat([]byte{0x5A}, 300))
	}, 0, 300, false)

	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	step("first touch after a checkpoint: anchor", flip(2000), 2000, 1, true)
	step("second touch after a checkpoint: delta", flip(2000, 2001), 2000, 2, false)

	// A new manager over the same log is what a reopened server starts with.
	m2 := NewManager(l, lock.NewManager(), newMemPager(), nil)
	tr.Commit()
	tr = m2.Begin()
	step("first touch after reopen: anchor", flip(5), 5, 1, true)
	step("second touch after reopen: delta", flip(5), 5, 1, false)

	if _, err := tr.LogUpdate(pid, cur[:100], cur[:100]); err == nil {
		t.Fatal("LogUpdate accepted images shorter than a page")
	}
}

// TestCLRFollowsAnchorRule: a CLR is a redo-only record and obeys the same
// rule as an update — a byte range when its page has an anchor in the epoch,
// the whole restored page when not (a checkpoint since the update; a branch
// adopted after restart, whose pages the new manager has never seen).
func TestCLRFollowsAnchorRule(t *testing.T) {
	pid := page.ID{Area: 1, Page: 4}

	m, pg, l, _ := newEnv()
	tr := m.Begin()
	logAt(tr, pg, pid, 0, []byte("anchor"))
	pg.set(pid, 0, []byte("anchor"))
	logAt(tr, pg, pid, 50, []byte("delta"))
	pg.set(pid, 50, []byte("delta"))
	if err := tr.Abort(); err != nil {
		t.Fatal(err)
	}
	// Undo runs backwards: the last CLR compensates the anchor, by which time
	// the page is anchored, and so it carries the anchor's undo range — the six
	// bytes that changed, not the page. The one before it compensates the delta.
	clrs := allCLRs(l)
	if len(clrs) != 2 || clrs[0].Off != 50 || len(clrs[0].After) != 5 || clrs[1].Off != 0 || len(clrs[1].After) != 6 {
		t.Fatalf("CLRs of an anchored page: %+v", clrs)
	}
	if got := pg.get(pid, 0, 60); !bytes.Equal(got, make([]byte, 60)) {
		t.Fatalf("abort left %q", got)
	}

	m, pg, l, _ = newEnv()
	tr = m.Begin()
	logAt(tr, pg, pid, 0, []byte("anchor"))
	pg.set(pid, 0, []byte("anchor"))
	logAt(tr, pg, pid, 50, []byte("delta"))
	pg.set(pid, 50, []byte("delta"))
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Abort(); err != nil {
		t.Fatal(err)
	}
	clrs = allCLRs(l)
	if len(clrs) != 2 {
		t.Fatalf("abort logged %d CLRs, want 2", len(clrs))
	}
	if r := clrs[0]; !r.WholePage() || string(r.After[:6]) != "anchor" || !bytes.Equal(r.After[50:55], make([]byte, 5)) {
		t.Errorf("first CLR after a checkpoint is not the whole restored page: off %d, %d bytes", r.Off, len(r.After))
	}
	if r := clrs[1]; r.Off != 0 || len(r.After) != 6 {
		t.Errorf("second CLR after a checkpoint: off %d, %d bytes, want the anchor's undo range", r.Off, len(r.After))
	}

	m, pg, l, _ = newEnv()
	tr = m.Begin()
	logAt(tr, pg, pid, 0, []byte("anchor"))
	pg.set(pid, 0, []byte("anchor"))
	lsn, _ := logAt(tr, pg, pid, 50, []byte("delta"))
	pg.set(pid, 50, []byte("delta"))
	l.Flush(lsn)
	crashed, err := wal.OpenMemFrom(l.DurableBytes())
	if err != nil {
		t.Fatal(err)
	}
	pg.log = crashed
	if _, _, err := restart(crashed, pg); err != nil {
		t.Fatal(err)
	}
	if clrs = allCLRs(crashed); len(clrs) != 2 || !clrs[0].WholePage() || clrs[1].WholePage() {
		t.Fatalf("restart's first CLR of a page, and only that one, must anchor it: %+v", clrs)
	}
}

// TestNothingLoggedNothingForced: a transaction that logged nothing commits
// and aborts without a record or a log force; locks release, hooks fire and
// the version clock stays put.
func TestNothingLoggedNothingForced(t *testing.T) {
	m, _, l, _ := newEnv()
	var committed, unstaged []uint64
	m.SetCommitHook(func(id uint64, _ page.LSN) { committed = append(committed, id) })
	m.SetAbortHook(func(id uint64) { unstaged = append(unstaged, id) })
	w := m.Begin()
	logAt(w, newMemPager(), page.ID{Area: 1, Page: 1}, 0, []byte("x"))
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	next, syncs, stamp := l.NextLSN(), l.Stats().Syncs, m.CommitStamp()

	name := lock.PageName(1, 10, 0)
	for _, end := range []func(*Tx) error{(*Tx).Commit, (*Tx).Abort} {
		tr := m.Begin()
		if err := tr.Lock(name, lock.X); err != nil {
			t.Fatal(err)
		}
		if err := end(tr); err != nil {
			t.Fatal(err)
		}
	}
	if l.NextLSN() != next || l.Stats().Syncs != syncs {
		t.Fatalf("log moved: next LSN %d -> %d, syncs %d -> %d", next, l.NextLSN(), syncs, l.Stats().Syncs)
	}
	if m.CommitStamp() != stamp {
		t.Fatalf("version clock moved: %d -> %d", stamp, m.CommitStamp())
	}
	if c, a := m.Counts(); c != 2 || a != 1 || m.ActiveCount() != 0 {
		t.Fatalf("commits %d, aborts %d, active %d", c, a, m.ActiveCount())
	}
	// Both endings drop what the transaction staged; neither publishes.
	if len(committed) != 1 || len(unstaged) != 2 {
		t.Fatalf("commit hook ran for %v, abort hook for %v", committed, unstaged)
	}
	// A checkpoint has nothing to say about a transaction the log never saw.
	idle := m.Begin()
	lsn, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if rec := readRec(t, l, lsn); len(rec.DirtyPages) != 0 {
		t.Fatalf("checkpoint lists %+v", rec.DirtyPages)
	}
	idle.Commit()
}

// gatedBacking is a memory wal.Backing whose Sync can be held up: the test
// decides when a commit's force completes.
type gatedBacking struct {
	mu      sync.Mutex
	buf     []byte
	entered chan struct{} // receives once per gated Sync, on entry
	gate    chan struct{} // a gated Sync returns once this is closed; nil = open
	syncErr error         // what Sync returns
}

func (b *gatedBacking) WriteAt(p []byte, off int64) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if end := int(off) + len(p); end > len(b.buf) {
		b.buf = append(b.buf, make([]byte, end-len(b.buf))...)
	}
	copy(b.buf[off:], p)
	return len(p), nil
}

func (b *gatedBacking) ReadAt(p []byte, off int64) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if int(off)+len(p) > len(b.buf) {
		return 0, fmt.Errorf("gatedBacking: read past end")
	}
	return copy(p, b.buf[off:]), nil
}

func (b *gatedBacking) Sync() error {
	b.mu.Lock()
	gate, err := b.gate, b.syncErr
	b.mu.Unlock()
	if gate != nil {
		b.entered <- struct{}{}
		<-gate
	}
	return err
}

func (b *gatedBacking) Close() error { return nil }

func (b *gatedBacking) Size() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return int64(len(b.buf))
}

// TestCheckpointDuringCommitKeepsTheCommit forces the interleaving that used
// to lose acknowledged commits: a checkpoint runs while a transaction is in
// the middle of its commit force. Whatever the checkpoint says about the
// transaction, restart from it must find the commit a winner.
func TestCheckpointDuringCommitKeepsTheCommit(t *testing.T) {
	back := &gatedBacking{entered: make(chan struct{}, 4)}
	l, err := wal.Open(back)
	if err != nil {
		t.Fatal(err)
	}
	pg := newMemPager()
	m := NewManager(l, lock.NewManager(), pg, nil)
	pid := page.ID{Area: 1, Page: 1}
	tr := m.Begin()
	logAt(tr, pg, pid, 0, []byte("ACKED"))
	pg.set(pid, 0, []byte("ACKED"))

	back.mu.Lock()
	back.gate = make(chan struct{})
	back.mu.Unlock()
	commitDone := make(chan error, 1)
	go func() { commitDone <- tr.Commit() }()
	<-back.entered // the commit record is appended and its force is in flight

	before := l.NextLSN()
	ckptDone := make(chan error, 1)
	go func() { _, err := m.Checkpoint(); ckptDone <- err }()
	// The checkpoint must not wait for the force: its record lands now.
	for deadline := time.Now().Add(5 * time.Second); l.NextLSN() == before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("checkpoint is stuck behind a commit's log force")
		}
	}
	back.mu.Lock()
	close(back.gate)
	back.gate = nil
	back.mu.Unlock()
	if err := <-commitDone; err != nil {
		t.Fatal(err)
	}
	if err := <-ckptDone; err != nil {
		t.Fatal(err)
	}

	crashed, err := wal.OpenMemFrom(l.DurableBytes())
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := restart(crashed, pg)
	if err != nil {
		t.Fatal(err)
	}
	if st.CheckpointLSN == 0 || len(st.Losers) != 0 || st.UndoApplied != 0 {
		t.Fatalf("restart from checkpoint %d undid an acknowledged commit: losers %v, %d undone",
			st.CheckpointLSN, st.Losers, st.UndoApplied)
	}
	if got := pg.get(pid, 0, 5); string(got) != "ACKED" {
		t.Fatalf("acknowledged commit lost: page holds %q", got)
	}
}

// lockedPager is a memPager shared by concurrent transactions.
type lockedPager struct {
	mu sync.Mutex
	p  *memPager
}

func (p *lockedPager) ReadPage(id page.ID, buf []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.p.ReadPage(id, buf)
}

func (p *lockedPager) WritePage(proof wal.Logged, data []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.p.WritePage(proof, data)
}

// TestCheckpointInterleaving runs updaters (overwrite, commit, abort, or stay
// in flight) against a checkpointer that never pauses, then crashes. Restart
// must (i) start every page it replays from a whole-page image — checked both
// by the counter and by handing it garbage in place of every page it is
// entitled to rebuild — and (ii) find every acknowledged commit a winner.
func TestCheckpointInterleaving(t *testing.T) {
	rounds := 20
	if testing.Short() {
		rounds = 5
	}
	for round := 0; round < rounds; round++ {
		l := wal.NewMem()
		pg := &lockedPager{p: newMemPager()}
		pg.p.log = l
		m := NewManager(l, lock.NewManager(), pg, nil)

		const workers, pagesEach = 4, 3
		want := make([]map[page.ID][]byte, workers) // per worker: page → last committed image
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			want[w] = make(map[page.ID][]byte)
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*100 + w)))
				cur := make(map[page.ID][]byte) // committed content of the worker's pages
				for {
					select {
					case <-stop:
						return
					default:
					}
					tr := m.Begin()
					mine := make(map[page.ID][]byte)
					for n := 1 + rng.Intn(3); n > 0; n-- {
						pid := page.ID{Area: 1, Page: page.No(w*pagesEach + rng.Intn(pagesEach))}
						before := mine[pid]
						if before == nil {
							if before = cur[pid]; before == nil {
								before = make([]byte, page.Size)
							}
						}
						after := append([]byte(nil), before...)
						off, ln := rng.Intn(page.Size), 1+rng.Intn(200)
						if rng.Intn(8) == 0 {
							off, ln = 0, page.Size
						}
						for i := off; i < off+ln && i < page.Size; i++ {
							after[i] = byte(rng.Intn(256))
						}
						proof, err := tr.LogUpdate(pid, before, after)
						if err != nil {
							t.Error(err)
							return
						}
						if proof.LSN() == 0 {
							continue // the random bytes changed nothing
						}
						if err := pg.WritePage(proof, after); err != nil {
							t.Error(err)
							return
						}
						mine[pid] = after
					}
					switch r := rng.Intn(10); {
					case r < 7:
						if err := tr.Commit(); err != nil {
							t.Error(err)
							return
						}
						for pid, img := range mine {
							cur[pid], want[w][pid] = img, img
						}
					case r < 9:
						if err := tr.Abort(); err != nil {
							t.Error(err)
							return
						}
					default:
						return // left in flight: a loser at restart
					}
				}
			}()
		}
		ckpts := 0
		for ; ckpts < 30; ckpts++ {
			if _, err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		close(stop)
		wg.Wait()
		if t.Failed() {
			return
		}
		if err := l.Flush(0); err != nil {
			t.Fatal(err)
		}

		// Crash. Find what restart is entitled to rebuild — the last
		// checkpoint's dirty pages and every page logged after it — and
		// replace exactly those with garbage.
		crashed, err := wal.OpenMemFrom(l.DurableBytes())
		if err != nil {
			t.Fatal(err)
		}
		var ckptLSN page.LSN
		var ckpt *wal.Record
		crashed.Iterate(0, func(lsn page.LSN, r *wal.Record) error {
			if r.Type == wal.TCheckpoint {
				ckptLSN, ckpt = lsn, r
			}
			return nil
		})
		rebuilt := make(map[page.ID]bool)
		for _, e := range ckpt.DirtyPages {
			rebuilt[e.Page] = true
		}
		crashed.Iterate(ckptLSN, func(_ page.LSN, r *wal.Record) error {
			if r.Type == wal.TUpdate || r.Type == wal.TCLR {
				rebuilt[r.Page] = true
			}
			return nil
		})
		disk := pg.p.clone()
		noise := rand.New(rand.NewSource(int64(round)))
		for pid := range rebuilt {
			junk := make([]byte, page.Size)
			noise.Read(junk)
			disk.pages[pid] = junk
		}
		disk.log = crashed
		_, st, err := restart(crashed, disk)
		if err != nil {
			t.Fatal(err)
		}
		if st.UnanchoredPages != 0 {
			t.Fatalf("round %d: redo started %d pages from a byte-range record (redo start %d, checkpoint %d)",
				round, st.UnanchoredPages, st.RedoStartLSN, st.CheckpointLSN)
		}
		buf := make([]byte, page.Size)
		for w := range want {
			for i := 0; i < pagesEach; i++ {
				pid := page.ID{Area: 1, Page: page.No(w*pagesEach + i)}
				img := want[w][pid]
				if img == nil {
					img = make([]byte, page.Size)
				}
				disk.ReadPage(pid, buf)
				if !bytes.Equal(buf, img) {
					t.Fatalf("round %d: page %v (rebuilt from garbage: %v) differs from its last acknowledged commit",
						round, pid, rebuilt[pid])
				}
			}
		}
	}
}

// TestAnchorUndoIsRangeSized: the first update of a page after a checkpoint
// changes k bytes and costs the log a page plus k, not two pages — its redo
// half is the whole page, its undo half the k bytes — and both undos restore
// the page byte-exactly from it: rollback at run time, whose CLR covers the
// undo range only, and restart undo on top of whatever a torn write left.
func TestAnchorUndoIsRangeSized(t *testing.T) {
	const off, k = 1234, 400
	pid := page.ID{Area: 1, Page: 6}
	was := make([]byte, page.Size)
	for i := range was {
		was[i] = byte(i*13 + 5)
	}
	change := bytes.Repeat([]byte{0xEE}, k)

	// setup commits was, checkpoints, and has a second transaction log the
	// change — the anchor of the new epoch — and steal it to the pager.
	setup := func() (*Manager, *memPager, *wal.Log, *Tx, page.LSN) {
		m, pg, l, _ := newEnv()
		w := m.Begin()
		logAt(w, pg, pid, 0, was)
		pg.set(pid, 0, was)
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		tr := m.Begin()
		start := l.NextLSN()
		lsn, err := logAt(tr, pg, pid, off, change)
		if err != nil {
			t.Fatal(err)
		}
		if got := int(l.NextLSN() - start); got > page.Size+k+64 {
			t.Fatalf("anchor of a %d-byte change appended %d bytes, want at most %d", k, got, page.Size+k+64)
		}
		pg.set(pid, off, change)
		rec := readRec(t, l, lsn)
		if !rec.WholePage() || int(rec.UndoOff) != off || len(rec.Before) != k || !bytes.Equal(rec.Before, was[off:off+k]) {
			t.Fatalf("anchor: WholePage %v, undo half %d+%d", rec.WholePage(), rec.UndoOff, len(rec.Before))
		}
		return m, pg, l, tr, lsn
	}

	_, pg, l, tr, lsn := setup()
	if err := tr.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := pg.get(pid, 0, page.Size); !bytes.Equal(got, was) {
		t.Fatal("rollback of the anchor did not restore the page")
	}
	var clr *wal.Record
	l.Iterate(lsn, func(_ page.LSN, r *wal.Record) error {
		if r.Type == wal.TCLR {
			clr = r
		}
		return nil
	})
	if clr == nil || int(clr.Off) != off || !bytes.Equal(clr.After, was[off:off+k]) {
		t.Fatalf("CLR of the anchor: %+v, want the undo range %d+%d", clr, off, k)
	}

	// Restart: the steal tore, the page holds garbage. Redo lays the anchor's
	// whole image down and undo copies the range back over it.
	_, pg, l, _, lsn = setup()
	if err := l.Flush(lsn); err != nil {
		t.Fatal(err)
	}
	l2, err := wal.OpenMemFrom(l.DurableBytes())
	if err != nil {
		t.Fatal(err)
	}
	crashed := pg.clone()
	crashed.log = l2
	crashed.pages[pid] = bytes.Repeat([]byte{0x99}, page.Size)
	_, st, err := restart(l2, crashed)
	if err != nil {
		t.Fatal(err)
	}
	if st.UnanchoredPages != 0 || st.UndoApplied != 1 {
		t.Fatalf("restart: %+v", st)
	}
	if got := crashed.get(pid, 0, page.Size); !bytes.Equal(got, was) {
		t.Fatal("restart undo of the anchor did not restore the page")
	}
}
