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

// TestLogRedoRule is the table for the logging rule: which bytes a record's
// redo half carries, and when it is the whole page instead — a page's first
// touch after Open, and not after a checkpoint.
func TestLogRedoRule(t *testing.T) {
	m, _, l, _ := newEnv()
	pid := page.ID{Area: 1, Page: 9}
	cur := make([]byte, page.Size) // the page as the transaction sees it
	for i := range cur {
		cur[i] = byte(i * 7)
	}
	tr := m.Begin()

	// step logs cur → cur with edit applied and checks the record: its redo
	// half is [wantOff, wantOff+wantLen), unless the record is the page's
	// anchor.
	step := func(name string, edit func(img []byte), wantOff, wantLen int, anchor bool) {
		t.Helper()
		after := append([]byte(nil), cur...)
		edit(after)
		next := l.NextLSN()
		if err := tr.LogRedo(pid, cur, after); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if wantLen == 0 {
			if l.NextLSN() != next {
				t.Fatalf("%s: logged a record for an unchanged page", name)
			}
			return
		}
		rec := readRec(t, l, next)
		if anchor {
			wantOff, wantLen = 0, page.Size
		}
		if rec.Type != wal.TRedo || rec.Page != pid || int(rec.Off) != wantOff || len(rec.After) != wantLen || rec.Before != nil {
			t.Fatalf("%s: record redo off %d, %d bytes, %d undo bytes; want %d, %d and none",
				name, rec.Off, len(rec.After), len(rec.Before), wantOff, wantLen)
		}
		if !bytes.Equal(rec.After, after[wantOff:wantOff+wantLen]) {
			t.Fatalf("%s: the image is not the page's bytes at the record's range", name)
		}
		if rec.WholePage() != (wantOff == 0 && wantLen == page.Size) {
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
	step("first touch after open: anchor", flip(1000), 1000, 1, true)
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

	// A checkpoint leaves the anchors be: the page's is part of its history.
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	step("first touch after a checkpoint: delta", flip(2000), 2000, 1, false)
	step("second touch after a checkpoint: delta", flip(2000, 2001), 2000, 2, false)

	// A new manager over the same log is what a reopened server starts with.
	m2 := NewManager(l, lock.NewManager(), newMemPager(), nil)
	tr.Commit()
	tr = m2.Begin()
	step("first touch after reopen: anchor", flip(5), 5, 1, true)
	step("second touch after reopen: delta", flip(5), 5, 1, false)

	if err := tr.LogRedo(pid, cur[:100], cur[:100]); err == nil {
		t.Fatal("LogRedo accepted images shorter than a page")
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
	ship(t, w, newMemPager(), page.ID{Area: 1, Page: 1}, 0, []byte("x"))
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
	if c, a := m.Counts(); c != 2 || a != 1 || live(m) != 0 {
		t.Fatalf("commits %d, aborts %d, active %d", c, a, live(m))
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
	ship(t, tr, pg, pid, 0, []byte("ACKED"))

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
	if st.CheckpointLSN == 0 || len(st.Losers) != 0 {
		t.Fatalf("restart from checkpoint %d lost an acknowledged commit: losers %v", st.CheckpointLSN, st.Losers)
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

// TestCheckpointInterleaving runs updaters (ship, commit, abort, or stay in
// flight) against a checkpointer that never pauses, then crashes. Restart
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
						if err := tr.LogRedo(pid, before, after); err != nil {
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

		// Crash. Find what restart is entitled to rebuild — every page a
		// winner logged after the checkpoint, or at or after the page's recLSN
		// in it — and replace exactly those with garbage. A page only losers
		// logged since was never written since: restart leaves it be.
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
		winners := make(map[uint64]bool)
		crashed.Iterate(0, func(_ page.LSN, r *wal.Record) error {
			switch r.Type {
			case wal.TCommit:
				winners[r.Tx] = true
			case wal.TAbort:
				delete(winners, r.Tx)
			}
			return nil
		})
		from := make(map[page.ID]page.LSN)
		for _, e := range ckpt.DirtyPages {
			from[e.Page] = e.RecLSN
		}
		rebuilt := make(map[page.ID]bool)
		crashed.Iterate(0, func(lsn page.LSN, r *wal.Record) error {
			if start, listed := from[r.Page]; r.Type == wal.TRedo && winners[r.Tx] && (listed && lsn >= start || lsn > ckptLSN) {
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
