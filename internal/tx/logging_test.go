package tx

import (
	"bytes"
	"errors"
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
	var rec *wal.Record
	stop := errors.New("read")
	if err := l.Iterate(lsn, func(_ page.LSN, r *wal.Record) error {
		rec = r
		return stop
	}); err != stop {
		t.Fatalf("no record at lsn %d (%v)", lsn, err)
	}
	return rec
}

// TestLogRedoRule is the table for the logging rule: which runs of bytes the
// change a commit record carries for a page holds, and when it is the whole
// page instead — a page's first commit after Open, and not after a checkpoint.
// Every step is a transaction of its own, whose one record is its commit.
func TestLogRedoRule(t *testing.T) {
	m, _, l, _ := newEnv()
	pid := page.ID{Area: 1, Page: 9}
	cur := make([]byte, page.Size) // the page as the transactions see it
	for i := range cur {
		cur[i] = byte(i * 7)
	}

	// step commits cur → cur with each edit applied in turn, one LogRedo
	// each, and checks the record: its changes are the page's runs want,
	// unless it is the page's anchor; none is a record of none.
	step := func(name string, want []run, anchor bool, edits ...func(img []byte)) {
		t.Helper()
		tr := m.Begin()
		next := l.NextLSN()
		for _, edit := range edits {
			after := append([]byte(nil), cur...)
			edit(after)
			if err := tr.LogRedo(pid, cur, after); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if l.NextLSN() != next {
				t.Fatalf("%s: LogRedo logged a record before the commit", name)
			}
			cur = after
		}
		if err := tr.Commit(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want == nil {
			if l.NextLSN() != next {
				t.Fatalf("%s: logged a record for an unchanged page", name)
			}
			return
		}
		rec := readRec(t, l, next)
		if anchor {
			want = whole
		}
		if rec.Type != wal.TCommit || len(rec.Changes) != len(want) || rec.Before != nil || tr.LastLSN() != next {
			t.Fatalf("%s: the commit logged a %v of %d changes, %d undo bytes; want %d runs", name, rec.Type, len(rec.Changes), len(rec.Before), len(want))
		}
		for i, r := range want {
			c := &rec.Changes[i]
			if c.Page != pid || int(c.Off) != r.lo || len(c.After) != r.hi-r.lo {
				t.Fatalf("%s: run %d redo off %d, %d bytes; want [%d, %d)", name, i, c.Off, len(c.After), r.lo, r.hi)
			}
			if !bytes.Equal(c.After, cur[r.lo:r.hi]) {
				t.Fatalf("%s: run %d's image is not the page's bytes at its range", name, i)
			}
		}
		if c := &rec.Changes[0]; c.WholePage() != (want[0] == whole[0]) {
			t.Fatalf("%s: WholePage() = %v", name, c.WholePage())
		}
	}
	runs := func(bounds ...int) []run {
		var rs []run
		for i := 0; i < len(bounds); i += 2 {
			rs = append(rs, run{bounds[i], bounds[i+1]})
		}
		return rs
	}
	flip := func(at ...int) func([]byte) {
		return func(img []byte) {
			for _, i := range at {
				img[i] ^= 0xFF
			}
		}
	}

	step("identical pages, never logged", nil, false, flip())
	step("first touch after open: anchor", runs(1000, 1001), true, flip(1000))
	step("identical pages", nil, false, flip())
	step("one byte", runs(77, 78), false, flip(77))
	step("first byte", runs(0, 1), false, flip(0))
	step("last byte", runs(page.Size-1, page.Size), false, flip(page.Size-1))
	step("two distant ranges: two runs", runs(100, 102, 3000, 3001), false, flip(100, 101, 3000))
	step("an equal stretch shorter than splitGap stays in its run", runs(200, 201+splitGap), false, flip(200, 200+splitGap))
	step("an equal stretch of splitGap bytes splits the run", runs(200, 201, 201+splitGap, 202+splitGap), false, flip(200, 201+splitGap))
	step("range not aligned to the compare stride", runs(13, 18), false, flip(13, 14, 15, 16, 17))
	step("two changes of one page in one transaction: the union of their runs", runs(300, 301, 2000, 2001), false, flip(2000), flip(300))
	step("two changes' runs closer than splitGap: one run", runs(500, 503), false, flip(500), flip(502))
	step("a change undone within the transaction still logs its range", runs(40, 41), false, flip(40), flip(40))
	step("whole page", runs(0, page.Size), false, func(img []byte) {
		for i := range img {
			img[i]++
		}
	})
	step("short tail: a change confined to the page's head", runs(0, 300), false, func(img []byte) {
		copy(img, bytes.Repeat([]byte{0x5A}, 300))
	})

	// A checkpoint leaves the anchors be: the page's is part of its history.
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	step("first touch after a checkpoint: delta", runs(2000, 2001), false, flip(2000))
	step("second touch after a checkpoint: delta", runs(2000, 2002), false, flip(2000, 2001))

	// A new manager over the same log is what a reopened server starts with.
	m = NewManager(l, lock.NewManager(), newMemPager(), nil)
	step("first touch after reopen: anchor", runs(5, 6), true, flip(5))
	step("second touch after reopen: delta", runs(5, 6), false, flip(5))

	if err := m.Begin().LogRedo(pid, cur[:100], cur[:100]); err == nil {
		t.Fatal("LogRedo accepted images shorter than a page")
	}
}

// TestLoggedRunsProperty: for random pages and random changes of them — runs
// of random length at random places, some an equal stretch apart shorter than
// a run's header — the runs a commit logs, laid over the page before, give the
// page after, and they never take more log bytes than the one span from the
// first differing byte to the last would.
func TestLoggedRunsProperty(t *testing.T) {
	m, _, l, _ := newEnv()
	rng := rand.New(rand.NewSource(39))
	pid := page.ID{Area: 1, Page: 1}
	before := make([]byte, page.Size)
	rng.Read(before)
	anchor := m.Begin() // the page's anchor: its changes after it are runs
	if err := anchor.LogRedo(pid, make([]byte, page.Size), before); err != nil {
		t.Fatal(err)
	}
	if err := anchor.Commit(); err != nil {
		t.Fatal(err)
	}
	trials := 400
	if testing.Short() {
		trials = 100
	}
	for i := 0; i < trials; i++ {
		after := bytes.Clone(before)
		for n := 1 + rng.Intn(8); n > 0; n-- {
			off := rng.Intn(page.Size)
			for j := off; j < min(page.Size, off+1+rng.Intn(64)); j += 1 + rng.Intn(2*splitGap)*rng.Intn(2) {
				after[j] ^= byte(1 + rng.Intn(255))
			}
		}
		tr, next := m.Begin(), l.NextLSN()
		if err := tr.LogRedo(pid, before, after); err != nil {
			t.Fatal(err)
		}
		if err := tr.Commit(); err != nil {
			t.Fatal(err)
		}
		rec := readRec(t, l, next)
		got := bytes.Clone(before)
		for _, c := range rec.Changes {
			copy(got[c.Off:], c.After)
		}
		if !bytes.Equal(got, after) {
			t.Fatalf("trial %d: the %d runs logged over the page before do not give the page after", i, len(rec.Changes))
		}
		lo, hi := 0, page.Size
		for before[lo] == after[lo] {
			lo++
		}
		for before[hi-1] == after[hi-1] {
			hi--
		}
		runs := wal.Record{Type: wal.TCommit, Tx: rec.Tx, Changes: rec.Changes}
		span := wal.Record{Type: wal.TCommit, Tx: rec.Tx, Changes: []wal.Change{{Page: pid, Off: uint32(lo), After: after[lo:hi]}}}
		if r, s := runs.Footprint(), span.Footprint(); r.Header+r.After > s.Header+s.After {
			t.Fatalf("trial %d: %d runs take %d log bytes, the span [%d, %d) %d", i, len(rec.Changes), r.Header+r.After, lo, hi, s.Header+s.After)
		}
		before = after
	}
}

// TestNothingLoggedNothingForced: a transaction with nothing in the log
// commits and aborts without a record or a log force — also one whose changes
// were only queued, which its abort drops; locks release, and only the abort
// hook fires: nothing is published at a stamp.
func TestNothingLoggedNothingForced(t *testing.T) {
	m, _, l, _ := newEnv()
	var committed, unstaged []uint64
	var stamps []page.LSN
	m.SetCommitHook(func(id uint64, lsn page.LSN) {
		committed = append(committed, id)
		stamps = append(stamps, lsn)
	})
	m.SetAbortHook(func(id uint64) { unstaged = append(unstaged, id) })
	w := m.Begin()
	ship(t, w, newMemPager(), page.ID{Area: 1, Page: 1}, 0, []byte("x"))
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	next, syncs := l.NextLSN(), l.Stats().Syncs
	if len(stamps) != 1 || stamps[0] == 0 || stamps[0] >= next {
		t.Fatalf("the logged commit published at %v, want one stamp below %d", stamps, next)
	}

	name := lock.PageName(1, 10, 0)
	queuedThenAbort := func(tr *Tx) error {
		ship(t, tr, newMemPager(), page.ID{Area: 1, Page: 2}, 0, []byte("queued"))
		return tr.Abort()
	}
	for _, end := range []func(*Tx) error{(*Tx).Commit, (*Tx).Abort, queuedThenAbort} {
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
	if c, a := m.Counts(); c != 2 || a != 2 || live(m) != 0 {
		t.Fatalf("commits %d, aborts %d, active %d", c, a, live(m))
	}
	// Every ending drops what the transaction staged; none publishes.
	if len(committed) != 1 || len(unstaged) != 3 {
		t.Fatalf("commit hook ran for %v at %v, abort hook for %v", committed, stamps, unstaged)
	}
	// A checkpoint has nothing to say about a transaction the log never saw,
	// nor about changes still queued.
	idle := m.Begin()
	ship(t, idle, newMemPager(), page.ID{Area: 1, Page: 3}, 0, []byte("queued"))
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

func (p *lockedPager) WriteRun(proofs []wal.Logged, data []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.p.WriteRun(proofs, data)
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
			if !winners[r.Tx] && r.Type != wal.TAbort {
				return nil
			}
			for _, c := range r.Changes {
				if start, listed := from[c.Page]; listed && lsn >= start || lsn > ckptLSN {
					rebuilt[c.Page] = true
				}
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
