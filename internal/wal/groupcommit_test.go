package wal

import (
	"sync"
	"testing"
	"time"

	"bess/internal/page"
)

// slowSync injects latency into Sync so concurrent committers overlap and
// the group-commit path is exercised deterministically.
type slowSync struct {
	*memBacking
	delay time.Duration
}

func (b *slowSync) Sync() error {
	time.Sleep(b.delay)
	return nil
}

func TestGroupCommitSharesSyncs(t *testing.T) {
	l := &Log{back: &slowSync{memBacking: &memBacking{}, delay: time.Millisecond}}
	if err := l.init(); err != nil {
		t.Fatal(err)
	}
	const goroutines, commits = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < commits; i++ {
				lsn, err := l.Append(&Record{Type: TCommit, Tx: uint64(g*commits + i + 1)})
				if err != nil {
					errs <- err
					return
				}
				if err := l.Flush(lsn); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Flushes != goroutines*commits {
		t.Fatalf("flushes = %d, want %d", st.Flushes, goroutines*commits)
	}
	if st.Syncs >= st.Flushes {
		t.Fatalf("no grouping: syncs=%d flushes=%d", st.Syncs, st.Flushes)
	}
	if st.GroupedCommits == 0 {
		t.Fatal("no grouped commits recorded")
	}
	// A force is covered by another's round or leads its own, never both.
	if st.Syncs+st.GroupedCommits > st.Flushes {
		t.Fatalf("syncs %d + grouped %d > flushes %d: a force that led its own round was counted as grouped", st.Syncs, st.GroupedCommits, st.Flushes)
	}
	if flushedLSN(l) != l.NextLSN() {
		t.Fatalf("tail left unflushed: flushed=%d next=%d", flushedLSN(l), l.NextLSN())
	}
	// Every record survived the concurrent flushing intact.
	var n int64
	if err := l.Iterate(0, func(page.LSN, *Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != st.Appends {
		t.Fatalf("iterated %d of %d records", n, st.Appends)
	}
}

// Regression for the early-return boundary: forcing an LSN that is already
// durable must be a no-op even when later records are buffered — it must
// neither advance the durable frontier nor pay another sync.
func TestFlushAlreadyDurableNoResync(t *testing.T) {
	l := NewMem()
	l1, err := l.Append(&Record{Type: TCommit, Tx: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(l1); err != nil {
		t.Fatal(err)
	}
	syncs := l.Stats().Syncs
	durable := flushedLSN(l)
	if _, err := l.Append(&Record{Type: TCommit, Tx: 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(l1); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Syncs; got != syncs {
		t.Fatalf("re-synced an already-durable LSN: syncs %d -> %d", syncs, got)
	}
	if flushedLSN(l) != durable {
		t.Fatalf("durable frontier moved: %d -> %d", durable, flushedLSN(l))
	}
	// The record appended after the force is still only buffered; a real
	// force picks it up.
	if err := l.Flush(0); err != nil {
		t.Fatal(err)
	}
	if flushedLSN(l) == durable {
		t.Fatal("tail never flushed")
	}
}

// A commit record whose LSN equals the durable frontier (everything before
// it is durable, the record itself is not) must still be forced — the
// boundary fix must not trade away commit durability.
func TestFlushFirstUnflushedRecordForces(t *testing.T) {
	l := NewMem()
	if _, err := l.Append(&Record{Type: TCommit, Tx: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(0); err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Append(&Record{Type: TCommit, Tx: 2}) // lsn == flushedLSN(l)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != flushedLSN(l) {
		t.Fatalf("test setup: lsn=%d flushed=%d", lsn, flushedLSN(l))
	}
	if err := l.Flush(lsn); err != nil {
		t.Fatal(err)
	}
	if flushedLSN(l) <= lsn {
		t.Fatalf("commit record at the durable frontier not forced: flushed=%d", flushedLSN(l))
	}
}

// flushedLSN is l's durable frontier: the first LSN a crash would lose.
func flushedLSN(l *Log) page.LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushed
}
