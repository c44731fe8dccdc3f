package tx

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"bess/internal/lock"
	"bess/internal/lockcheck"
	"bess/internal/page"
	"bess/internal/wal"
)

// nullBacking is a log device that keeps nothing: a log over it allocates
// only its own buffers.
type nullBacking struct{ size int64 }

func (b *nullBacking) WriteAt(p []byte, off int64) (int, error) {
	b.size = max(b.size, off+int64(len(p)))
	return len(p), nil
}
func (*nullBacking) ReadAt([]byte, int64) (int, error) { return 0, io.EOF }
func (*nullBacking) Sync() error                       { return nil }
func (*nullBacking) Close() error                      { return nil }
func (b *nullBacking) Size() int64                     { return b.size }

// nullPager is a page store that keeps nothing.
type nullPager struct{}

func (nullPager) ReadPage(_ page.ID, buf []byte) error { clear(buf); return nil }
func (nullPager) WriteRun([]wal.Logged, []byte) error  { return nil }

// TestLargeCommitAllocatesNoLogBuffer: a transaction of 8 MB of page changes
// spills at what one log buffer holds (wal.BufBody), so every record it logs
// fits a buffer of the log's own two, and its commit allocates no log buffer
// beyond them — what it does allocate, its own bookkeeping, stays under one.
func TestLargeCommitAllocatesNoLogBuffer(t *testing.T) {
	if lockcheck.Enabled {
		t.Skip("the instrumented locks allocate on every Lock")
	}
	l, err := wal.Open(&nullBacking{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	m := NewManager(l, lock.NewManager(), nullPager{}, nil)
	const pages = 8 << 20 / page.Size
	imgs := bytes.Repeat([]byte{0xA5}, pages*page.Size)
	commit := func() {
		tr := m.Begin()
		for i := 0; i < pages; i++ {
			if err := tr.LogRedo(page.ID{Area: 1, Page: page.No(i)}, nil, imgs[i*page.Size:(i+1)*page.Size]); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	commit() // the log's two buffers exist from here on
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	commit()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= wal.BufSize {
		t.Fatalf("an 8 MB transaction's commit allocated %d bytes, a log buffer's worth or more (%d)", got, wal.BufSize)
	}
	if st := l.Stats(); st.Syncs < 2 || st.WrittenAhead == 0 {
		t.Fatalf("log %+v: the transaction never passed the buffer set, or the writer wrote none of it", st)
	}
}
