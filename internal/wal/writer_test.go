package wal

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"bess/internal/page"
)

// deviceOp is one call a log made on its backing: a write, a writeback hint
// or a sync.
type deviceOp struct {
	op       string
	off, len int64
}

// recordingBacking is a memory backing that records every write, hint and
// sync it is given, in order.
type recordingBacking struct {
	memBacking
	mu  sync.Mutex
	ops []deviceOp
}

func (b *recordingBacking) note(op string, off, n int64) {
	b.mu.Lock()
	b.ops = append(b.ops, deviceOp{op, off, n})
	b.mu.Unlock()
}

func (b *recordingBacking) WriteAt(p []byte, off int64) (int, error) {
	b.note("write", off, int64(len(p)))
	return b.memBacking.WriteAt(p, off)
}

func (b *recordingBacking) Sync() error {
	b.note("sync", 0, 0)
	return nil
}

func (b *recordingBacking) StartWriteback(off, n int64) { b.note("hint", off, n) }

// writerScript appends a fixed, seeded mix of records — from 64 B to past a
// log buffer, so that appends complete chunks one at a time and several at
// once, records span chunks and buffers, and appenders lead rounds of their
// own — and forces the log now and then, as one goroutine. It returns what
// the backing was asked to do, and the log's counters.
func writerScript(t *testing.T) ([]deviceOp, LogStats) {
	t.Helper()
	back := &recordingBacking{}
	l, err := Open(back)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	body := make([]byte, logBufSize+logBufSize/4)
	var lsns []page.LSN
	for i := 0; i < 60; i++ {
		size := 64 << rng.Intn(16) // 64 B .. 2 MB
		if i%17 == 16 {
			size = len(body) // a record larger than a buffer: a buffer of its own
		}
		lsn, err := l.Append(&Record{Type: TCatalog, Tx: uint64(i + 1), Body: body[:size]})
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
		if rng.Intn(4) == 0 {
			if err := l.Flush(lsn); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	back.mu.Lock()
	defer back.mu.Unlock()
	return slices.Clone(back.ops), st
}

// TestLogWriterIsDeterministic: the same appends and forces give the backing
// the same writes, hints and syncs, in the same order, every time and at any
// GOMAXPROCS — the log writer and the rounds take turns on the device, and
// what each writes is a function of the bytes appended. And the writer does
// the bulk of it: each chunk it writes ends on a chunk boundary and is hinted,
// and a round's own writes are a tail shorter than a chunk.
func TestLogWriterIsDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first []deviceOp
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for run := 0; run < 3; run++ {
			ops, st := writerScript(t)
			if first == nil {
				first = ops
				checkWriterOps(t, ops, st)
				continue
			}
			if !slices.Equal(ops, first) {
				i := 0
				for i < min(len(ops), len(first)) && ops[i] == first[i] {
					i++
				}
				t.Fatalf("GOMAXPROCS %d, run %d: %d device calls, the first run %d; they part at call %d: %s",
					procs, run, len(ops), len(first), i, describeOps(ops, first, i))
			}
		}
	}
}

// checkWriterOps checks what the writer and the rounds wrote: the writer a
// chunk at a time, each hinted, the rounds each a tail below a chunk; and
// every byte of the log once.
func checkWriterOps(t *testing.T, ops []deviceOp, st LogStats) {
	t.Helper()
	var ahead, tail int64
	end := int64(firstLSN)
	for i, op := range ops {
		switch op.op {
		case "hint":
			if (op.off+op.len)%chunkSize != 0 || op.len > chunkSize || op.len == 0 {
				t.Fatalf("call %d: a hint of [%d, %d), not a chunk's", i, op.off, op.off+op.len)
			}
			ahead += op.len
		case "write":
			if op.off == 0 {
				continue // the file header
			}
			if op.off != end {
				t.Fatalf("call %d: a write at %d, the log written to %d", i, op.off, end)
			}
			end += op.len
			if i+1 < len(ops) && ops[i+1].op == "hint" || i+2 < len(ops) && ops[i+1].op == "write" && ops[i+2].op == "hint" {
				continue // the writer's, a piece per buffer the chunk spans
			}
			tail += op.len
		case "sync":
			if tail >= chunkSize {
				t.Fatalf("call %d: a round wrote %d bytes itself, a chunk or more", i, tail)
			}
			tail = 0
		}
	}
	if ahead == 0 || ahead != st.WrittenAhead {
		t.Fatalf("the writer hinted %d bytes and counts %d written ahead, want the same and more than none", ahead, st.WrittenAhead)
	}
	t.Logf("%d device calls, %d syncs: %d of %d bytes written ahead of their force", len(ops), st.Syncs, ahead, end)
}

func describeOps(a, b []deviceOp, i int) string {
	at := func(ops []deviceOp) string {
		if i < len(ops) {
			return fmt.Sprint(ops[i])
		}
		return "none"
	}
	return at(a) + " against " + at(b)
}
