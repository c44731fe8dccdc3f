package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bess/internal/lockcheck"
	"bess/internal/page"
)

// appendShapes are the record shapes the logging rule produces — a commit of a
// byte range, of an anchor (the whole page) and of the anchor of a zeroed
// page, which the log keeps as a length, a spill of many pages and a page
// change in several runs — and the update record with both halves that the
// benchmark module's log probe appends.
type appendShape struct {
	name string
	rec  *Record
}

func appendShapes() []appendShape {
	pid := page.ID{Area: 1, Page: 7}
	img := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	spill := make([]Change, 64)
	for i := range spill {
		spill[i] = Change{Page: page.ID{Area: 1, Page: page.No(i)}, After: img(page.Size, 0xAB)}
	}
	return []appendShape{
		{"128B", &Record{Type: TCommit, Tx: 1, Changes: []Change{{Page: pid, Off: 640, After: img(128, 0xAB)}}}},
		{"anchor", &Record{Type: TCommit, Tx: 1, Changes: []Change{{Page: pid, After: img(page.Size, 0xAB)}}}},
		{"zeroed", &Record{Type: TCommit, Tx: 1, Changes: []Change{{Page: pid, After: make([]byte, page.Size)}}}},
		{"spill of 64 pages", &Record{Type: TRedo, Tx: 1, Changes: spill}},
		{"a page in three runs", &Record{Type: TCommit, Tx: 1, Changes: []Change{
			{Page: pid, Off: 0, After: img(1, 0xAB)}, {Page: pid, Off: 16, After: img(112, 0xAB)}, {Page: pid, Off: 2048, After: make([]byte, 128)},
		}}},
		{"8KB update", &Record{Type: TUpdate, Tx: 1, Page: pid, After: img(page.Size, 0xAB), Before: img(page.Size, 0xCD)}},
	}
}

// TestAppendAllocatesNothing: Append encodes in place, into a buffer the log
// already owns — no allocation for any record shape — and keeps no reference
// to the caller's slices.
func TestAppendAllocatesNothing(t *testing.T) {
	l := NewMem()
	defer l.Close()
	pid := page.ID{Area: 1, Page: 7}
	shapes := appendShapes()
	if lockcheck.Enabled {
		shapes = nil // the instrumented Log.mu allocates on every Lock
	}
	for _, sh := range shapes {
		rec := sh.rec
		// Warm up: the buffer exists, and it is empty, so the measured appends
		// fit it and none of them leads a round into the growing mem backing.
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(0); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(200, func() {
			if _, err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s record: %v allocations per append, want 0", sh.name, got)
		}
	}
	after := []byte("after-image")
	lsn, err := l.Append(&Record{Type: TUpdate, Tx: 2, Page: pid, Before: []byte("before"), After: after})
	if err != nil {
		t.Fatal(err)
	}
	copy(after, "scribbled!!")
	if err := l.Flush(lsn); err != nil {
		t.Fatal(err)
	}
	rec := readRec(t, l, lsn)
	if string(rec.After) != "after-image" || string(rec.Before) != "before" {
		t.Fatalf("log kept the caller's memory: %q / %q", rec.Before, rec.After)
	}
}

// encodedLen and appendTo are the codec the plain way, one record body at a
// time, as the record at lsn: Append does the same with one look at the images
// for both.
func (r *Record) encodedLen(lsn page.LSN) int {
	tail, _ := r.tailSize()
	return r.sizeAt(lsn, tail)
}

func (r *Record) appendTo(b []byte, lsn page.LSN) []byte { return r.encode(b, lsn) }

// serialEncoding is the log format written the plain way: one record after
// another, each encoded at the offset it lands at, behind its CRC and length.
func serialEncoding(img []byte, rec *Record) []byte {
	body := rec.appendTo(nil, page.LSN(len(img)))
	framed := append(binary.AppendUvarint(nil, uint64(len(body))), body...)
	img = binary.BigEndian.AppendUint32(img, page.Checksum(framed))
	return append(img, framed...)
}

// TestLogBytesIdenticalToSerialEncoding: the log buffer decides where bytes
// wait, never what they are. A seeded history of mixed record sizes — enough
// of it that records meet the end of a buffer at many fills, and one record
// larger than a buffer — flushed at random points, leaves a file byte-identical
// to the concatenation of the records' encodings, each at the LSN that gives:
// the references to earlier records each stores as a distance back from there
// included.
func TestLogBytesIdenticalToSerialEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	l := NewMem()
	defer l.Close()
	want := append([]byte(nil), logMagic...)
	pid := page.ID{Area: 2, Page: 9}
	blob := make([]byte, logBufSize+logBufSize/4)
	rng.Read(blob)
	add := func(rec *Record) {
		t.Helper()
		lsn, err := l.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		if int(lsn) != len(want) {
			t.Fatalf("record %d got LSN %d, serial offset %d", l.Stats().Appends, lsn, len(want))
		}
		want = serialEncoding(want, rec)
	}
	// An earlier LSN, or none: any number below the end of the log is one a
	// record can refer to.
	earlier := func() page.LSN { return page.LSN(rng.Intn(len(want))) }
	tx := func() uint64 { return rng.Uint64() >> rng.Intn(64) }
	total := 5 * logBufs * logBufSize
	oversizeAt := total / 2
	for len(want) < total {
		switch k := rng.Intn(10); {
		case oversizeAt > 0 && len(want) > oversizeAt:
			oversizeAt = 0
			add(&Record{Type: TCatalog, Body: blob})
		case k == 0:
			add(&Record{Type: TCommit, Tx: tx(), PrevLSN: earlier()})
		case k == 1:
			dirty := make([]CkptPage, rng.Intn(3000))
			for i := range dirty {
				dirty[i] = CkptPage{Page: page.ID{Area: page.AreaID(rng.Intn(4)), Page: page.No(rng.Intn(1 << 20))}, RecLSN: earlier()}
			}
			add(&Record{Type: TCheckpoint, DirtyPages: dirty})
		case k == 2:
			add(&Record{Type: TCatalog, Body: blob[:rng.Intn(logBufSize/3)]})
		case k < 6:
			off := rng.Intn(page.Size - 128)
			add(&Record{Type: TCommit, Tx: tx(), PrevLSN: earlier(), Changes: []Change{{Page: pid, Off: uint32(off), After: blob[off+1 : off+129]}}})
		default:
			add(&Record{Type: TUpdate, Tx: 4, Page: pid, Before: blob[:page.Size], After: blob[page.Size : 2*page.Size]})
		}
		if rng.Intn(300) == 0 {
			if err := l.Flush(0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if oversizeAt != 0 {
		t.Fatal("the oversize record was never appended")
	}
	if err := l.Flush(0); err != nil {
		t.Fatal(err)
	}
	if got := l.DurableBytes(); !bytes.Equal(got, want) {
		t.Fatalf("log image (%d bytes) differs from the serial encoding (%d bytes)", len(got), len(want))
	}
	if st := l.Stats(); st.Syncs < 5 {
		t.Fatalf("%d sync rounds for %d buffer sets of log: appenders were never held back", st.Syncs, total/(logBufs*logBufSize))
	}
	for i, b := range l.bufs {
		if cap(b) > logBufSize {
			t.Fatalf("slot %d kept the oversize record's %d-byte buffer", i, cap(b))
		}
	}
}

// flakyBacking fails a seeded share of its writes and syncs, and remembers how
// far the file was written when a sync last succeeded.
type flakyBacking struct {
	memBacking
	rng     *rand.Rand   // the round leader's, like every write and sync: one round at a time
	written atomic.Int64 // the end of the furthest write
	synced  atomic.Int64 // written, as of the last sync that succeeded
}

var errFlaky = errors.New("flaky backing: injected error")

func (b *flakyBacking) fail() bool { return b.rng.Intn(5) == 0 }

func (b *flakyBacking) WriteAt(p []byte, off int64) (int, error) {
	if b.fail() {
		return 0, errFlaky
	}
	if end := off + int64(len(p)); end > b.written.Load() {
		b.written.Store(end)
	}
	return b.memBacking.WriteAt(p, off)
}

func (b *flakyBacking) Sync() error {
	time.Sleep(100 * time.Microsecond) // a device slower than memory: appenders fill buffers behind a round
	if b.fail() {
		return errFlaky
	}
	b.synced.Store(b.written.Load())
	return nil
}

// TestLogBufferStress: appenders, flushers and a checkpointer share one log
// over a backing that fails every fifth write or sync. Every append that
// returned an LSN is in the log exactly once with its own bytes, every
// acknowledged force was covered by a sync that succeeded, a failed append
// took no LSN, and the log never holds more than its fixed buffers.
func TestLogBufferStress(t *testing.T) {
	appenders, perAppender := 4, 120
	if testing.Short() {
		perAppender = 40
	}
	back := &flakyBacking{rng: rand.New(rand.NewSource(5))}
	l, err := Open(back)
	for err != nil { // creating the file can meet an injected error too
		l, err = Open(back)
	}
	type appended struct {
		lsn        page.LSN
		g, i, size int
	}
	got := make([][]appended, appenders)
	payload := func(g, i, size int) []byte {
		return bytes.Repeat([]byte{byte(g*31 + i)}, size)
	}
	stop := make(chan struct{})
	var work, helpers sync.WaitGroup
	for g := 0; g < appenders; g++ {
		work.Add(1)
		go func(g int) {
			defer work.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perAppender; i++ {
				size := 64 << rng.Intn(15) // 64 B .. 1 MB
				rec := &Record{Type: TCatalog, Tx: uint64(g + 1), PrevLSN: page.LSN(i), Body: payload(g, i, size)}
				lsn, err := l.Append(rec)
				for err != nil { // a full log buffer led a round, and the round failed
					if !errors.Is(err, errFlaky) {
						t.Errorf("append: %v", err)
						return
					}
					lsn, err = l.Append(rec)
				}
				got[g] = append(got[g], appended{lsn, g, i, size})
				if rng.Intn(16) > 0 {
					continue
				}
				if err := l.Flush(lsn); err == nil {
					if end := int64(lsn) + int64(frameSize(rec.encodedLen(lsn))); back.synced.Load() < end {
						t.Errorf("force of lsn %d acknowledged with %d bytes synced, record ends at %d", lsn, back.synced.Load(), end)
					}
				} else if !errors.Is(err, errFlaky) {
					t.Errorf("flush: %v", err)
				}
			}
		}(g)
	}
	// Flushers and the checkpointer act once per so many bytes of new log, so
	// that between their rounds the appenders fill buffers and lead rounds of
	// their own; between turns they poll.
	every := func(bytes page.LSN, act func()) {
		helpers.Add(1)
		go func() {
			defer helpers.Done()
			for last := page.LSN(0); ; {
				select {
				case <-stop:
					return
				default:
				}
				if next := l.NextLSN(); next-last >= bytes {
					last = next
					act()
				} else {
					runtime.Gosched()
				}
			}
		}()
	}
	flush := func() {
		if err := l.Flush(0); err != nil && !errors.Is(err, errFlaky) {
			t.Errorf("flush: %v", err)
		}
	}
	every(3<<20, flush)
	every(5<<20, flush)
	every(1<<20, func() {
		if _, err := Checkpoint(l, make([]CkptPage, 500)); err != nil && !errors.Is(err, errFlaky) {
			t.Errorf("checkpoint: %v", err)
		}
		l.mu.Lock()
		defer l.mu.Unlock()
		for i, b := range l.bufs {
			if cap(b) != 0 && cap(b) != logBufSize {
				t.Errorf("slot %d holds a %d-byte buffer", i, cap(b))
			}
		}
		if buffered := l.nextLSN - l.flushed; buffered > logBufs*logBufSize {
			t.Errorf("%d bytes buffered, the set holds %d", buffered, logBufs*logBufSize)
		}
	})
	work.Wait()
	close(stop)
	helpers.Wait()
	for l.Flush(0) != nil {
	}

	// Every handed-out LSN starts exactly one record, the one appended there.
	want := make(map[page.LSN]appended)
	for g := range got {
		for _, a := range got[g] {
			if _, dup := want[a.lsn]; dup {
				t.Fatalf("lsn %d handed out twice", a.lsn)
			}
			want[a.lsn] = a
		}
	}
	if err := l.Iterate(0, func(lsn page.LSN, rec *Record) error {
		if rec.Type != TCatalog {
			return nil
		}
		a, ok := want[lsn]
		if !ok {
			t.Fatalf("record at %d was never acknowledged to an appender", lsn)
		}
		delete(want, lsn)
		if rec.Tx != uint64(a.g+1) || rec.PrevLSN != page.LSN(a.i) || !bytes.Equal(rec.Body, payload(a.g, a.i, a.size)) {
			t.Fatalf("record at %d is not appender %d's record %d", lsn, a.g, a.i)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(want) != 0 {
		t.Fatalf("%d appended records are not in the log", len(want))
	}
	if _, err := l.Verify(); err != nil {
		t.Fatal(err)
	}
	for l.Close() != nil {
	}
}

// TestReopenCutsDeadTail: a crash can leave a later record of the lost tail
// intact on the platter. r3 is broken, r4 behind it is whole; the reopened log
// ends at r3, and a new record of r3's length ends exactly where r4 starts. The
// next open must not walk into r4.
func TestReopenCutsDeadTail(t *testing.T) {
	l := NewMem()
	var lsns []page.LSN
	for tx := uint64(1); tx <= 4; tx++ {
		lsn, err := l.Append(upd(tx, 0, page.ID{Area: 1, Page: page.No(tx)}, 0, "after!"))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if err := l.Flush(0); err != nil {
		t.Fatal(err)
	}
	img := l.DurableBytes()
	l.Close()
	// The sector holding r3's CRC and length never made it.
	for i := 0; i < crcSize+1; i++ {
		img[int(lsns[2])+i] = 0xA5
	}

	txs := func(l *Log) (got []uint64) {
		t.Helper()
		if err := l.Iterate(0, func(_ page.LSN, rec *Record) error {
			got = append(got, rec.Tx)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	l2, err := OpenMemFrom(img)
	if err != nil {
		t.Fatal(err)
	}
	if got := txs(l2); len(got) != 2 {
		t.Fatalf("reopened log holds %v, want r1 r2", got)
	}
	n3, err := l2.Append(upd(9, 0, page.ID{Area: 1, Page: 3}, 0, "after!"))
	if err != nil {
		t.Fatal(err)
	}
	if n3 != lsns[2] || l2.NextLSN() != lsns[3] {
		t.Fatalf("n3 at %d..%d, want r3's extent %d..%d", n3, l2.NextLSN(), lsns[2], lsns[3])
	}
	if err := l2.Flush(0); err != nil {
		t.Fatal(err)
	}
	img = l2.back.(*memBacking).buf
	l2.Close()

	l3, err := OpenMemFrom(img)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if got := txs(l3); len(got) != 3 || got[2] != 9 {
		t.Fatalf("after the second reopen the log holds %v, want r1 r2 n3: r4 came back from the dead tail", got)
	}
	if _, err := l3.Verify(); err != nil {
		t.Fatal(err)
	}
}

// discard is a backing that keeps nothing: BenchmarkAppend's rounds cost a
// call, not a growing image.
type discard struct{ memBacking }

func (*discard) WriteAt(p []byte, _ int64) (int, error) { return len(p), nil }

// BenchmarkAppend measures the append path alone — reserve, encode in place,
// CRC — in MB of log per second, for each shape of update record.
func BenchmarkAppend(b *testing.B) {
	for _, bc := range appendShapes() {
		b.Run(bc.name, func(b *testing.B) {
			l, err := Open(&discard{})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			rec := bc.rec
			b.SetBytes(int64(frameSize(rec.encodedLen(firstLSN))))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
