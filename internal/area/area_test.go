package area

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"bess/internal/page"
)

func TestMemCreateGeometry(t *testing.T) {
	a, err := NewMem(7, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() != 7 {
		t.Fatalf("ID = %d", a.ID())
	}
	if a.Extents() != 2 {
		t.Fatalf("Extents = %d, want 2", a.Extents())
	}
	if a.Pages() != page.No(1+2*page.PerExtent) {
		t.Fatalf("Pages = %d", a.Pages())
	}
	if a.growable {
		t.Fatal("non-growable area is growable")
	}
}

func TestReadWritePage(t *testing.T) {
	a, _ := NewMem(1, 1, false)
	start, granted, err := a.AllocSegment(1)
	if err != nil {
		t.Fatal(err)
	}
	if granted != 1 {
		t.Fatalf("granted = %d", granted)
	}
	data := make([]byte, page.Size)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if err := a.WritePage(start, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, page.Size)
	if err := a.ReadPage(start, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("page round trip mismatch")
	}
}

func TestPageBufferSizeChecked(t *testing.T) {
	a, _ := NewMem(1, 1, false)
	if err := a.ReadPage(1, make([]byte, 10)); err == nil {
		t.Fatal("short read buffer accepted")
	}
	if err := a.WritePage(1, make([]byte, 10)); err == nil {
		t.Fatal("short write buffer accepted")
	}
}

func TestOutOfRange(t *testing.T) {
	a, _ := NewMem(1, 1, false)
	buf := make([]byte, page.Size)
	if err := a.ReadPage(a.Pages(), buf); err != ErrOutOfRange {
		t.Fatalf("read past end: %v", err)
	}
	if err := a.ReadPage(-1, buf); err != ErrOutOfRange {
		t.Fatalf("read negative: %v", err)
	}
	if err := a.WritePage(a.Pages()+5, buf); err != ErrOutOfRange {
		t.Fatalf("write past end: %v", err)
	}
}

func TestAllocSegmentBounds(t *testing.T) {
	a, _ := NewMem(1, 1, false)
	if _, _, err := a.AllocSegment(0); err == nil {
		t.Fatal("AllocSegment(0) accepted")
	}
	if _, _, err := a.AllocSegment(MaxSegmentPages + 1); err != ErrTooLarge {
		t.Fatalf("oversized segment: %v", err)
	}
}

func TestNonGrowableExhaustion(t *testing.T) {
	a, _ := NewMem(1, 1, false)
	for {
		_, _, err := a.AllocSegment(MaxSegmentPages)
		if err == ErrNoSpace {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestGrowableExpands(t *testing.T) {
	a, _ := NewMem(1, 1, true)
	before := a.Extents()
	var starts []page.No
	for i := 0; i < 5; i++ {
		s, _, err := a.AllocSegment(MaxSegmentPages)
		if err != nil {
			t.Fatal(err)
		}
		starts = append(starts, s)
	}
	if a.Extents() <= before {
		t.Fatalf("area did not grow: extents %d -> %d", before, a.Extents())
	}
	seen := map[page.No]bool{}
	for _, s := range starts {
		if seen[s] {
			t.Fatalf("duplicate segment start %d", s)
		}
		seen[s] = true
	}
	if grows := a.Stats().Grows; grows < 2 {
		t.Fatalf("grows = %d", grows)
	}
}

func TestFreeSegment(t *testing.T) {
	a, _ := NewMem(1, 1, false)
	s, granted, err := a.AllocSegment(8)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := segmentPages(a, s); !ok || n != granted {
		t.Fatalf("segmentPages = (%d,%v)", n, ok)
	}
	if err := a.FreeSegment(s); err != nil {
		t.Fatal(err)
	}
	if _, ok := segmentPages(a, s); ok {
		t.Fatal("freed segment still live")
	}
	if err := a.FreeSegment(s); err != ErrNotSegment {
		t.Fatalf("double free: %v", err)
	}
	if err := a.FreeSegment(0); err != ErrOutOfRange {
		t.Fatalf("free header page: %v", err)
	}
}

func TestFilePersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "area.bess")
	a, err := CreateFile(path, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	type seg struct {
		start page.No
		n     int
	}
	var segs []seg
	for i := 0; i < 10; i++ {
		s, n, err := a.AllocSegment(1 + i%7)
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, seg{s, n})
		data := make([]byte, page.Size)
		data[0] = byte(i + 1)
		if err := a.WritePage(s, data); err != nil {
			t.Fatal(err)
		}
	}
	// Free a couple so the persisted map has holes.
	if err := a.FreeSegment(segs[3].start); err != nil {
		t.Fatal(err)
	}
	if err := a.FreeSegment(segs[7].start); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.ID() != 42 {
		t.Fatalf("reopened ID = %d", b.ID())
	}
	for i, sg := range segs {
		n, ok := segmentPages(b, sg.start)
		if i == 3 || i == 7 {
			if ok {
				t.Fatalf("segment %d should be free after reopen", i)
			}
			continue
		}
		if !ok || n != sg.n {
			t.Fatalf("segment %d: (%d,%v), want (%d,true)", i, n, ok, sg.n)
		}
		buf := make([]byte, page.Size)
		if err := b.ReadPage(sg.start, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i+1) {
			t.Fatalf("segment %d data byte = %d", i, buf[0])
		}
	}
	// New allocations must not overlap surviving segments.
	s, n, err := b.AllocSegment(4)
	if err != nil {
		t.Fatal(err)
	}
	for i, sg := range segs {
		if i == 3 || i == 7 {
			continue
		}
		if s < sg.start+page.No(sg.n) && sg.start < s+page.No(n) {
			t.Fatalf("new segment [%d,%d) overlaps old [%d,%d)", s, s+page.No(n), sg.start, sg.start+page.No(sg.n))
		}
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bogus")
	a, err := CreateFile(path, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	// Corrupt the magic.
	b, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	f, _ := openRaw(path)
	f.WriteAt([]byte{0, 0, 0, 0}, 0)
	f.Close()
	if _, err := OpenFile(path); err != ErrBadMagic {
		t.Fatalf("corrupt open: %v", err)
	}
}

func TestClosedErrors(t *testing.T) {
	a, _ := NewMem(1, 1, false)
	a.Close()
	buf := make([]byte, page.Size)
	if err := a.ReadPage(1, buf); err != ErrClosed {
		t.Fatalf("read after close: %v", err)
	}
	if _, _, err := a.AllocSegment(1); err != ErrClosed {
		t.Fatalf("alloc after close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestRandomAllocFreeNoOverlapMem(t *testing.T) {
	a, _ := NewMem(1, 2, true)
	rng := rand.New(rand.NewSource(7))
	type seg struct {
		start page.No
		n     int
	}
	var live []seg
	for i := 0; i < 500; i++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			j := rng.Intn(len(live))
			if err := a.FreeSegment(live[j].start); err != nil {
				t.Fatal(err)
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		s, n, err := a.AllocSegment(1 + rng.Intn(32))
		if err != nil {
			t.Fatal(err)
		}
		for _, sg := range live {
			if s < sg.start+page.No(sg.n) && sg.start < s+page.No(n) {
				t.Fatalf("overlap: [%d,%d) vs [%d,%d)", s, s+page.No(n), sg.start, sg.start+page.No(sg.n))
			}
		}
		live = append(live, seg{s, n})
	}
}

// TestReadRun pins ReadRun against the per-page reference: a run read is
// byte-for-byte n ReadPage calls, counts n reads, and rejects every
// malformed request before touching the store.
func TestReadRun(t *testing.T) {
	mem, err := NewMem(1, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	file, err := CreateFile(filepath.Join(t.TempDir(), "run.area"), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range map[string]*Area{"mem": mem, "file": file} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(12))
			limit := a.Pages()
			pg := make([]byte, page.Size)
			for p := page.No(0); p < limit; p++ {
				rng.Read(pg)
				if err := a.WritePage(p, pg); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 200; i++ {
				n := 1 + rng.Intn(MaxSegmentPages)
				start := page.No(rng.Int63n(int64(limit) - int64(n) + 1))
				reads0 := a.Stats().Reads
				run := make([]byte, n*page.Size)
				if err := a.ReadRun(start, run); err != nil {
					t.Fatalf("ReadRun(%d, %d pages): %v", start, n, err)
				}
				if reads1 := a.Stats().Reads; reads1-reads0 != int64(n) {
					t.Fatalf("Stats reads advanced by %d for a %d-page run", reads1-reads0, n)
				}
				for j := 0; j < n; j++ {
					if err := a.ReadPage(start+page.No(j), pg); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(run[j*page.Size:(j+1)*page.Size], pg) {
						t.Fatalf("run at %d: page %d differs from ReadPage", start, j)
					}
				}
			}

			two := make([]byte, 2*page.Size)
			if err := a.ReadRun(limit-2, two); err != nil {
				t.Fatalf("run ending at the limit: %v", err)
			}
			for _, start := range []page.No{limit - 1, limit, limit + 7, -1, 1<<62 + 5} {
				if err := a.ReadRun(start, two); err != ErrOutOfRange {
					t.Fatalf("ReadRun(%d, 2 pages) = %v, want ErrOutOfRange", start, err)
				}
			}
			if err := a.ReadRun(1, make([]byte, (MaxSegmentPages+1)*page.Size)); err != ErrTooLarge {
				t.Fatalf("oversized run = %v, want ErrTooLarge", err)
			}
			for _, size := range []int{0, 10, page.Size + 1} {
				if err := a.ReadRun(1, make([]byte, size)); err == nil {
					t.Fatalf("%d-byte buffer accepted", size)
				}
			}
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			if err := a.ReadRun(1, two); err != ErrClosed {
				t.Fatalf("read after close: %v", err)
			}
		})
	}
}

// TestWriteRun pins WriteRun against the per-page reference the same way: a
// run write is byte-for-byte n WritePage calls, counts n writes in one call, touches
// nothing outside the run, and rejects every malformed request before
// touching the store.
func TestWriteRun(t *testing.T) {
	mem, err := NewMem(1, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	file, err := CreateFile(filepath.Join(t.TempDir(), "run.area"), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range map[string]*Area{"mem": mem, "file": file} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(16))
			limit := a.Pages()
			// The shadow starts as the area is; pages 0 and the extent maps
			// are fair game, the test never reloads the area.
			shadow := make([]byte, int(limit)*page.Size)
			for p := page.No(0); p < limit; p += MaxSegmentPages {
				if err := a.ReadRun(p, shadow[int(p)*page.Size:int(min(p+MaxSegmentPages, limit))*page.Size]); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 100; i++ {
				n := 1 + rng.Intn(MaxSegmentPages)
				start := page.No(rng.Int63n(int64(limit) - int64(n) + 1))
				run := make([]byte, n*page.Size)
				rng.Read(run)
				st0 := a.Stats()
				if err := a.WriteRun(start, run); err != nil {
					t.Fatalf("WriteRun(%d, %d pages): %v", start, n, err)
				}
				if st1 := a.Stats(); st1.Writes-st0.Writes != int64(n) || st1.WriteCalls-st0.WriteCalls != 1 {
					t.Fatalf("Stats writes advanced by %d in %d calls for a %d-page run", st1.Writes-st0.Writes, st1.WriteCalls-st0.WriteCalls, n)
				}
				copy(shadow[int(start)*page.Size:], run)
			}
			pg := make([]byte, page.Size)
			for p := page.No(0); p < limit; p++ {
				if err := a.ReadPage(p, pg); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(pg, shadow[int(p)*page.Size:int(p+1)*page.Size]) {
					t.Fatalf("page %d differs from the shadow", p)
				}
			}

			two := make([]byte, 2*page.Size)
			if err := a.WriteRun(limit-2, two); err != nil {
				t.Fatalf("run ending at the limit: %v", err)
			}
			for _, start := range []page.No{limit - 1, limit, limit + 7, -1, 1<<62 + 5} {
				if err := a.WriteRun(start, two); err != ErrOutOfRange {
					t.Fatalf("WriteRun(%d, 2 pages) = %v, want ErrOutOfRange", start, err)
				}
			}
			if err := a.WriteRun(1, make([]byte, (MaxSegmentPages+1)*page.Size)); err != ErrTooLarge {
				t.Fatalf("oversized run = %v, want ErrTooLarge", err)
			}
			for _, size := range []int{0, 10, page.Size + 1} {
				if err := a.WriteRun(1, make([]byte, size)); err == nil {
					t.Fatalf("%d-byte buffer accepted", size)
				}
			}
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			if err := a.WriteRun(1, two); err != ErrClosed {
				t.Fatalf("write after close: %v", err)
			}
		})
	}
}

// TestEnsureSegment: restart's redo of a logged allocation. Whatever the
// extent map held — the block live, free, or in an extent the file never got
// — EnsureSegment leaves exactly AllocSegment's block live, is idempotent,
// survives a reload, and refuses a block that collides with a different one.
func TestEnsureSegment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ensure.area")
	a, err := CreateFile(path, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The allocations a live area made, as the log would name them.
	type run struct {
		start page.No
		pages int // as asked for
	}
	rng := rand.New(rand.NewSource(16))
	var logged []run
	for a.Extents() < 3 {
		n := 1 + rng.Intn(40)
		start, _, err := a.AllocSegment(n)
		if err != nil {
			t.Fatal(err)
		}
		logged = append(logged, run{start, n})
	}
	free := a.FreePages()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh area of one extent is what a crash that lost every map write
	// and both growths leaves.
	lost := filepath.Join(t.TempDir(), "lost.area")
	b, err := CreateFile(lost, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ { // the second pass finds everything live
		for _, r := range logged {
			if err := b.EnsureSegment(r.start, r.pages); err != nil {
				t.Fatalf("pass %d: EnsureSegment(%d, %d): %v", pass, r.start, r.pages, err)
			}
		}
		if b.Extents() != 3 || b.FreePages() != free {
			t.Fatalf("pass %d: %d extents, %d free pages; the live area had 3 and %d", pass, b.Extents(), b.FreePages(), free)
		}
	}
	for _, r := range logged {
		k := 1
		for k < r.pages {
			k *= 2
		}
		if n, live := segmentPages(b, r.start); !live || n != k {
			t.Fatalf("block at %d: %d pages, live %v; want %d", r.start, n, live, k)
		}
	}
	// Collisions: a different size at a live start, and a block inside one.
	big := logged[0]
	for _, r := range logged {
		if r.pages > big.pages {
			big = r
		}
	}
	if err := b.EnsureSegment(big.start, 1); err == nil {
		t.Fatal("a 1-page block accepted where a larger one is live")
	}
	if err := b.EnsureSegment(big.start+1, 1); err == nil {
		t.Fatal("a block accepted inside a live one")
	}
	if err := b.EnsureSegment(0, 1); err != ErrOutOfRange {
		t.Fatalf("page 0: %v", err)
	}
	if err := b.EnsureSegment(1, MaxSegmentPages+1); err != ErrTooLarge {
		t.Fatalf("oversized: %v", err)
	}
	if b.FreePages() != free {
		t.Fatalf("refused calls changed the allocator: %d free pages, want %d", b.FreePages(), free)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// The maps were written through.
	c, err := OpenFile(lost)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Extents() != 3 || c.FreePages() != free {
		t.Fatalf("reloaded: %d extents, %d free pages", c.Extents(), c.FreePages())
	}
	fixed, err := NewMem(4, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := fixed.EnsureSegment(extentStart(1)+1, 1); err != ErrOutOfRange {
		t.Fatalf("a block beyond a fixed-size area: %v", err)
	}
}

// segmentPages is the granted size of the live segment at start.
func segmentPages(a *Area, start page.No) (int, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	e, off, err := a.locate(start)
	if err != nil {
		return 0, false
	}
	sz, ok := a.extents[e].BlockSize(off)
	return int(sz), ok
}

// TestWritebackHintEvery: an area asks for writeback once it has written
// hintEvery bytes since its last hint or Sync, and a Sync starts the count
// again. On a file the hint reaches the kernel, and fails nothing.
func TestWritebackHintEvery(t *testing.T) {
	a, err := CreateFile(filepath.Join(t.TempDir(), "a.bess"), 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	run := bytes.Repeat([]byte{7}, MaxSegmentPages*page.Size)
	per := hintEvery / len(run)
	write := func(k int) {
		for i := range k {
			if err := a.WriteRun(extentStart(i%4)+1, run); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(per - 1)
	if h := a.Stats().Hints; h != 0 {
		t.Fatalf("%d hints after %d bytes, want 0", h, (per-1)*len(run))
	}
	write(1)
	if h := a.Stats().Hints; h != 1 {
		t.Fatalf("%d hints after %d bytes, want 1", h, per*len(run))
	}
	write(per - 1)
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	write(1)
	if h := a.Stats().Hints; h != 1 {
		t.Fatalf("%d hints: a Sync did not start the count again", h)
	}
	f, err := os.Create(filepath.Join(t.TempDir(), "f"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(run); err != nil {
		t.Fatal(err)
	}
	if err := startWriteback(f, 0, int64(len(run))); err != nil {
		t.Fatalf("writeback hint on a file: %v", err)
	}
}
