package fault_test

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"

	"bess/internal/area"
	"bess/internal/fault"
	"bess/internal/page"
	"bess/internal/wal"
)

// Compile-time proof that the views satisfy the storage interfaces they
// were built for. This is the contract the whole package exists to honor.
var (
	_ wal.Backing = fault.WALView{}
	_ area.Store  = fault.AreaView{}
)

func TestPassThroughNoFaults(t *testing.T) {
	inj := fault.NewInjector(1)
	st := fault.NewStore(inj)
	w := st.WAL()

	data := []byte("hello, durable world")
	if _, err := w.WriteAt(data, 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got := make([]byte, len(data))
	if _, err := w.ReadAt(got, 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read back %q, wrote %q", got, data)
	}
	if w.Size() != int64(len(data)) {
		t.Fatalf("Size = %d, want %d", w.Size(), len(data))
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// 1 write + 1 sync = 2 events.
	if n := inj.Events(); n != 2 {
		t.Fatalf("Events = %d, want 2", n)
	}
}

func TestReadBeyondEOF(t *testing.T) {
	st := fault.NewStore(fault.NewInjector(1))
	w := st.WAL()
	if _, err := w.WriteAt([]byte("abcd"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := w.ReadAt(make([]byte, 4), 100); err != io.EOF {
		t.Fatalf("read past end: err = %v, want io.EOF", err)
	}
	if n, err := w.ReadAt(make([]byte, 8), 2); err != io.ErrUnexpectedEOF || n != 2 {
		t.Fatalf("short read: n=%d err=%v, want 2, ErrUnexpectedEOF", n, err)
	}
}

// TestExtendingWritesCopyLinearly: a medium written a record at a time — a log
// forced per commit — grows geometrically, not by one reallocation of the
// whole image per extending write; and a write past the end, also past bytes
// a truncate cut off, leaves a hole of zeroes.
func TestExtendingWritesCopyLinearly(t *testing.T) {
	st := fault.NewStore(fault.NewInjector(1))
	w := st.WAL()
	const writes, n = 4096, 1024
	rec := bytes.Repeat([]byte{0xA7}, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < writes; i++ {
		if _, err := w.WriteAt(rec, int64(i*n)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	// Exact reallocation copies writes/2 images on average: 8 GB here.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*writes*n); got > limit {
		t.Fatalf("%d extending writes of %d bytes allocated %d bytes, want at most %d", writes, n, got, limit)
	}
	if w.Size() != writes*n {
		t.Fatalf("Size = %d, want %d", w.Size(), writes*n)
	}

	a := st.Area()
	if err := a.Truncate(n); err != nil {
		t.Fatal(err)
	}
	if _, err := a.WriteAt(rec, 3*n); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4*n)
	if _, err := a.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	want := append(append(bytes.Clone(rec), make([]byte, 2*n)...), rec...)
	if !bytes.Equal(got, want) {
		t.Fatal("a hole over truncated bytes does not read as zeroes")
	}
}

// TestCrashDiscardsUnsynced is the core power-loss semantics: synced bytes
// survive, unsynced bytes vanish.
func TestCrashDiscardsUnsynced(t *testing.T) {
	inj := fault.NewInjector(7)
	st := fault.NewStore(inj)
	w := st.WAL()

	durable := bytes.Repeat([]byte{0xAA}, 100)
	if _, err := w.WriteAt(durable, 0); err != nil { // event 1
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil { // event 2
		t.Fatal(err)
	}

	// Crash on the next write: nothing of it survives (tear 0 sectors).
	inj.SetCrashPoint(3, 0, false)
	if _, err := w.WriteAt(bytes.Repeat([]byte{0xBB}, 100), 100); err != fault.ErrCrashed {
		t.Fatalf("fatal write err = %v, want ErrCrashed", err)
	}
	if !inj.Crashed() {
		t.Fatal("injector not crashed after crash point")
	}
	// The machine is dead: every later op fails.
	if _, err := w.WriteAt([]byte{1}, 0); err != fault.ErrCrashed {
		t.Fatalf("post-crash write err = %v, want ErrCrashed", err)
	}
	if _, err := w.ReadAt(make([]byte, 1), 0); err != fault.ErrCrashed {
		t.Fatalf("post-crash read err = %v, want ErrCrashed", err)
	}
	if err := w.Sync(); err != fault.ErrCrashed {
		t.Fatalf("post-crash sync err = %v, want ErrCrashed", err)
	}

	img := st.CrashImage()
	if !bytes.Equal(img, durable) {
		t.Fatalf("crash image = %d bytes, want exactly the 100 synced bytes", len(img))
	}
}

// TestCrashOnSyncLosesEverythingUnsynced: a crash *during* sync means the
// sync never happened.
func TestCrashOnSyncLosesEverythingUnsynced(t *testing.T) {
	inj := fault.NewInjector(7)
	st := fault.NewStore(inj)
	w := st.WAL()

	if _, err := w.WriteAt([]byte("aaaa"), 0); err != nil { // event 1
		t.Fatal(err)
	}
	inj.SetCrashPoint(2, 0, false)
	if err := w.Sync(); err != fault.ErrCrashed { // event 2: dies here
		t.Fatalf("sync err = %v, want ErrCrashed", err)
	}
	if len(st.CrashImage()) != 0 {
		t.Fatalf("crash image has %d bytes, want 0 (sync never completed)", len(st.CrashImage()))
	}
}

// TestProcessCrashKeepsIssuedWrites is the process-crash class: every write
// issued before the crash point survives whole, synced or not, in every
// medium on the clock; the fatal write and everything after it never happen.
func TestProcessCrashKeepsIssuedWrites(t *testing.T) {
	inj := fault.NewInjector(7)
	log, data := fault.NewStore(inj), fault.NewStore(inj)
	w, a := log.WAL(), data.Area()
	if _, err := w.WriteAt([]byte("synced"), 0); err != nil { // event 1
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil { // event 2
		t.Fatal(err)
	}
	if _, err := w.WriteAt([]byte("+unsynced"), 6); err != nil { // event 3
		t.Fatal(err)
	}
	if _, err := a.WriteAt([]byte("page"), 0); err != nil { // event 4
		t.Fatal(err)
	}
	inj.KillAt(5)
	if _, err := w.WriteAt([]byte("+never"), 15); err != fault.ErrCrashed { // event 5: dies here
		t.Fatalf("fatal write err = %v, want ErrCrashed", err)
	}
	if err := a.Sync(); err != fault.ErrCrashed {
		t.Fatalf("post-crash sync err = %v, want ErrCrashed", err)
	}
	if got := string(log.CrashImage()); got != "synced+unsynced" {
		t.Fatalf("log after a process crash = %q, want every write issued before it", got)
	}
	if got := string(data.CrashImage()); got != "page" {
		t.Fatalf("area after a process crash = %q, want its unsynced write", got)
	}

	// The same schedule as a power loss keeps only what was synced.
	inj = fault.NewInjector(7)
	log = fault.NewStore(inj)
	w = log.WAL()
	w.WriteAt([]byte("synced"), 0)
	w.Sync()
	w.WriteAt([]byte("+unsynced"), 6)
	inj.SetCrashPoint(4, 1, false)
	w.Sync()
	if got := string(log.CrashImage()); got != "synced" {
		t.Fatalf("log after a power loss = %q, want the synced bytes", got)
	}
}

func TestTornWritePrefixSurvives(t *testing.T) {
	inj := fault.NewInjector(3)
	st := fault.NewStore(inj)
	w := st.WAL()

	// Crash on the very first write, keeping one sector of it.
	inj.SetCrashPoint(1, 1, false)
	p := bytes.Repeat([]byte{0xCC}, 3*fault.SectorSize)
	if _, err := w.WriteAt(p, 0); err != fault.ErrCrashed {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	img := st.CrashImage()
	if len(img) != fault.SectorSize {
		t.Fatalf("crash image = %d bytes, want one sector (%d)", len(img), fault.SectorSize)
	}
	if !bytes.Equal(img, p[:fault.SectorSize]) {
		t.Fatal("surviving sector does not match the write's prefix")
	}
}

func TestTornWriteGarbageFill(t *testing.T) {
	inj := fault.NewInjector(3)
	st := fault.NewStore(inj)
	w := st.WAL()

	inj.SetCrashPoint(1, 1, true)
	p := bytes.Repeat([]byte{0xCC}, 2*fault.SectorSize)
	if _, err := w.WriteAt(p, 0); err != fault.ErrCrashed {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	img := st.CrashImage()
	if len(img) != 2*fault.SectorSize {
		t.Fatalf("crash image = %d bytes, want the full write extent %d", len(img), 2*fault.SectorSize)
	}
	if !bytes.Equal(img[:fault.SectorSize], p[:fault.SectorSize]) {
		t.Fatal("prefix sector corrupted")
	}
	if bytes.Equal(img[fault.SectorSize:], p[fault.SectorSize:]) {
		t.Fatal("lost sector arrived intact; want garbage")
	}

	// Determinism: the same seed and crash point scribble the same bytes.
	inj2 := fault.NewInjector(3)
	st2 := fault.NewStore(inj2)
	inj2.SetCrashPoint(1, 1, true)
	st2.WAL().WriteAt(p, 0)
	if !bytes.Equal(st2.CrashImage(), img) {
		t.Fatal("garbage fill is not deterministic for equal seeds")
	}

	// ... and a different seed scribbles different bytes.
	inj3 := fault.NewInjector(4)
	st3 := fault.NewStore(inj3)
	inj3.SetCrashPoint(1, 1, true)
	st3.WAL().WriteAt(p, 0)
	if bytes.Equal(st3.CrashImage(), img) {
		t.Fatal("different seeds produced identical garbage")
	}
}

func TestTransientError(t *testing.T) {
	inj := fault.NewInjector(1)
	st := fault.NewStore(inj)
	w := st.WAL()

	inj.FailAt(2, nil) // default ErrInjected on the second event
	if _, err := w.WriteAt([]byte("aa"), 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("sync err = %v, want ErrInjected", err)
	}
	// The medium is still alive: retry succeeds.
	if err := w.Sync(); err != nil {
		t.Fatalf("retry sync: %v", err)
	}
	if !bytes.Equal(st.CrashImage(), []byte("aa")) {
		t.Fatal("retry sync did not persist")
	}
}

// TestRebootCycle exercises the test-harness loop: crash, extract image,
// reboot onto fresh media, verify contents.
func TestRebootCycle(t *testing.T) {
	inj := fault.NewInjector(9)
	st := fault.NewStore(inj)
	w := st.WAL()
	w.WriteAt([]byte("generation-1"), 0)
	w.Sync()
	inj.SetCrashPoint(3, 0, false)
	w.WriteAt([]byte("generation-2"), 0) // dies

	inj2 := fault.NewInjector(9)
	st2 := fault.NewStoreFrom(inj2, st.CrashImage())
	got := make([]byte, 12)
	if _, err := st2.WAL().ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "generation-1" {
		t.Fatalf("rebooted image reads %q, want generation-1", got)
	}
}

// TestSharedClockAcrossMedia: two stores on one injector interleave on a
// single event counter, so crash points can land between WAL and area I/O.
func TestSharedClockAcrossMedia(t *testing.T) {
	inj := fault.NewInjector(1)
	walSt := fault.NewStore(inj)
	areaSt := fault.NewStore(inj)

	inj.SetCrashPoint(2, 0, false)
	if _, err := walSt.WAL().WriteAt([]byte("log"), 0); err != nil { // event 1
		t.Fatal(err)
	}
	if _, err := areaSt.Area().WriteAt([]byte("page"), 0); err != fault.ErrCrashed { // event 2
		t.Fatalf("area write err = %v, want ErrCrashed (shared clock)", err)
	}
	// Both media are dead.
	if err := walSt.WAL().Sync(); err != fault.ErrCrashed {
		t.Fatalf("wal sync after shared crash: %v", err)
	}
}

// TestWALOverFaultStore drives the real WAL through the fault layer:
// flushed records survive a crash, unflushed ones do not.
func TestWALOverFaultStore(t *testing.T) {
	inj := fault.NewInjector(11)
	st := fault.NewStore(inj)
	l, err := wal.Open(st.WAL())
	if err != nil {
		t.Fatal(err)
	}

	r1 := &wal.Record{Type: wal.TRedo, Tx: 1, Page: page.ID{Area: 1, Page: 1}}
	lsn1, err := l.Append(r1)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(lsn1); err != nil {
		t.Fatal(err)
	}

	// Appended but never flushed: must vanish at the crash.
	if _, err := l.Append(&wal.Record{Type: wal.TRedo, Tx: 2, Page: page.ID{Area: 1, Page: 2}}); err != nil {
		t.Fatal(err)
	}
	inj.SetCrashPoint(inj.Events()+1, 0, false)
	if err := l.Flush(0); err == nil {
		t.Fatal("flush at crash point unexpectedly succeeded")
	}

	l2, err := wal.OpenMemFrom(st.CrashImage())
	if err != nil {
		t.Fatalf("reopening surviving log: %v", err)
	}
	defer l2.Close()
	var got []uint64
	if err := l2.Iterate(wal.FirstLSN(), func(lsn page.LSN, r *wal.Record) error {
		got = append(got, r.Tx)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("surviving log has txids %v, want [1]", got)
	}
}

// TestAreaOverFaultStore drives the real area package through the fault
// layer: a crash before sync loses the page write, and the surviving image
// still loads.
func TestAreaOverFaultStore(t *testing.T) {
	inj := fault.NewInjector(13)
	st := fault.NewStore(inj)
	a, err := area.Create(st.Area(), 1, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := a.AllocSegment(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Area().Sync(); err != nil {
		t.Fatal(err)
	}

	buf := bytes.Repeat([]byte{0x42}, page.Size)
	if err := a.WritePage(first, buf); err != nil {
		t.Fatal(err)
	}
	// Crash before the page write is synced.
	inj.SetCrashPoint(inj.Events()+1, 0, false)
	if _, err := st.Area().WriteAt([]byte{0}, 0); err != fault.ErrCrashed {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}

	st2 := fault.NewStoreFrom(fault.NewInjector(13), st.CrashImage())
	a2, err := area.Load(st2.Area(), true)
	if err != nil {
		t.Fatalf("loading surviving area image: %v", err)
	}
	got := make([]byte, page.Size)
	if err := a2.ReadPage(first, got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, buf) {
		t.Fatal("unsynced page write survived the crash")
	}
}
