package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"bess/internal/area"
	"bess/internal/client"
	"bess/internal/fault"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/wal"
)

// Tests of the shipped commit: its changes are redo-only, carried by its commit
// record, and its pages are written after that record is durable
// (tx.Tx.Commit).

// devices are a server's media as fault stores: a log on one injector's clock,
// an area per id on another's — or the same one's. beforeWrite, when set, runs
// once, ahead of the areas' next write.
type devices struct {
	logInj, areaInj *fault.Injector
	log             *fault.Store
	areas           map[uint32]*fault.Store
	beforeWrite     func()
}

func newDevices(logInj, areaInj *fault.Injector) *devices {
	return &devices{logInj: logInj, areaInj: areaInj, log: fault.NewStore(logInj), areas: make(map[uint32]*fault.Store)}
}

// open opens a server on the devices, running restart over what they hold.
func (d *devices) open(t *testing.T) *Server {
	t.Helper()
	s, err := OpenMedia(Media{Log: d.log.WAL(), NewArea: func(id uint32) (area.Store, error) {
		st := d.areas[id]
		if st == nil {
			st = fault.NewStore(d.areaInj)
			d.areas[id] = st
		}
		return hookedArea{st.Area(), d}, nil
	}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// copy returns devices on a fresh clock holding what each store holds now:
// after a crash, what survived it (fault.Store.CrashImage); otherwise every
// write issued, synced or not, as a process crash right now would leave it.
func (d *devices) copy() *devices {
	inj := fault.NewInjector(0)
	img := func(st *fault.Store) []byte {
		if d.logInj.Crashed() || d.areaInj.Crashed() {
			return st.CrashImage()
		}
		return st.Image()
	}
	c := &devices{logInj: inj, areaInj: inj, log: fault.NewStoreFrom(inj, img(d.log)), areas: make(map[uint32]*fault.Store)}
	for id, st := range d.areas {
		c.areas[id] = fault.NewStoreFrom(inj, img(st))
	}
	return c
}

// hookedArea is an area device that runs its devices' beforeWrite hook.
type hookedArea struct {
	fault.AreaView
	d *devices
}

func (a hookedArea) WriteAt(p []byte, off int64) (int, error) {
	if f := a.d.beforeWrite; f != nil {
		a.d.beforeWrite = nil
		f()
	}
	return a.AreaView.WriteAt(p, off)
}

// crcPayload is n bytes of fill that end in the CRC-32C of the bytes before
// them, little-endian: an object that carries its own checksum, as the
// benchmark's payloads do. A CRC-32C over a block that ends in its own
// CRC-32C does not move when the block changes, so overwriting such an object
// leaves its segment's data CRC where it was.
func crcPayload(n int, fill byte) []byte {
	b := bytes.Repeat([]byte{fill}, n)
	binary.LittleEndian.PutUint32(b[n-4:], page.Checksum(b[:n-4]))
	return b
}

// TestCommitLogFootprint pins the gain of redo-only changes, of the varint
// record codec, of the one-record commit and of runs in tier-1: a committed
// k-byte overwrite appends exactly one record — its commit, carrying the
// changes — which logs about k bytes per page it changes, no undo byte at
// all, and a header of at most 20 bytes; and the log takes one append per
// shipped commit (Snapshot().WALAppends). A payload with no checksum of its
// own moves the data CRC, and the slotted page logs the header's two changed
// words, [76,80) and [124,128), not the span between them. Two objects at the
// two ends of sixteen log their own bytes, not the objects between them.
func TestCommitLogFootprint(t *testing.T) {
	const (
		k         = 128
		header    = 20
		runHeader = 4 // a continuation's gap and length
		rounds    = 3
	)
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	key := commitOne(t, s, db, bytes.Repeat([]byte{1}, k)) // anchors the pages
	for i := 0; i < rounds; i++ {
		img := overwriteImage(t, s, key, bytes.Repeat([]byte{byte(2 + i)}, k))
		from, appends := s.log.NextLSN(), s.Snapshot().WALAppends
		commitImage(t, s, img)
		if got := s.Snapshot().WALAppends - appends; got != 1 {
			t.Fatalf("a shipped commit took %d log appends, want 1", got)
		}
		var recs, images int
		var slotted []string
		total := int(s.log.NextLSN() - from)
		if err := s.log.Iterate(from, func(_ page.LSN, r *wal.Record) error {
			recs++
			fp := r.Footprint()
			if budget := header + runHeader*(len(r.Changes)-r.Pages()); r.Type != wal.TCommit || fp.Before+fp.ZeroBefore != 0 || fp.Header > budget {
				t.Fatalf("a shipped commit logged a %v record with %d undo bytes and a %d-byte header (budget %d): %d runs",
					r.Type, fp.Before+fp.ZeroBefore, fp.Header, budget, len(r.Changes))
			}
			images += fp.After + fp.ZeroAfter
			for _, c := range r.Changes {
				if c.Page == (page.ID{Area: page.AreaID(key.Area), Page: page.No(key.Start)}) {
					slotted = append(slotted, fmt.Sprintf("[%d,%d)", c.Off, int(c.Off)+len(c.After)))
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if recs != 1 || images > 2*k || total > images+header+runHeader {
			t.Fatalf("a %d-byte overwrite logged %d bytes in %d records, %d of them images", k, total, recs, images)
		}
		if got := fmt.Sprint(slotted); got != "[[76,80) [124,128)]" {
			t.Fatalf("an overwrite that moves the data CRC logged the slotted page as %s, want the CRC's and the header checksum's words", got)
		}
	}

	// Sixteen k-byte objects that carry their own checksums; the first and
	// the last overwritten in one commit.
	seg16, err := createSeg(s, db, 1, 1, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	sl, ov, data, err := s.FetchSeg(0, seg16)
	if err != nil {
		t.Fatal(err)
	}
	dec := decodeSeg(t, sl, ov, data)
	for i := 0; i < 16; i++ {
		if _, err := dec.CreateObject(0, crcPayload(k, byte(1+i))); err != nil {
			t.Fatal(err)
		}
	}
	commitImage(t, s, proto.SegImage{Seg: seg16, Slotted: dec.EncodeSlotted(), Overflow: dec.Overflow, Data: dec.Data}) // anchors the pages
	sl, ov, data, err = s.FetchSeg(0, seg16)
	if err != nil {
		t.Fatal(err)
	}
	dec = decodeSeg(t, sl, ov, data)
	if dec.UpdateObject(0, crcPayload(k, 0xA0)) != nil || dec.UpdateObject(15, crcPayload(k, 0xAF)) != nil {
		t.Fatal("overwriting the first and the last object")
	}
	from := s.log.NextLSN()
	commitImage(t, s, proto.SegImage{Seg: seg16, Slotted: dec.EncodeSlotted(), Overflow: dec.Overflow, Data: dec.Data})
	var runs []string
	if err := s.log.Iterate(from, func(_ page.LSN, r *wal.Record) error {
		for _, c := range r.Changes {
			runs = append(runs, fmt.Sprintf("%v[%d,%d)", c.Page, c.Off, int(c.Off)+len(c.After)))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if total := int(s.log.NextLSN() - from); len(runs) != 2 || total > 2*k+header+runHeader {
		t.Fatalf("two objects at the ends of sixteen logged %d bytes as %v, want their own two runs of the data page", total, runs)
	}
}

// TestCommitWriteFailureRepairs: a page write that fails after the commit's
// force does not undo the commit. The page is rebuilt from the log before the
// commit's locks release; if it cannot be, its segment is quarantined with
// the write's error as the cause — and a restart still finds the commit. In
// process, Commit returns what the repair answers. Over the wire the reply
// leaves at the commit's publication, before the write: it is success, since
// the commit stands, and the repair or the quarantine shows once the
// write-back has ended.
// awaitEnded fails the test unless transaction txid leaves the table and
// lets its lock on key go: a wire commit ends after its write-back, which
// WaitWriteBacks waits for, and after its written hook.
func awaitEnded(t *testing.T, s *Server, txid uint64, key proto.SegKey) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); s.txm.Lookup(txid) != nil || s.locks.Holders(segLockName(key)) != nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the commit kept its transaction or its lock")
		}
	}
}

func TestCommitWriteFailureRepairs(t *testing.T) {
	for _, wire := range []bool{false, true} {
		for _, rebuildFails := range []bool{false, true} {
			areaInj := fault.NewInjector(2)
			d := newDevices(fault.NewInjector(1), areaInj)
			s := d.open(t)
			db, _, _ := s.OpenDB("d", true)
			key := commitOne(t, s, db, []byte("before the failing commit"))
			img := overwriteImage(t, s, key, []byte("after the failing commit!"))
			var conn proto.Conn = s
			cl, _ := s.Hello("c")
			if wire {
				cl, conn, _ = wireClient(t, s, "c")
			}
			txid, _ := conn.NewTx()
			if err := conn.Lock(cl, txid, key, proto.LockX); err != nil {
				t.Fatal(err)
			}
			// Nothing reaches an area before the force, so the area clock's next
			// event is the first page write after it.
			first := areaInj.Events() + 1
			areaInj.FailAt(first, nil)
			if rebuildFails {
				for n := first + 1; n < first+16; n++ {
					areaInj.FailAt(n, nil)
				}
			}
			err := conn.Publish(cl, txid, nil, []proto.SegImage{img}, false)
			if wire {
				if err != nil {
					t.Fatalf("wire commit whose page write failed after the force: %v, want success: the commit stands", err)
				}
				s.WaitWriteBacks()
			}
			if !rebuildFails {
				if err != nil {
					t.Fatalf("commit whose page write failed after the force: %v", err)
				}
				if b, err := fetchObject(t, s, key); err != nil || string(b) != "after the failing commit!" {
					t.Fatalf("after the repair: %q, %v", b, err)
				}
				if st := s.ScrubStatus(); st.Repaired == 0 || st.Quarantined != 0 {
					t.Fatalf("counters %+v", st)
				}
				awaitEnded(t, s, txid, key)
				s.Close()
				continue
			}
			if !wire && !errors.Is(err, ErrQuarantined) {
				t.Fatalf("commit whose pages could be neither written nor rebuilt: %v, want ErrQuarantined", err)
			}
			if st := s.ScrubStatus(); st.Quarantined != 1 {
				t.Fatalf("counters %+v, want the segment quarantined", st)
			}
			if cause := s.Quarantined()[key]; !strings.Contains(cause, fault.ErrInjected.Error()) {
				t.Fatalf("quarantine cause %q, want the write's error", cause)
			}
			if _, err := fetchObject(t, s, key); !errors.Is(err, ErrQuarantined) {
				t.Fatalf("fetch of the quarantined segment: %v", err)
			}
			awaitEnded(t, s, txid, key)
			s.Close()
			r := d.copy().open(t)
			if b, err := fetchObject(t, r, key); err != nil || string(b) != "after the failing commit!" {
				t.Fatalf("restart after the quarantine: %q, %v — the commit did not stand", b, err)
			}
			r.Close()
		}
	}
}

// TestLargeObjectInvisibleUntilCommit: a large object's content is a segment
// its session builds from runs reserved to it, and its descriptor ships with
// the segment at commit, so until then no other client finds it — a live
// FetchSeg waits for the creator's X, and then reads the disk — and an abort leaves the
// segment's slotted and overflow runs as they were, no page on the area
// holding the content, and nothing of the transaction in the log.
func TestLargeObjectInvisibleUntilCommit(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	key, _, _ := sessionLarge(t, s, []byte("committed: the overflow run exists"))
	a, err := client.Open(s, "a", "d", false)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.Hello("b")
	run := func(areaID uint32, start page.No, pages int) []byte {
		t.Helper()
		buf := make([]byte, pages*page.Size)
		if err := s.lookupArea(areaID).ReadRun(start, buf); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	sl, ov, _, err := s.FetchSeg(b, key)
	if err != nil {
		t.Fatal(err)
	}
	dec := decodeSeg(t, sl, ov, nil)
	runs := func() []byte {
		return append(run(key.Area, page.No(key.Start), int(dec.Hdr.SlottedPages)),
			run(uint32(dec.Hdr.OverArea), dec.Hdr.OverStart, int(dec.Hdr.OverPages))...)
	}
	before := runs()
	onArea := func(content []byte) bool {
		t.Helper()
		for p := page.No(1); p < s.lookupArea(key.Area).Pages(); p++ {
			if bytes.Equal(run(key.Area, p, 1), content[:page.Size]) {
				return true
			}
		}
		return false
	}

	content := bytes.Repeat([]byte("uncommitted large object."), 400)
	if err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	txid, _ := a.TxID()
	if _, err := a.CreateLarge(key, 0, content); err != nil {
		t.Fatal(err)
	}
	if onArea(content) {
		t.Fatal("the content reached the area before its commit")
	}
	// Another client's fetch waits for the creator's X to end: here, its abort.
	type fetched struct {
		sl, ov []byte
		err    error
	}
	done := make(chan fetched, 1)
	go func() {
		sl, ov, _, err := s.FetchSeg(b, key)
		done <- fetched{sl, ov, err}
	}()
	time.Sleep(10 * time.Millisecond)
	if err := a.Abort(); err != nil {
		t.Fatal(err)
	}
	f := <-done
	if f.err != nil {
		t.Fatal(f.err)
	}
	if got, want := len(decodeSeg(t, f.sl, f.ov, nil).LiveSlots()), len(dec.LiveSlots()); got != want {
		t.Fatalf("another client sees %d live slots of a segment whose creator aborted, want %d", got, want)
	}
	if !bytes.Equal(runs(), before) || onArea(content) {
		t.Fatal("the aborted large object changed the area")
	}
	if err := s.log.Flush(0); err != nil {
		t.Fatal(err)
	}
	var types []wal.Type
	s.log.Iterate(0, func(_ page.LSN, r *wal.Record) error {
		if r.Tx == txid {
			types = append(types, r.Type)
		}
		return nil
	})
	if len(types) != 0 {
		t.Fatalf("the aborted transaction's records: %v, want none", types)
	}
	// Committed, the same object's content is on the area: the look above can
	// see it.
	if err := a.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.CreateLarge(key, 0, content); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil || !onArea(content) {
		t.Fatalf("the committed content is not on the area (%v)", err)
	}
}
