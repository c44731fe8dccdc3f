package server

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"bess/internal/area"
	"bess/internal/fault"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/segment"
	"bess/internal/wal"
)

// Tests of the shipped commit: its records are redo-only (wal.TRedo) and its
// pages are written after its commit record is durable (tx.Tx.Commit).

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

// rawSegment reads seg's slotted run and the data run its header names
// straight off the area: what is on the pages, with no verification and no
// repair.
func rawSegment(t *testing.T, s *Server, seg proto.SegKey) []byte {
	t.Helper()
	n, err := s.SegInfo(seg)
	if err != nil {
		t.Fatal(err)
	}
	sl := make([]byte, n*page.Size)
	if err := s.lookupArea(seg.Area).ReadRun(page.No(seg.Start), sl); err != nil {
		t.Fatal(err)
	}
	dec := decodeSeg(t, sl, nil, nil)
	data := make([]byte, int(dec.Hdr.DataPages)*page.Size)
	if err := s.lookupArea(uint32(dec.Hdr.DataArea)).ReadRun(dec.Hdr.DataStart, data); err != nil {
		t.Fatal(err)
	}
	return append(sl, data...)
}

// TestCommitLogFootprint pins the gain of redo-only records and of the
// varint record codec in tier-1: a committed k-byte overwrite logs about k
// bytes per page it changes, no undo byte at all, and headers of at most 24
// bytes per page record and 12 per commit or end record.
func TestCommitLogFootprint(t *testing.T) {
	const (
		k          = 128
		pageHeader = 24
		endHeader  = 12
	)
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	key := commitOne(t, s, db, bytes.Repeat([]byte{1}, k)) // anchors the pages
	img := overwriteImage(t, s, key, bytes.Repeat([]byte{2}, k))
	from := s.log.NextLSN()
	commitImage(t, s, img)
	var redo, ends, redoHeader, endsHeader int
	total := int(s.log.NextLSN() - from)
	if err := s.log.Flush(0); err != nil { // the end record is not forced
		t.Fatal(err)
	}
	if err := s.log.Iterate(from, func(_ page.LSN, r *wal.Record) error {
		fp := r.Footprint()
		if fp.Before+fp.ZeroBefore != 0 {
			t.Fatalf("a shipped commit logged a %v record with %d undo bytes", r.Type, fp.Before+fp.ZeroBefore)
		}
		switch r.Type {
		case wal.TRedo:
			redo, redoHeader = redo+1, redoHeader+fp.Header
		case wal.TCommit, wal.TEnd:
			ends, endsHeader = ends+1, endsHeader+fp.Header
		default:
			t.Fatalf("a shipped commit logged a %v record", r.Type)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if redo == 0 || total > 2*k+200 {
		t.Fatalf("a %d-byte overwrite logged %d bytes in %d redo-only records", k, total, redo)
	}
	if ends != 2 || redoHeader > pageHeader*redo || endsHeader > endHeader*ends {
		t.Fatalf("headers: %d B over %d page records (budget %d each), %d B over %d commit and end records (budget %d each)",
			redoHeader, redo, pageHeader, endsHeader, ends, endHeader)
	}
}

// TestCommitWriteFailureRepairs: a page write that fails after the commit's
// force does not undo the commit. The page is rebuilt from the log before the
// commit's locks release; if it cannot be, its segment is quarantined with
// the write's error as the cause — and a restart still finds the commit.
func TestCommitWriteFailureRepairs(t *testing.T) {
	for _, rebuildFails := range []bool{false, true} {
		areaInj := fault.NewInjector(2)
		d := newDevices(fault.NewInjector(1), areaInj)
		s := d.open(t)
		db, _, _ := s.OpenDB("d", true)
		key := commitOne(t, s, db, []byte("before the failing commit"))
		img := overwriteImage(t, s, key, []byte("after the failing commit!"))
		cl, _ := s.Hello("c")
		txid, _ := s.NewTx()
		if err := s.Lock(cl, txid, key, proto.LockX); err != nil {
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
		err := s.Commit(cl, txid, []proto.SegImage{img})
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
			s.Close()
			continue
		}
		if !errors.Is(err, ErrQuarantined) {
			t.Fatalf("commit whose pages could be neither written nor rebuilt: %v, want ErrQuarantined", err)
		}
		if cause := s.Quarantined()[key]; !strings.Contains(cause, fault.ErrInjected.Error()) {
			t.Fatalf("quarantine cause %q, want the write's error", cause)
		}
		if _, err := fetchObject(t, s, key); !errors.Is(err, ErrQuarantined) {
			t.Fatalf("fetch of the quarantined segment: %v", err)
		}
		if m := s.txm.Lookup(txid); m != nil || s.locks.Holders(segLockName(key)) != nil {
			t.Fatal("the commit kept its transaction or its lock")
		}
		s.Close()
		r := d.copy().open(t)
		if b, err := fetchObject(t, r, key); err != nil || string(b) != "after the failing commit!" {
			t.Fatalf("restart after the quarantine: %q, %v — the commit did not stand", b, err)
		}
		r.Close()
	}
}

// TestProcessCrashDuringCommit enumerates a process crash at every device
// event of one shipped commit: every write the process issued survives, the
// log tail it never wrote out does not. Restarted, the segment's pages hold
// its old image or its new one, never a mix — the new one exactly when the
// commit record survived.
func TestProcessCrashDuringCommit(t *testing.T) {
	oldBody := []byte("the old image of the object")
	newBody := bytes.ToUpper(oldBody)
	// run sets the segment up and commits the overwrite, the process dying
	// at event kill (0: never); it returns the events around the commit. The
	// checkpoint before it leaves restart's redo nothing older to repeat: what
	// the pages hold then is what the commit and its log left.
	run := func(kill int64) (d *devices, key proto.SegKey, txid uint64, old, cur []byte, from, to int64) {
		inj := fault.NewInjector(3)
		d = newDevices(inj, inj)
		s := d.open(t)
		db, _, _ := s.OpenDB("d", true)
		key = commitOne(t, s, db, oldBody)
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		old = rawSegment(t, s, key)
		img := overwriteImage(t, s, key, newBody)
		cl, _ := s.Hello("c")
		txid, _ = s.NewTx()
		if err := s.Lock(cl, txid, key, proto.LockX); err != nil {
			t.Fatal(err)
		}
		from = inj.Events()
		if kill != 0 {
			inj.KillAt(kill)
		}
		err := s.Commit(cl, txid, []proto.SegImage{img})
		to = inj.Events()
		if kill == 0 {
			if err != nil {
				t.Fatal(err)
			}
			cur = rawSegment(t, s, key)
		}
		s.Close() // after a crash, a dead process's: what it does is lost
		return d, key, txid, old, cur, from, to
	}
	_, key, txid, old, want, from, to := run(0)
	if to-from < 3 {
		t.Fatalf("the commit spans %d device events", to-from)
	}
	for kill := from + 1; kill <= to; kill++ {
		d, _, _, _, _, _, _ := run(kill)
		after := d.copy()
		committed := false
		if l, err := wal.OpenMemFrom(after.log.Image()); err != nil {
			t.Fatal(err)
		} else {
			l.Iterate(0, func(_ page.LSN, r *wal.Record) error {
				committed = committed || r.Type == wal.TCommit && r.Tx == txid
				return nil
			})
		}
		r := after.open(t)
		got, body := rawSegment(t, r, key), oldBody
		switch {
		case committed && !bytes.Equal(got, want):
			t.Fatalf("crash at event %d of (%d, %d]: the commit record survived, the pages do not hold the new image", kill, from, to)
		case !committed && !bytes.Equal(got, old):
			t.Fatalf("crash at event %d of (%d, %d]: no commit record survived, the pages do not hold the old image", kill, from, to)
		case committed:
			body = newBody
		}
		if b, err := fetchObject(t, r, key); err != nil || !bytes.Equal(b, body) {
			t.Fatalf("crash at event %d: object reads %q, %v; want %q", kill, b, err, body)
		}
		if st := r.ScrubStatus(); st.CorruptionsFound != 0 {
			t.Fatalf("crash at event %d: restart left pages that fail their checksums: %+v", kill, st)
		}
		r.Close()
	}
}

// TestLargeObjectInvisibleUntilCommit: a large object's content is stored for
// its transaction and its descriptor ships with the segment at commit, so
// until then no other client finds it — a live FetchSeg takes no lock and
// reads the disk — and an abort leaves the segment's slotted and overflow runs
// and the content's run as they were, with nothing of the transaction in the
// log but its records, its abort and its end.
func TestLargeObjectInvisibleUntilCommit(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	key := commitOne(t, s, db, []byte("small"))
	a, _ := s.Hello("a")
	b, _ := s.Hello("b")
	storeLarge(t, s, a, key, []byte("committed: the overflow run exists"))
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

	content := bytes.Repeat([]byte("uncommitted large object."), 400)
	txid, _ := s.NewTx()
	if err := s.Lock(a, txid, key, proto.LockX); err != nil {
		t.Fatal(err)
	}
	desc, err := s.StoreLarge(a, txid, key, content)
	if err != nil {
		t.Fatal(err)
	}
	d, err := segment.DecodeLargeDesc(desc)
	if err != nil {
		t.Fatal(err)
	}
	stored := run(uint32(d.Area), d.Start, int(d.Pages))
	if bytes.Contains(stored, content[:page.Size]) {
		t.Fatal("the content reached its run before its commit")
	}
	sl, ov, _, err = s.FetchSeg(b, key)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(decodeSeg(t, sl, ov, nil).LiveSlots()), len(dec.LiveSlots()); got != want {
		t.Fatalf("another client sees %d live slots before the creator commits, want %d", got, want)
	}
	if err := s.Abort(a, txid); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(runs(), before) || !bytes.Equal(run(uint32(d.Area), d.Start, int(d.Pages)), stored) {
		t.Fatal("the aborted large object changed a run on the area")
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
	if n := len(types); n < 3 || types[n-2] != wal.TAbort || types[n-1] != wal.TEnd {
		t.Fatalf("the aborted transaction's records: %v", types)
	}
	for _, typ := range types[:len(types)-2] {
		if typ != wal.TRedo {
			t.Fatalf("the aborted transaction's records: %v, want its redo records, abort and end", types)
		}
	}
}
