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

// TestCommitLogFootprint pins the gain of redo-only records in tier-1: a
// committed k-byte overwrite logs no undo byte at all, and each of its
// records costs a header smaller than an update record's.
func TestCommitLogFootprint(t *testing.T) {
	const k = 128
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	key := commitOne(t, s, db, bytes.Repeat([]byte{1}, k)) // anchors the pages
	img := overwriteImage(t, s, key, bytes.Repeat([]byte{2}, k))
	from := s.log.NextLSN()
	commitImage(t, s, img)
	redo, total := 0, int(s.log.NextLSN()-from)
	if err := s.log.Iterate(from, func(_ page.LSN, r *wal.Record) error {
		fp := r.Footprint()
		if r.Type == wal.TUpdate || fp.Before+fp.ZeroBefore != 0 {
			t.Fatalf("a shipped commit logged a %v record with %d undo bytes", r.Type, fp.Before+fp.ZeroBefore)
		}
		if r.Type == wal.TRedo {
			redo++
			update := &wal.Record{Type: wal.TUpdate, Tx: r.Tx, Page: r.Page, Off: r.Off, After: r.After, Before: r.After}
			if fp.Header >= update.Footprint().Header {
				t.Fatalf("a redo-only record's header is %d bytes, an update's %d", fp.Header, update.Footprint().Header)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if redo == 0 || total > 2*k+200 {
		t.Fatalf("a %d-byte overwrite logged %d bytes in %d redo-only records", k, total, redo)
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
