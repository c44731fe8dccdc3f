package server

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"bess/internal/area"
	"bess/internal/fault"
	"bess/internal/lock"
	"bess/internal/oid"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/wal"
)

// Tests for the catalog riding the write-ahead log (catalog.go): what a DDL
// call touches, what restart rebuilds from the log at every crash point, and
// that redo of an add-segment record never clobbers.

// TestCreateSegmentTouchesNoFile is the tier-1 tripwire against a slide back
// to a catalog file of its own: a created segment is a buffered log record
// that its publishing commit forces with its own record. Fifty segments
// reserved and published by one commit add no file to the directory and
// force the log once, for the commit; the log alone gives a reopened server
// all of them, before a checkpoint and after one, and neither a checkpoint
// nor Close leaves any file in the directory but the log and the areas.
func TestCreateSegmentTouchesNoFile(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	db, _, err := s.OpenDB("d", true)
	if err != nil {
		t.Fatal(err)
	}
	fid, err := s.NewFileID(db)
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := s.Hello("creator")
	files := func(what string) {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range ents {
			got = append(got, e.Name())
		}
		if want := []string{"area-1.bess", "wal.log"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the directory holds %v, want %v", what, got, want)
		}
	}
	var want []proto.SegKey
	create := func(n int) {
		t.Helper()
		syncs := s.Log().Stats().Syncs
		runs, err := s.ReserveSegments(cl, db, -1, 1, 2, n)
		if err != nil {
			t.Fatal(err)
		}
		created := make([]proto.Created, n)
		for i, r := range runs {
			created[i] = proto.Created{Reserved: r, FileID: fid}
			want = append(want, r.Seg)
		}
		txid, _ := s.NewTx()
		if err := s.Publish(cl, txid, created, nil, false); err != nil {
			t.Fatal(err)
		}
		if got := s.Log().Stats().Syncs; got != syncs+1 {
			t.Fatalf("%d segments reserved and published by one commit forced the log %d times, want 1", n, got-syncs)
		}
		files(fmt.Sprintf("after %d segments", n))
	}
	reopened := func(what string) {
		t.Helper()
		r, err := Open(copyDir(t, dir), 1)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		defer r.Close()
		if got, err := r.SegmentsOf(db, fid); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: reopened server lists %d segments (%v), want %d", what, len(got), err, len(want))
		}
	}

	files("after OpenDB")
	create(50)
	reopened("before a checkpoint")
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	files("after a checkpoint")
	create(50)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	reopened("after a checkpoint")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	files("after Close")
}

// TestCreateSegmentFailureFreesRuns: a CreateSegment that fails before its
// record is in the log gives both runs back.
func TestCreateSegmentFailureFreesRuns(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, err := s.OpenDB("d", true)
	if err != nil {
		t.Fatal(err)
	}
	a := s.lookupArea(1)
	free := a.FreePages()
	if err := s.log.Close(); err != nil { // every append fails from here on
		t.Fatal(err)
	}
	if _, err := createSeg(s, db, 1, 1, 8, -1); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("CreateSegment on a closed log: %v", err)
	}
	if got := a.FreePages(); got != free {
		t.Fatalf("failed CreateSegment leaked %d pages", free-got)
	}
	if segs, _ := s.SegmentsOf(db, 1); len(segs) != 0 {
		t.Fatalf("failed CreateSegment cataloged %v", segs)
	}
}

// TestCreateSegmentLocksAndRecordsCreator: created for a client and a
// transaction, a segment is X-locked for that transaction and the client is in
// the copy table, and nobody else finds the key before the transaction ends;
// a creation that fails leaves neither behind, so the next segment allocated
// at the same start does not wait on a lock nobody will release for it.
func TestCreateSegmentLocksAndRecordsCreator(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, err := s.OpenDB("d", true)
	if err != nil {
		t.Fatal(err)
	}
	creator, _ := s.Hello("creator")
	revoked := 0
	if err := s.SetCallback(creator, func(proto.SegKey) (bool, error) { revoked++; return false, nil }); err != nil {
		t.Fatal(err)
	}
	other, _ := s.Hello("other")
	tx1, _ := s.NewTx()
	rep, err := s.CreateSegment(creator, tx1, db, 1, 1, 3, -1)
	if err != nil {
		t.Fatal(err)
	}
	if m := s.locks.Holds(lock.TxID(tx1), segLockName(rep.Seg)); m != lock.X {
		t.Fatalf("the creating transaction holds %v on its segment, want X", m)
	}
	tx2, _ := s.NewTx()
	if _, _, _, err := s.FetchSeg(other, rep.Seg); !errors.Is(err, ErrNoSegment) {
		t.Fatalf("FetchSeg before the creating transaction ended: %v, want ErrNoSegment", err)
	}
	if err := s.Lock(other, tx2, rep.Seg, proto.LockX); !errors.Is(err, ErrNoSegment) {
		t.Fatalf("Lock before the creating transaction ended: %v, want ErrNoSegment", err)
	}
	if err := s.Commit(creator, tx1, nil); err != nil {
		t.Fatal(err)
	}
	sl, ov, data, err := s.FetchSeg(0, rep.Seg)
	if err != nil {
		t.Fatal(err)
	}
	if h := decodeSeg(t, sl, ov, data).Hdr; rep.DataStart != int64(h.DataStart) || rep.DataPages != int(h.DataPages) || rep.DataPages != 4 {
		t.Fatalf("reply geometry %+v, header %+v: want the settled run, 3 pages rounded to 4", rep, h)
	}
	if err := s.Lock(other, tx2, rep.Seg, proto.LockX); err != nil {
		t.Fatal(err)
	}
	if revoked != 1 {
		t.Fatalf("another client's X lock called the creator back %d times, want 1", revoked)
	}
	if err := s.Abort(other, tx2); err != nil {
		t.Fatal(err)
	}

	// No transaction: nothing to lock for, the holder record all the same.
	rep, err = s.CreateSegment(creator, 0, db, 1, 1, 1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if hs := s.locks.Holders(segLockName(rep.Seg)); len(hs) != 0 {
		t.Fatalf("a segment created outside a transaction is locked by %v", hs)
	}
	tx3, _ := s.NewTx()
	if err := s.Lock(other, tx3, rep.Seg, proto.LockX); err != nil {
		t.Fatal(err)
	}
	if revoked != 2 {
		t.Fatalf("the creator of an unlocked segment was called back %d times in all, want 2", revoked)
	}
	if err := s.Abort(other, tx3); err != nil {
		t.Fatal(err)
	}

	// A creation that fails takes lock and holder record back.
	tx4, _ := s.NewTx()
	if err := s.log.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateSegment(creator, tx4, db, 1, 1, 1, -1); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("CreateSegment on a closed log: %v", err)
	}
	if owned := s.locks.Owned(lock.TxID(tx4)); len(owned) != 0 {
		t.Fatalf("the failed creation left its transaction holding %v", owned)
	}
}

// growImage returns key's current image with one object of body created in
// it and, if grow, the data section doubled first — which makes the server
// re-home the data run at commit and the header's DataStart change.
func growImage(t *testing.T, s *Server, key proto.SegKey, body []byte, grow bool) proto.SegImage {
	t.Helper()
	sl, ov, data, err := s.FetchSeg(0, key)
	if err != nil {
		t.Fatal(err)
	}
	dec := decodeSeg(t, sl, ov, data)
	if grow {
		if err := dec.ResizeData(2 * int(dec.Hdr.DataPages)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dec.CreateObject(0, body); err != nil {
		t.Fatal(err)
	}
	return proto.SegImage{Seg: key, Slotted: dec.EncodeSlotted(), Overflow: dec.Overflow, Data: dec.Data}
}

// TestRedoSegmentNeverClobbers is the hazard of DESIGN.md §5 made
// deterministic. Restart replays every add-segment record, and page redo
// starts at the last checkpoint: a segment created, updated and committed
// before a checkpoint whose area sync made the commit's pages durable has its
// add-segment replayed while its update records lie where page redo never
// looks. Redo of the add-segment that formatted blindly would reset the page
// and lose the committed object. With the data run re-homed by that commit
// the header no longer even looks like the op's segment; the page's anchor
// in the log, past the op, is what says hands off.
func TestRedoSegmentNeverClobbers(t *testing.T) {
	for _, grow := range []bool{false, true} {
		t.Run(fmt.Sprintf("grow=%v", grow), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			db, _, err := s.OpenDB("d", true)
			if err != nil {
				t.Fatal(err)
			}
			op := s.Log().NextLSN()
			key, err := createSeg(s, db, 1, 1, 2, -1)
			if err != nil {
				t.Fatal(err)
			}
			body := bytes.Repeat([]byte("committed "), 20)
			commitImage(t, s, growImage(t, s, key, body, grow))
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}

			r, err := Open(copyDir(t, dir), 1)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			an, err := wal.Analyze(r.Log(), nil)
			if err != nil {
				t.Fatal(err)
			}
			slotted := page.ID{Area: page.AreaID(key.Area), Page: page.No(key.Start)}
			if _, redone := an.RecLSN(slotted); redone || an.Stats.CheckpointLSN < op {
				t.Fatalf("the test wants the add-segment op (lsn ≥ %d) below checkpoint %d and its slotted page out of the redo set (in it: %v)",
					op, an.Stats.CheckpointLSN, redone)
			}
			got, err := fetchObject(t, r, key)
			if err != nil || !bytes.Equal(got, body) {
				t.Fatalf("the committed object after restart: %q, %v", got, err)
			}
			if st, err := r.ScrubOnce(); err != nil || st.CorruptionsFound != 0 {
				t.Fatalf("scrub after restart: %+v, %v", st, err)
			}
		})
	}
}

// TestRedoSegmentFormatsWhatTheCrashLost: the other half of add-segment redo.
// The record is durable but nothing CreateSegment wrote to the area is — not
// the extent map, not the initial images (here: the area file as it was
// before the call). Restart re-establishes the runs and formats them, the
// segment serves, and the allocator does not hand its pages out again.
func TestRedoSegmentFormatsWhatTheCrashLost(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	db, _, err := s.OpenDB("d", true)
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(s.areaPath(1))
	if err != nil {
		t.Fatal(err)
	}
	key, err := createSeg(s, db, 1, 2, 8, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Log().Flush(0); err != nil {
		t.Fatal(err)
	}
	crashed := copyDir(t, dir)
	if err := os.WriteFile(filepath.Join(crashed, "area-1.bess"), before, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(crashed, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sl, _, data, err := r.FetchSeg(0, key)
	if err != nil {
		t.Fatal(err)
	}
	dec := decodeSeg(t, sl, nil, data)
	if dec.Hdr.FileID != 1 || dec.Hdr.NObjects != 0 || len(sl) != 2*page.Size || len(data) != 8*page.Size {
		t.Fatalf("restart formatted %+v (%d slotted, %d data bytes)", dec.Hdr, len(sl), len(data))
	}
	// Both runs are live at their sizes: ensuring them again allocates
	// nothing.
	a := r.lookupArea(key.Area)
	free := a.FreePages()
	for _, run := range []struct {
		start page.No
		pages int
	}{{page.No(key.Start), 2}, {dec.Hdr.DataStart, 8}} {
		if err := a.EnsureSegment(run.start, run.pages); err != nil || a.FreePages() != free {
			t.Fatalf("run at page %d after restart is not a live %d-page segment (err %v)", run.start, run.pages, err)
		}
	}
	next, err := createSeg(r, db, 1, 2, 8, -1)
	if err != nil || next == key {
		t.Fatalf("next segment %v (%v) reuses the recovered one's run", next, err)
	}
}

// eventLog records, in one shared sequence, the device operations a
// checkpoint must order: area syncs and log writes.
type eventLog struct {
	mu     sync.Mutex
	events []string
}

func (l *eventLog) add(e string) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

type countingArea struct {
	area.Store
	log *eventLog
}

func (s countingArea) Sync() error { s.log.add("area sync"); return s.Store.Sync() }
func (s countingArea) WriteAt(p []byte, off int64) (int, error) {
	s.log.add("area write")
	return s.Store.WriteAt(p, off)
}

type countingWAL struct {
	wal.Backing
	log *eventLog
}

func (b countingWAL) WriteAt(p []byte, off int64) (int, error) {
	b.log.add("log write")
	return b.Backing.WriteAt(p, off)
}

// TestCheckpointSyncsAreasBeforeRecord: restart redoes pages from the
// checkpoint record on, so what ended before it must be on the device before
// the record is. Server.Checkpoint syncs every area — after the last page
// write of the commits that preceded it, before the log write that carries
// its record.
func TestCheckpointSyncsAreasBeforeRecord(t *testing.T) {
	ev := &eventLog{}
	inj := fault.NewInjector(1)
	s, err := OpenMedia(Media{
		Log: countingWAL{fault.NewStore(inj).WAL(), ev},
		NewArea: func(uint32) (area.Store, error) {
			return countingArea{fault.NewStore(inj).Area(), ev}, nil
		},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	db, _, err := s.OpenDB("d", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddArea(db); err != nil {
		t.Fatal(err)
	}
	commitOne(t, s, db, []byte("ends before the checkpoint"))

	ev.mu.Lock()
	ev.events = nil
	ev.mu.Unlock()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ev.mu.Lock()
	got := append([]string(nil), ev.events...)
	ev.mu.Unlock()
	want := []string{"area sync", "area sync", "log write"} // two areas, one record
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("device operations of a checkpoint: %v, want %v", got, want)
	}
}

// --- TestDDLCrashProperty ---

// ddlModel is what a catalog should hold, in the terms the server's own API
// answers in.
type ddlModel struct {
	DBs []ddlDB
}

type ddlDB struct {
	Name  string
	Areas []uint32
	Types []string
	Files map[uint32][]proto.SegKey
	Roots map[string]oid.OID
}

func (m ddlModel) clone() ddlModel {
	out := ddlModel{}
	for _, d := range m.DBs {
		c := ddlDB{Name: d.Name, Areas: append([]uint32(nil), d.Areas...), Types: append([]string(nil), d.Types...),
			Files: make(map[uint32][]proto.SegKey), Roots: make(map[string]oid.OID)}
		for f, segs := range d.Files {
			c.Files[f] = append([]proto.SegKey(nil), segs...)
		}
		for n, o := range d.Roots {
			c.Roots[n] = o
		}
		out.DBs = append(out.DBs, c)
	}
	return out
}

// catalogOf reads a server's catalog back through its API, as a ddlModel.
func catalogOf(t *testing.T, s *Server, files uint32) ddlModel {
	t.Helper()
	var out ddlModel
	for _, info := range s.Inspect().Databases {
		d := ddlDB{Name: info.Name, Areas: info.Areas, Files: make(map[uint32][]proto.SegKey), Roots: make(map[string]oid.OID)}
		types, err := s.Types(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		for _, ti := range types {
			d.Types = append(d.Types, ti.Name)
		}
		for f := uint32(1); f <= files; f++ {
			if segs, _ := s.SegmentsOf(info.ID, f); len(segs) > 0 {
				d.Files[f] = segs
			}
		}
		for _, name := range info.Roots {
			o, err := s.NameLookup(info.ID, name)
			if err != nil {
				t.Fatal(err)
			}
			d.Roots[name] = o
		}
		out.DBs = append(out.DBs, d)
	}
	return out
}

// dirDigest hashes every file of dir, by name.
func dirDigest(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d %x\n", e.Name(), len(b), sha256.Sum256(b))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestDDLCrashProperty drives a random sequence of create-db, add-area,
// register-type, new-file, create-segment, name-bind/unbind, commit,
// checkpoint and reopen steps against a shadow model, remembering the model
// and the end of the log after every step. After each step it crashes the
// server three ways and restarts a copy of the directory:
//
//	as is      the files as they are: the log holds what was forced;
//	cut        the log cut back to the end of any earlier step while the
//	           area files keep everything written since — the power loss
//	           that takes the log's tail but not the areas';
//	littered   as is, plus an area file no catalog names that does not load
//	           as an area, and an older build's catalog.bess.
//
// Restart must rebuild exactly the model as of the cut — no more, no less —
// serve every object committed below it, remove the stray area file and the
// empty area files of add-area ops above the cut, ignore catalog.bess, and
// leave a directory that a second restart does not change by a byte. A cut
// below the add-area op of an area that holds a segment by now leaves an
// area the log does not name but that holds data: restart must refuse it
// with ErrUnnamedArea and change nothing.
func TestDDLCrashProperty(t *testing.T) {
	steps := 50
	if testing.Short() {
		steps = 20
	}
	rng := rand.New(rand.NewSource(16))
	dir := t.TempDir()
	s, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()

	const maxFiles = 40
	type past struct {
		end       page.LSN // the log's end after the step
		commit    bool     // the step was a commit: its end record follows the force
		model     ddlModel
		committed map[proto.SegKey][]byte
	}
	var (
		model     ddlModel
		dbIDs     []uint32
		committed = make(map[proto.SegKey][]byte)
		bare      []proto.SegKey // created, nothing committed yet
		history   []past
	)
	remember := func(what string) {
		c := make(map[proto.SegKey][]byte, len(committed))
		for k, v := range committed {
			c[k] = v
		}
		history = append(history, past{s.Log().NextLSN(), what == "commit", model.clone(), c})
	}
	createDB := func() {
		name := fmt.Sprintf("db%d", len(model.DBs))
		id, _, err := s.OpenDB(name, true)
		if err != nil {
			t.Fatal(err)
		}
		dbIDs = append(dbIDs, id)
		model.DBs = append(model.DBs, ddlDB{Name: name, Areas: s.Inspect().Databases[len(model.DBs)].Areas,
			Files: make(map[uint32][]proto.SegKey), Roots: make(map[string]oid.OID)})
	}
	createDB()
	remember("create-db")

	// named lists the area files of h's model.
	named := func(h past) map[string]bool {
		out := make(map[string]bool)
		for _, d := range h.model.DBs {
			for _, a := range d.Areas {
				out[fmt.Sprintf("area-%d.bess", a)] = true
			}
		}
		return out
	}
	// unnamedData reports whether a segment created by now lies in an area
	// h's model does not name.
	unnamedData := func(h past) bool {
		n := named(h)
		for _, d := range model.DBs {
			for _, segs := range d.Files {
				for _, key := range segs {
					if !n[fmt.Sprintf("area-%d.bess", key.Area)] {
						return true
					}
				}
			}
		}
		return false
	}
	refused := func(at string, crashed string) {
		t.Helper()
		before := dirDigest(t, crashed)
		if r, err := Open(crashed, 1); !errors.Is(err, ErrUnnamedArea) {
			if err == nil {
				r.Close()
			}
			t.Fatalf("%s: restart over an unnamed area holding a segment: %v, want ErrUnnamedArea", at, err)
		}
		if dirDigest(t, crashed) != before {
			t.Fatalf("%s: a refused restart changed the directory", at)
		}
	}
	check := func(at string, crashed string, h past) {
		t.Helper()
		named := named(h)
		r, err := Open(crashed, 1)
		if err != nil {
			t.Fatalf("%s: restart: %v", at, err)
		}
		if got := catalogOf(t, r, maxFiles); !reflect.DeepEqual(got, h.model) {
			t.Fatalf("%s: recovered catalog\n got %+v\nwant %+v", at, got, h.model)
		}
		for key, want := range h.committed {
			if got, err := fetchObject(t, r, key); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: committed object of %v after restart: %q, %v", at, key, got, err)
			}
		}
		ents, _ := os.ReadDir(crashed)
		for _, e := range ents {
			if n := e.Name(); n != "wal.log" && n != "catalog.bess" && !named[n] {
				t.Fatalf("%s: restart left %s in the directory", at, n)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		once := dirDigest(t, crashed)
		r, err = Open(crashed, 1)
		if err != nil {
			t.Fatalf("%s: second restart: %v", at, err)
		}
		if got := catalogOf(t, r, maxFiles); !reflect.DeepEqual(got, h.model) {
			t.Fatalf("%s: second restart recovered a different catalog", at)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if twice := dirDigest(t, crashed); twice != once {
			t.Fatalf("%s: a second restart changed the directory", at)
		}
	}

	for step := 0; step < steps; step++ {
		d := rng.Intn(len(model.DBs))
		db, md := dbIDs[d], &model.DBs[d]
		what := ""
		switch r := rng.Intn(20); {
		case r < 1 && len(model.DBs) < 3:
			what = "create-db"
			createDB()
		case r < 2 && len(md.Areas) < 3:
			what = "add-area"
			aid, err := s.AddArea(db)
			if err != nil {
				t.Fatal(err)
			}
			md.Areas = append(md.Areas, aid)
		case r < 4:
			what = "register-type"
			name := fmt.Sprintf("T%d", rng.Intn(6))
			if _, err := s.RegisterType(db, proto.TypeInfo{Name: name, Size: 16, RefOffsets: []int{8}}); err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(md.Types, name) {
				md.Types = append(md.Types, name)
			}
		case r < 10:
			what = "create-segment"
			fid := uint32(1 + rng.Intn(3))
			if rng.Intn(4) == 0 {
				if fid, err = s.NewFileID(db); err != nil || fid > maxFiles {
					t.Fatalf("NewFileID: %d, %v", fid, err)
				}
			}
			key, err := createSeg(s, db, fid, 1+rng.Intn(2), 1<<rng.Intn(3), rng.Intn(3))
			if err != nil {
				t.Fatal(err)
			}
			md.Files[fid] = append(md.Files[fid], key)
			bare = append(bare, key)
		case r < 12:
			what = "name-bind"
			name := fmt.Sprintf("root%d", rng.Intn(4))
			o := oid.OID{Host: 1, DB: uint16(db), Offset: uint64(4096 * (1 + rng.Intn(1000))), Unique: uint16(step)}
			if _, bound := md.Roots[name]; bound {
				what = "name-unbind"
				if err := s.NameUnbind(db, name); err != nil {
					t.Fatal(err)
				}
				delete(md.Roots, name)
			} else if err := s.NameBind(db, name, o); err == nil {
				md.Roots[name] = o
			}
		case r < 16 && len(bare) > 0:
			what = "commit"
			i := rng.Intn(len(bare))
			key := bare[i]
			bare = append(bare[:i], bare[i+1:]...)
			body := make([]byte, 100+rng.Intn(200))
			rng.Read(body)
			commitImage(t, s, growImage(t, s, key, body, rng.Intn(3) == 0))
			committed[key] = body
		case r < 18:
			what = "checkpoint"
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		case r < 19:
			what = "reopen"
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = Open(dir, 1); err != nil {
				t.Fatal(err)
			}
		default:
			what = "flush"
			if err := s.Log().Flush(0); err != nil {
				t.Fatal(err)
			}
		}
		remember(what)
		at := fmt.Sprintf("step %d (%s)", step, what)

		// As is: the log file ends at the durable frontier — the end of a
		// step, or of a commit step's commit record (its end record follows
		// the force).
		durable := durableLSN(s.Log())
		asIs := 0
		for history[asIs].end < durable {
			asIs++
		}
		if history[asIs].end != durable && !history[asIs].commit {
			t.Fatalf("%s: the durable frontier %d is inside a step that is no commit", at, durable)
		}
		check(at+", as is", copyDir(t, dir), history[asIs])

		// Cut: back to the end of a random earlier step, any of them. One
		// whose model misses an area that holds a segment by now must be
		// refused; then a random one that does not is cut as well.
		cut := func(h past) {
			crashed := copyDir(t, dir)
			if err := os.Truncate(filepath.Join(crashed, "wal.log"), int64(h.end)); err != nil {
				t.Fatal(err)
			}
			at := fmt.Sprintf("%s, log cut from %d back to %d", at, durable, h.end)
			if unnamedData(h) {
				refused(at, crashed)
			} else {
				check(at, crashed, h)
			}
		}
		if asIs > 0 {
			h := history[rng.Intn(asIs)]
			cut(h)
			if unnamedData(h) {
				var ok []past
				for _, h := range history[:asIs] {
					if !unnamedData(h) {
						ok = append(ok, h)
					}
				}
				if len(ok) > 0 {
					cut(ok[rng.Intn(len(ok))])
				}
			}
		}

		// Littered.
		if step%5 == 0 {
			crashed := copyDir(t, dir)
			junk := bytes.Repeat([]byte("torn image "), 50)
			for _, name := range []string{"catalog.bess", "area-77.bess"} {
				if err := os.WriteFile(filepath.Join(crashed, name), junk, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			check(at+", littered", crashed, history[asIs])
		}
	}
}

// TestRedoSegmentGrowsArea: an add-segment op may name an extent the
// area file never got (growth is a truncate and a header write, neither
// synced). Redo grows the area to reach it.
func TestRedoSegmentGrowsArea(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	db, _, err := s.OpenDB("d", true)
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(s.areaPath(1))
	if err != nil {
		t.Fatal(err)
	}
	// Fill the first extent and spill into a second.
	var keys []proto.SegKey
	for s.lookupArea(1).Extents() < 2 {
		key, err := createSeg(s, db, 1, 1, area.MaxSegmentPages/2, -1)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}
	if err := s.Log().Flush(0); err != nil {
		t.Fatal(err)
	}
	crashed := copyDir(t, dir)
	if err := os.WriteFile(filepath.Join(crashed, "area-1.bess"), before, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(crashed, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := r.lookupArea(1).Extents(); n != 2 {
		t.Fatalf("area has %d extents after restart, want 2", n)
	}
	for _, key := range keys {
		if _, _, _, err := r.FetchSeg(0, key); err != nil {
			t.Fatalf("segment %v after restart: %v", key, err)
		}
	}
}

// durableLSN is l's durable frontier: the log bytes a crash would keep.
func durableLSN(l *wal.Log) page.LSN { return page.LSN(len(l.DurableBytes())) }
