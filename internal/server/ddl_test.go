package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
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
// call touches, what restart rebuilds from an image plus a log suffix at
// every crash point, and that redo of an add-segment record never clobbers.

// TestCreateSegmentTouchesNoFile is the tier-1 tripwire against a slide back
// to a catalog file rewrite per DDL call: CreateSegment is a buffered log
// append. A hundred of them leave catalog.bess alone — absent before the
// first image, the same inode, size and mtime after it — and force the log
// not once; the image a checkpoint then writes, and equally the log alone,
// give a reopened server all of them.
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
	image := filepath.Join(dir, "catalog.bess")
	var want []proto.SegKey
	create := func(n int) {
		t.Helper()
		before, statErr := os.Stat(image)
		syncs := s.Log().Stats().Syncs
		for i := 0; i < n; i++ {
			key, err := createSeg(s, db, fid, 1, 2, -1)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, key)
		}
		if got := s.Log().Stats().Syncs; got != syncs {
			t.Fatalf("%d CreateSegment calls forced the log %d times", n, got-syncs)
		}
		after, err := os.Stat(image)
		switch {
		case statErr != nil && !os.IsNotExist(err):
			t.Fatalf("CreateSegment created the catalog image (stat: %v)", err)
		case statErr == nil && (err != nil || !os.SameFile(before, after) ||
			!before.ModTime().Equal(after.ModTime()) || before.Size() != after.Size()):
			t.Fatalf("CreateSegment touched the catalog image: %v → %v (%v)", before, after, err)
		}
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

	if _, err := os.Stat(image); !os.IsNotExist(err) {
		t.Fatalf("OpenDB wrote a catalog image (stat: %v)", err)
	}
	create(50) // no image yet
	if err := s.Log().Flush(0); err != nil {
		t.Fatal(err)
	}
	reopened("from the log alone")
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(image); err != nil {
		t.Fatalf("Checkpoint wrote no catalog image: %v", err)
	}
	create(50) // an image in place
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if in := s.Inspect(); in.ImageLSN != s.Log().NextLSN()-checkpointRecordLen(t, s) {
		t.Fatalf("image stamped %d, the checkpoint record that followed it ends the log at %d", in.ImageLSN, s.Log().NextLSN())
	}
	reopened("after a checkpoint")
	// A checkpoint with the catalog unchanged rewrites nothing.
	before, _ := os.Stat(image)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if after, err := os.Stat(image); err != nil || !os.SameFile(before, after) {
		t.Fatalf("a checkpoint with the catalog unchanged replaced the image (%v)", err)
	}
}

// checkpointRecordLen is the length of the log's last record, an empty
// checkpoint's.
func checkpointRecordLen(t *testing.T, s *Server) page.LSN {
	t.Helper()
	var last page.LSN
	if err := s.Log().Iterate(wal.FirstLSN(), func(lsn page.LSN, rec *wal.Record) error {
		if rec.Type == wal.TCheckpoint {
			last = lsn
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return s.Log().NextLSN() - last
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
// the copy table before anyone else can find the key; a creation that fails
// leaves neither behind, so the next segment allocated at the same start does
// not wait on a lock nobody will release for it.
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
	tx1, _ := s.NewTx()
	rep, err := s.CreateSegment(creator, tx1, db, 1, 1, 3, -1)
	if err != nil {
		t.Fatal(err)
	}
	if m := s.locks.Holds(lock.TxID(tx1), segLockName(rep.Seg)); m != lock.X {
		t.Fatalf("the creating transaction holds %v on its segment, want X", m)
	}
	sl, ov, data, err := s.FetchSeg(0, rep.Seg)
	if err != nil {
		t.Fatal(err)
	}
	if h := decodeSeg(t, sl, ov, data).Hdr; rep.DataStart != int64(h.DataStart) || rep.DataPages != int(h.DataPages) || rep.DataPages != 4 {
		t.Fatalf("reply geometry %+v, header %+v: want the settled run, 3 pages rounded to 4", rep, h)
	}
	if err := s.Commit(creator, tx1, nil); err != nil {
		t.Fatal(err)
	}
	other, _ := s.Hello("other")
	tx2, _ := s.NewTx()
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
// deterministic. A checkpoint snapshots the catalog (stamp L), syncs the
// areas, writes the image, and only then appends its record; a segment
// created, updated and committed in between has its add-segment record at or
// above L — restart replays it — while its update records lie below the
// checkpoint record, where page redo never looks. Redo of the add-segment
// that formatted blindly would reset the page and lose the committed object.
// With the data run re-homed by that commit the header no longer even looks
// like the op's segment; the log's later record of the page is what says
// hands off.
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
			// The checkpoint, taken apart: saveCatalog's steps with a client
			// busy between the first and the second.
			img, stamp, err := s.cat.snapshot(false)
			if err != nil || img == nil {
				t.Fatalf("snapshot: %v (%d bytes)", err, len(img))
			}
			key, err := createSeg(s, db, 1, 1, 2, -1)
			if err != nil {
				t.Fatal(err)
			}
			body := bytes.Repeat([]byte("committed "), 20)
			commitImage(t, s, growImage(t, s, key, body, grow))
			if err := s.lookupArea(key.Area).Sync(); err != nil {
				t.Fatal(err)
			}
			if err := s.cat.writeImage(img, stamp); err != nil {
				t.Fatal(err)
			}
			ckpt, err := s.txm.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}

			r, err := Open(copyDir(t, dir), 1)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if in := r.Inspect(); in.ImageLSN != stamp || in.Replayed != 1 || stamp >= ckpt {
				t.Fatalf("restart loaded image %d and replayed %d ops; the test wants the add-segment op replayed on image %d below checkpoint %d",
					in.ImageLSN, in.Replayed, stamp, ckpt)
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

// TestImageNeverAheadOfLog: CreateSegment's record is only buffered when a
// catalog image containing the segment is written. The image write forces the
// log first; an image stamped above the durable log would, after a crash, sit
// over LSNs that records yet to be written will take, and restart would skip
// them.
func TestImageNeverAheadOfLog(t *testing.T) {
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
	key, err := createSeg(s, db, 1, 1, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if durableLSN(s.Log()) == s.Log().NextLSN() {
		t.Fatal("CreateSegment forced the log: the test needs its record buffered")
	}
	if err := s.saveCatalog(false); err != nil { // a checkpoint up to, not including, its record
		t.Fatal(err)
	}
	r, err := Open(copyDir(t, dir), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if in := r.Inspect(); in.Replayed != 0 || in.ImageLSN != r.Log().NextLSN() {
		t.Fatalf("restart loaded image %d on a log ending at %d and replayed %d ops", in.ImageLSN, r.Log().NextLSN(), in.Replayed)
	}
	if segs, err := r.SegmentsOf(db, 1); err != nil || len(segs) != 1 || segs[0] != key {
		t.Fatalf("segments after restart: %v, %v", segs, err)
	}
	// And an image that is ahead of its log — a log that lost its tail — is
	// refused, not trusted.
	crashed := copyDir(t, dir)
	if err := os.Truncate(filepath.Join(crashed, "wal.log"), int64(wal.FirstLSN())); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(crashed, 1); !errors.Is(err, ErrCatalogCorrupt) {
		t.Fatalf("Open with the image ahead of the log: %v, want ErrCatalogCorrupt", err)
	}
	// So is a stamp inside the log at which no record starts (it would read
	// as the end of the log, and every later catalog record would be skipped).
	crashed = copyDir(t, dir)
	img, err := os.ReadFile(filepath.Join(crashed, "catalog.bess"))
	if err != nil {
		t.Fatal(err)
	}
	img = img[:len(img)-4]
	binary.BigEndian.PutUint64(img[6:], uint64(wal.FirstLSN())+3) // magic, version, stamp
	img = binary.BigEndian.AppendUint32(img, page.Checksum(img))
	if err := os.WriteFile(filepath.Join(crashed, "catalog.bess"), img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(crashed, 1); !errors.Is(err, ErrCatalogCorrupt) {
		t.Fatalf("Open with a stamp off every record boundary: %v, want ErrCatalogCorrupt", err)
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
//	cut        the log cut back to the end of an earlier step (no earlier
//	           than the image's stamp: the log is forced before an image is
//	           written) while the area files keep everything written since —
//	           the power loss that takes the log's tail but not the areas';
//	littered   as is, plus a stale catalog.bess.tmp and an area file no
//	           catalog names.
//
// Restart must rebuild exactly the model as of the cut — no more, no less —
// serve every object committed below it, remove the litter and the area
// files of add-area ops above it, and leave a directory that a second restart
// does not change by a byte.
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

	check := func(at string, crashed string, h past) {
		t.Helper()
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
		named := make(map[string]bool)
		for _, d := range h.model.DBs {
			for _, a := range d.Areas {
				named[fmt.Sprintf("area-%d.bess", a)] = true
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
		if in := r.Inspect(); in.Replayed != 0 {
			t.Fatalf("%s: second restart replayed %d catalog records", at, in.Replayed)
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

		// Cut: back to the end of a random earlier step the image allows.
		stamp := s.Inspect().ImageLSN
		var cuts []int
		for i, h := range history[:asIs] {
			if h.end >= stamp && h.end >= wal.FirstLSN() {
				cuts = append(cuts, i)
			}
		}
		if len(cuts) > 0 {
			h := history[cuts[rng.Intn(len(cuts))]]
			crashed := copyDir(t, dir)
			if err := os.Truncate(filepath.Join(crashed, "wal.log"), int64(h.end)); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%s, log cut from %d back to %d", at, durable, h.end), crashed, h)
		}

		// Littered.
		if step%5 == 0 {
			crashed := copyDir(t, dir)
			junk := bytes.Repeat([]byte("torn image "), 50)
			for _, name := range []string{"catalog.bess.tmp", "area-77.bess"} {
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
