package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync/atomic"
	"testing"

	"bess/internal/segment"
	"bess/internal/server"
)

// person mirrors the paper's Person example: name (fixed 24 bytes) and a
// spouse reference.
type person struct {
	Name   string
	Spouse Ref
}

const personSize = 32 // ref(8) + name(24)

var personDesc = TypeDesc{Name: "Person", Size: personSize, RefOffsets: []int{0}}

func encPerson(p *person) []byte {
	b := make([]byte, personSize)
	binary.BigEndian.PutUint64(b[0:8], uint64(p.Spouse.Addr()))
	copy(b[8:], p.Name)
	return b
}

func decPerson(b []byte) *person {
	name := bytes.TrimRight(b[8:32], "\x00")
	return &person{Name: string(name)}
}

func openDB(t *testing.T) (*server.Server, *Database) {
	t.Helper()
	srv := server.NewMem(1)
	t.Cleanup(func() { srv.Close() })
	db, err := OpenDatabase(srv, "test-app", "people", true)
	if err != nil {
		t.Fatal(err)
	}
	return srv, db
}

func TestPersonGraph(t *testing.T) {
	_, db := openDB(t)
	personType, err := Register(db, personDesc, encPerson, decPerson)
	if err != nil {
		t.Fatal(err)
	}
	f, err := db.CreateFile("people")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	alice, err := personType.New(f, &person{Name: "Alice"})
	if err != nil {
		t.Fatal(err)
	}
	bob, err := personType.New(f, &person{Name: "Bob"})
	if err != nil {
		t.Fatal(err)
	}
	// p->spouse->name style navigation (paper §2.5).
	aObj, _ := db.Deref(alice)
	if err := aObj.SetRef(0, bob); err != nil {
		t.Fatal(err)
	}
	bObj, _ := db.Deref(bob)
	if err := bObj.SetRef(0, alice); err != nil {
		t.Fatal(err)
	}
	if err := db.SetRoot("alice", alice); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}

	db.Begin()
	root, err := db.Root("alice")
	if err != nil {
		t.Fatal(err)
	}
	spouseRef, err := root.Ref(0)
	if err != nil {
		t.Fatal(err)
	}
	spouse, err := personType.Get(db, spouseRef)
	if err != nil {
		t.Fatal(err)
	}
	if spouse.Name != "Bob" {
		t.Fatalf("spouse = %q", spouse.Name)
	}
	// And back: alice is her spouse's spouse.
	sObj, _ := db.Deref(spouseRef)
	backRef, _ := sObj.Ref(0)
	back, _ := personType.Get(db, backRef)
	if back.Name != "Alice" {
		t.Fatalf("spouse's spouse = %q", back.Name)
	}
	db.Commit()
}

func TestGlobalRef(t *testing.T) {
	_, db := openDB(t)
	personType, _ := Register(db, personDesc, encPerson, decPerson)
	f, _ := db.CreateFile("people")
	db.Begin()
	r, _ := personType.New(f, &person{Name: "Carol"})
	g := db.GlobalRefOf(r)
	if g.OID.IsNil() {
		t.Fatal("nil OID")
	}
	db.Commit()

	db.Begin()
	obj, err := db.DerefGlobal(g)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := obj.Bytes()
	if decPerson(b).Name != "Carol" {
		t.Fatal("global deref content")
	}
	db.Commit()
}

func TestFileGrowsSegments(t *testing.T) {
	_, db := openDB(t)
	blob, _ := db.RegisterType(TypeDesc{Name: "Blob", Size: 0})
	f, err := db.CreateFile("blobs", WithGeometry(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	db.Begin()
	// Far more data than one small segment holds.
	var refs []Ref
	for i := 0; i < 300; i++ {
		r, err := f.New(blob, bytes.Repeat([]byte{byte(i)}, 200))
		if err != nil {
			t.Fatalf("object %d: %v", i, err)
		}
		refs = append(refs, r)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	segs, err := f.segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("file never grew: %d segments", len(segs))
	}
	// Everything readable via scan.
	db.Begin()
	count := 0
	err = f.Scan(func(o *Object) error {
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 300 {
		t.Fatalf("scan saw %d objects", count)
	}
	db.Commit()
	_ = refs
}

func TestOpenFileByName(t *testing.T) {
	_, db := openDB(t)
	blob, _ := db.RegisterType(TypeDesc{Name: "Blob", Size: 0})
	f, _ := db.CreateFile("stuff")
	db.Begin()
	f.New(blob, []byte("hello"))
	db.Commit()

	f2, err := db.OpenFile("stuff")
	if err != nil {
		t.Fatal(err)
	}
	if f2.ID() != f.ID() {
		t.Fatalf("reopened id %d != %d", f2.ID(), f.ID())
	}
	if _, err := db.OpenFile("missing"); err == nil {
		t.Fatal("opened missing file")
	}
}

func TestMultifileParallelScan(t *testing.T) {
	srv, db := openDB(t)
	blob, _ := db.RegisterType(TypeDesc{Name: "Blob", Size: 0})
	f, err := db.CreateFile("media", AsMultifile(3), WithGeometry(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !f.IsMultifile() {
		t.Fatal("not a multifile")
	}
	db.Begin()
	for i := 0; i < 120; i++ {
		if _, err := f.New(blob, bytes.Repeat([]byte{1}, 500)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	// Segments must span several areas.
	segs, _ := f.segments()
	areas := map[uint32]bool{}
	for _, s := range segs {
		areas[s.Area] = true
	}
	if len(areas) < 2 {
		t.Fatalf("multifile stayed in %d area(s) over %d segments", len(areas), len(segs))
	}
	// Parallel content analysis (the Prospector/MoonBase use case).
	var count atomic.Int64
	err = f.ParallelScan(srv, "people", 4, func(_ segment.TypeID, data []byte) error {
		if len(data) != 500 {
			return errors.New("bad object")
		}
		count.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != 120 {
		t.Fatalf("parallel scan saw %d", count.Load())
	}
}

func TestTransparentLargeThroughFile(t *testing.T) {
	_, db := openDB(t)
	f, _ := db.CreateFile("big")
	content := bytes.Repeat([]byte("media"), 8000) // 40KB
	db.Begin()
	r, err := f.NewLarge(0, content)
	if err != nil {
		t.Fatal(err)
	}
	db.Commit()

	db.Begin()
	obj, err := db.Deref(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := obj.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("large content mismatch")
	}
	db.Commit()
}

func TestVLOLifecycle(t *testing.T) {
	_, db := openDB(t)
	vlo, err := db.NewVLO(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	base := bytes.Repeat([]byte("0123456789"), 50_000) // 500KB
	if err := vlo.Append(base); err != nil {
		t.Fatal(err)
	}
	if err := vlo.Insert(1000, []byte("<<injected>>")); err != nil {
		t.Fatal(err)
	}
	db.Begin()
	if err := db.SaveVLO("track-1", vlo); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}

	db.Begin()
	again, err := db.OpenVLO("track-1")
	if err != nil {
		t.Fatal(err)
	}
	db.Commit()
	if again.Size() != vlo.Size() {
		t.Fatalf("size %d != %d", again.Size(), vlo.Size())
	}
	buf := make([]byte, 12)
	if err := again.Read(1000, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "<<injected>>" {
		t.Fatalf("read %q", buf)
	}
}

func TestDeleteRemovesRoot(t *testing.T) {
	_, db := openDB(t)
	personType, _ := Register(db, personDesc, encPerson, decPerson)
	f, _ := db.CreateFile("people")
	db.Begin()
	r, _ := personType.New(f, &person{Name: "Dave"})
	db.SetRoot("dave", r)
	db.Commit()

	db.Begin()
	obj, _ := db.Deref(r)
	if err := obj.Delete(); err != nil {
		t.Fatal(err)
	}
	db.Commit()

	db.Begin()
	if _, err := db.Root("dave"); err == nil {
		t.Fatal("root name survived deletion")
	}
	db.Abort()
}

func TestNilRefGuards(t *testing.T) {
	_, db := openDB(t)
	if _, err := db.Deref(NilRef); !errors.Is(err, ErrNilRef) {
		t.Fatalf("deref nil: %v", err)
	}
	if err := db.SetRoot("x", NilRef); !errors.Is(err, ErrNilRef) {
		t.Fatalf("root nil: %v", err)
	}
	if !NilRef.IsNil() {
		t.Fatal("NilRef not nil")
	}
}

// TestTypedPut: Put re-encodes a typed object in place, and the next
// transaction reads the new value through Get.
func TestTypedPut(t *testing.T) {
	_, db := openDB(t)
	ty, _ := Register(db, personDesc, encPerson, decPerson)
	f, _ := db.CreateFile("people")
	db.Begin()
	r, err := ty.New(f, &person{Name: "Erin"})
	if err != nil {
		t.Fatal(err)
	}
	db.Commit()

	db.Begin()
	if err := ty.Put(db, r, &person{Name: "Frank"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	db.Begin()
	defer db.Commit()
	if p, err := ty.Get(db, r); err != nil || p.Name != "Frank" {
		t.Fatalf("after Put: %+v, %v", p, err)
	}
}

// TestUnsetRootKeepsTheObject: UnsetRoot removes a name and nothing else —
// the object stays where its references find it — and a name that is not
// bound cannot be removed.
func TestUnsetRootKeepsTheObject(t *testing.T) {
	_, db := openDB(t)
	ty, _ := Register(db, personDesc, encPerson, decPerson)
	f, _ := db.CreateFile("people")
	db.Begin()
	r, _ := ty.New(f, &person{Name: "Gil"})
	if err := db.SetRoot("gil", r); err != nil {
		t.Fatal(err)
	}
	db.Commit()

	if err := db.UnsetRoot("gil"); err != nil {
		t.Fatal(err)
	}
	db.Begin()
	defer db.Commit()
	if _, err := db.Root("gil"); err == nil {
		t.Fatal("the root survived UnsetRoot")
	}
	if p, err := ty.Get(db, r); err != nil || p.Name != "Gil" {
		t.Fatalf("the object after UnsetRoot: %+v, %v", p, err)
	}
	if err := db.UnsetRoot("gil"); err == nil {
		t.Fatal("UnsetRoot of a name no longer bound succeeded")
	}
}
