package server

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bess/internal/oid"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/proto/prototest"
)

// sampleCatalog is a catalog with every list populated.
func sampleCatalog() *catalog {
	c := newCatalog("")
	c.LSN, c.NextDB, c.NextArea = 1<<33|8, 3, 4
	c.Created = []*dbMeta{
		{
			ID: 1, Name: "main", Areas: []uint32{1, 3}, NextFile: 3,
			Created: []*segMeta{
				{Seg: proto.SegKey{Area: 1, Start: 0}, FileID: 1, SlottedPages: 1},
				{Seg: proto.SegKey{Area: 3, Start: 0}, FileID: 2, SlottedPages: 1},
				{Seg: proto.SegKey{Area: 1, Start: 64}, FileID: 1, SlottedPages: 2},
			},
			Types:    []proto.TypeInfo{{ID: 1, Name: "Person", Size: 48, RefOffsets: []int{0, 16}}, {ID: 2, Name: "Leaf", Size: 8}},
			NamesEnc: []byte("names directory blob"),
		},
		{ID: 2, Name: "aux", Areas: []uint32{2}, NextFile: 1},
	}
	return c
}

// lockedCatalog runs the catalog's codec as the server does, under c.mu:
// catalog.Fields asserts it.
type lockedCatalog struct{ *catalog }

func (l *lockedCatalog) Fields(w *proto.Cursor) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.catalog.Fields(w)
}

// TestCatalogLayout holds the catalog file's field list to the same codec
// contract as every wire message, against its own golden vector.
func TestCatalogLayout(t *testing.T) {
	raw, err := os.ReadFile("testdata/catalog.golden")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := hex.DecodeString(string(bytes.TrimSpace(raw)))
	if err != nil {
		t.Fatal(err)
	}
	prototest.Check(t, &lockedCatalog{sampleCatalog()}, func() proto.Message { return &lockedCatalog{newCatalog("")} }, golden)

	c := sampleCatalog()
	c.mu.Lock()
	for _, m := range c.Created {
		c.index(m) // as loadCatalog does
	}
	c.mu.Unlock()
	main := c.DBs["main"]
	if c.ByID[1] != main || c.ByID[2] != c.DBs["aux"] || len(main.Segments) != 3 ||
		!reflect.DeepEqual(main.Files[1], []proto.SegKey{{Area: 1, Start: 0}, {Area: 1, Start: 64}}) {
		t.Fatalf("index of the sample: %+v", main)
	}

	// The smallest database there can be — no name, nothing in it — is the
	// lower bound the decoder holds a database count to: it must load.
	tiny := newCatalog("")
	tiny.Created = []*dbMeta{{}}
	b, err := proto.Encode(&lockedCatalog{tiny})
	if err != nil || len(b) != 4+2+8+4+4+4+dbMetaMin {
		t.Fatalf("smallest database encodes to %d bytes (err %v), dbMetaMin says %d", len(b)-26, err, dbMetaMin)
	}
	if err := proto.Decode(b, &lockedCatalog{newCatalog("")}); err != nil {
		t.Fatalf("catalog with one empty database: %v", err)
	}
}

// ddl drives a fixed DDL sequence against a fresh file-backed server in dir
// and returns the catalog image its Close leaves.
func ddl(t *testing.T, dir string) []byte {
	t.Helper()
	s, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"main", "aux"} {
		db, _, err := s.OpenDB(name, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RegisterType(db, proto.TypeInfo{Name: "Person", Size: 48, RefOffsets: []int{0, 16}}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.AddArea(db); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			fid, err := s.NewFileID(db)
			if err != nil {
				t.Fatal(err)
			}
			for hint := 0; hint < 2; hint++ {
				if _, err := createSeg(s, db, fid, 1, 2, hint); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := s.NameBind(db, "root", oid.OID{Host: 1, DB: uint16(db), Offset: 4096}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "catalog.bess"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCatalogFileReproducible: the same DDL sequence writes the same image,
// run after run — only lists are written, and the stamp is the end of a log
// that is itself reproducible.
func TestCatalogFileReproducible(t *testing.T) {
	a, b := ddl(t, t.TempDir()), ddl(t, t.TempDir())
	if !bytes.Equal(a, b) {
		t.Fatalf("two runs of one DDL sequence wrote different catalogs:\n%x\n%x", a, b)
	}
}

// TestCatalogEveryByteFlip damages a populated catalog one byte at a time:
// Open must refuse each file with ErrCatalogCorrupt — or, were a flip ever to
// slip past the checksum, load exactly the original catalog, never a
// different one.
func TestCatalogEveryByteFlip(t *testing.T) {
	dir := t.TempDir()
	good := ddl(t, dir)
	path := filepath.Join(dir, "catalog.bess")
	want, err := loadCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := range good {
		for _, mask := range []byte{0x01, 0xFF} {
			bad := append([]byte(nil), good...)
			bad[i] ^= mask
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir, 1)
			if err != nil {
				if !errors.Is(err, ErrCatalogCorrupt) {
					t.Fatalf("byte %d ^ %#x: Open = %v, want ErrCatalogCorrupt", i, mask, err)
				}
				continue
			}
			if !reflect.DeepEqual(s.cat.Created, want.Created) || s.cat.NextDB != want.NextDB || s.cat.NextArea != want.NextArea {
				t.Errorf("byte %d ^ %#x: Open loaded a different catalog", i, mask)
			}
			s.Close()
		}
	}
	// A cut file (a torn write of the .tmp never gets renamed, but a copy
	// can be short) is corrupt too, at every length.
	for n := 0; n < len(good); n++ {
		if err := os.WriteFile(path, good[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, 1); !errors.Is(err, ErrCatalogCorrupt) {
			t.Fatalf("%d-byte prefix: Open = %v, want ErrCatalogCorrupt", n, err)
		}
	}
	// The undamaged file still opens, with everything the DDL created.
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !reflect.DeepEqual(s.cat.Created, want.Created) {
		t.Fatal("reopened catalog differs from the one that was written")
	}
}

// TestCatalogFromOlderBuildRefused: a data directory whose catalog was
// written with gob, or as the version-1 write-through file (intact, checksum
// and all), is refused with an error that says why — not opened as if it were
// empty, and not called corrupt.
func TestCatalogFromOlderBuildRefused(t *testing.T) {
	v1 := []byte{0xBE, 0x55, 0xCA, 0x7A, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0} // magic, version 1, NextDB, NextArea, no databases
	v1 = binary.BigEndian.AppendUint32(v1, page.Checksum(v1))
	for name, content := range map[string][]byte{
		"catalog.gob":  []byte("\x3f\xff\x81\x03\x01\x01\x07catalog"),
		"catalog.bess": v1,
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), content, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, 1); !errors.Is(err, ErrCatalogOldFormat) {
			t.Fatalf("%s: Open = %v, want ErrCatalogOldFormat", name, err)
		}
	}
}
