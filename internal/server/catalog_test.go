package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"bess/internal/oid"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/wal"
)

// ddl drives a fixed DDL sequence against a fresh file-backed server in dir
// and returns the log its Close leaves.
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
	b, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCatalogFileReproducible: the same DDL sequence writes the same log,
// run after run — the catalog's only durable form is its records there.
func TestCatalogFileReproducible(t *testing.T) {
	a, b := ddl(t, t.TempDir()), ddl(t, t.TempDir())
	if !bytes.Equal(a, b) {
		t.Fatalf("two runs of one DDL sequence wrote different logs:\n%x\n%x", a, b)
	}
}

// TestCatalogFromOlderBuildRefused: a data directory an older build wrote —
// a gob catalog, or the version-1 write-through catalog.bess, beside that
// build's log — is refused with an error that says why, not opened as if it
// were empty: its log is of an older format.
func TestCatalogFromOlderBuildRefused(t *testing.T) {
	v1 := []byte{0xBE, 0x55, 0xCA, 0x7A, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0} // magic, version 1, NextDB, NextArea, no databases
	v1 = binary.BigEndian.AppendUint32(v1, page.Checksum(v1))
	format6 := []byte{0xBE, 0x55, 0x10, 0x60, 0, 0, 0, 6}
	for name, content := range map[string][]byte{
		"catalog.gob":  []byte("\x3f\xff\x81\x03\x01\x01\x07catalog"),
		"catalog.bess": v1,
	} {
		dir := t.TempDir()
		for file, b := range map[string][]byte{name: content, "wal.log": format6} {
			if err := os.WriteFile(filepath.Join(dir, file), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := Open(dir, 1); !errors.Is(err, wal.ErrOldFormat) {
			t.Fatalf("%s: Open = %v, want wal.ErrOldFormat", name, err)
		}
	}
}

// TestOpenWithoutItsLogKeepsEveryArea: a populated directory that lost its
// log names none of its areas, and each holds segments. Open refuses it and
// removes nothing: every area file is as it was, and a second Open refuses
// it again.
func TestOpenWithoutItsLogKeepsEveryArea(t *testing.T) {
	dir := t.TempDir()
	ddl(t, dir)
	if err := os.Remove(filepath.Join(dir, "wal.log")); err != nil {
		t.Fatal(err)
	}
	areas, err := filepath.Glob(filepath.Join(dir, "area-*.bess"))
	if err != nil || len(areas) < 2 {
		t.Fatalf("the populated directory holds areas %v (%v)", areas, err)
	}
	want := make(map[string][]byte)
	for _, f := range areas {
		if want[f], err = os.ReadFile(f); err != nil {
			t.Fatal(err)
		}
	}
	for try := 0; try < 2; try++ {
		if s, err := Open(dir, 1); !errors.Is(err, ErrUnnamedArea) {
			if err == nil {
				s.Close()
			}
			t.Fatalf("Open without the log: %v, want ErrUnnamedArea", err)
		}
		for f, b := range want {
			if got, err := os.ReadFile(f); err != nil || !bytes.Equal(got, b) {
				t.Fatalf("after a refused Open, %s: %d bytes (%v), want the %d it held", filepath.Base(f), len(got), err, len(b))
			}
		}
	}
}

// TestAddAreaWithoutItsRecordLeavesNoFile: an area is created, whole, before
// the record that names it; an AddArea whose record cannot be logged closes
// the area and removes its file again (discardArea), so nothing the log does
// not name is left for restart to judge.
func TestAddAreaWithoutItsRecordLeavesNoFile(t *testing.T) {
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
	before, _ := filepath.Glob(filepath.Join(dir, "area-*.bess"))
	if err := s.log.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddArea(db); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("AddArea over a closed log: %v, want wal.ErrClosed", err)
	}
	if after, _ := filepath.Glob(filepath.Join(dir, "area-*.bess")); len(after) != len(before) {
		t.Fatalf("area files %v after the failed AddArea, want %v", after, before)
	}
}

// TestMemServerLeavesTheDirectoryAlone: every server opens through restart,
// but only a file-backed one owns a directory. A memory server opened in a
// working directory that holds an area file no log names — one a file
// server's restart would remove — leaves the file where it is.
func TestMemServerLeavesTheDirectoryAlone(t *testing.T) {
	dir := t.TempDir()
	junk := filepath.Join(dir, "area-9.bess")
	if err := os.WriteFile(junk, []byte("not an area"), 0o644); err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	s := NewMem(1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(junk); err != nil || string(b) != "not an area" {
		t.Fatalf("%s after a memory server's open: %q, %v", junk, b, err)
	}
}
