package core

import (
	"bytes"
	"errors"
	"testing"

	"bess/internal/area"
	"bess/internal/fault"
	"bess/internal/largeobj"
	"bess/internal/page"
	"bess/internal/server"
)

// media are a server's devices on simulated stores.
type media struct {
	inj   *fault.Injector
	log   *fault.Store
	areas map[uint32]*fault.Store
}

func newMedia() *media {
	inj := fault.NewInjector(0)
	return &media{inj: inj, log: fault.NewStore(inj), areas: make(map[uint32]*fault.Store)}
}

// open opens a server on the devices, running restart over what they hold.
func (m *media) open(t *testing.T) *server.Server {
	t.Helper()
	s, err := server.OpenMedia(server.Media{Log: m.log.WAL(), NewArea: func(id uint32) (area.Store, error) {
		if m.areas[id] == nil {
			m.areas[id] = fault.NewStore(m.inj)
		}
		return m.areas[id].Area(), nil
	}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// powerLoss returns devices holding what a power loss now leaves: what each
// store had synced.
func (m *media) powerLoss() *media {
	c := newMedia()
	c.log = fault.NewStoreFrom(c.inj, m.log.CrashImage())
	for id, st := range m.areas {
		c.areas[id] = fault.NewStoreFrom(c.inj, st.CrashImage())
	}
	return c
}

// TestVLOSurvivesPowerLoss: a very large object's content is in the log when
// the transaction that wrote it commits, so a power loss right after the
// commit loses none of it, though no area was synced.
func TestVLOSurvivesPowerLoss(t *testing.T) {
	m := newMedia()
	srv := m.open(t)
	db, err := OpenDatabase(srv, "app", "media", true)
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, 64<<10)
	for i := range content {
		content[i] = byte(i%251) + 1 // no byte the zeroed area holds
	}
	vlo, err := db.NewVLO(0)
	if err != nil {
		t.Fatal(err)
	}
	db.Begin()
	if err := vlo.Append(content); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveVLO("clip", vlo); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}

	after := m.powerLoss().open(t)
	defer after.Close()
	db2, err := OpenDatabase(after, "app", "media", false)
	if err != nil {
		t.Fatal(err)
	}
	db2.Begin()
	again, err := db2.OpenVLO("clip")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(content))
	if err := again.Read(0, got); err != nil {
		t.Fatal(err)
	}
	db2.Commit()
	wrong := 0
	for i := range got {
		if got[i] != content[i] {
			wrong++
		}
	}
	if wrong > 0 {
		t.Fatalf("%d of %d bytes wrong after a power loss that followed the commit", wrong, len(content))
	}
}

// TestVLOAbortKeepsCommittedContent: a Write, an Append and an Insert in a
// transaction that aborts change nothing another session reads — not the
// bytes they overwrote in place, not the object's length.
func TestVLOAbortKeepsCommittedContent(t *testing.T) {
	srv, db := openDB(t)
	committed := bytes.Repeat([]byte("committed-"), 20_000) // 200KB
	vlo, err := db.NewVLO(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	db.Begin()
	if err := vlo.Append(committed); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveVLO("v", vlo); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}

	db.Begin()
	if err := vlo.Write(100_000, []byte("<<overwritten>>")); err != nil {
		t.Fatal(err)
	}
	if err := vlo.Append(bytes.Repeat([]byte{0xEE}, 10_000)); err != nil {
		t.Fatal(err)
	}
	if err := vlo.Insert(5, []byte("<<aborted>>")); err != nil {
		t.Fatal(err)
	}
	if err := db.Abort(); err != nil {
		t.Fatal(err)
	}

	other, err := OpenDatabase(srv, "reader", "people", false)
	if err != nil {
		t.Fatal(err)
	}
	other.Begin()
	defer other.Commit()
	seen, err := other.OpenVLO("v")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, seen.Size())
	if err := seen.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, committed) {
		t.Fatalf("after the abort another session reads %d bytes (%d committed) that are not the committed content", len(got), len(committed))
	}
}

// TestVLOAbortRestoresTheHandle: after an aborted Append the handle the
// transaction changed is the committed object again — its size and its bytes
// — and takes the next transaction's changes from there. A call refused for
// its arguments needs no transaction and changes nothing an abort undoes.
func TestVLOAbortRestoresTheHandle(t *testing.T) {
	_, db := openDB(t)
	committed := bytes.Repeat([]byte("c"), 1000)
	vlo, err := db.NewVLO(0)
	if err != nil {
		t.Fatal(err)
	}
	db.Begin()
	if err := vlo.Append(committed); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	// A call refused for its arguments, or with nothing to do, changes
	// nothing, so it needs no transaction.
	if err := vlo.Append(nil); err != nil {
		t.Fatalf("empty append outside a transaction: %v", err)
	}
	if err := vlo.Write(5000, []byte("x")); !errors.Is(err, largeobj.ErrBadRange) {
		t.Fatalf("write past the end outside a transaction: %v, want ErrBadRange", err)
	}
	db.Begin()
	if err := vlo.Delete(0, 5000); !errors.Is(err, largeobj.ErrBadRange) {
		t.Fatalf("delete past the end: %v, want ErrBadRange", err)
	}
	if err := db.Abort(); err != nil {
		t.Fatal(err)
	}
	db.Begin()
	if err := vlo.Append(bytes.Repeat([]byte("a"), 1000)); err != nil {
		t.Fatal(err)
	}
	if err := db.Abort(); err != nil {
		t.Fatal(err)
	}
	read := func() []byte {
		t.Helper()
		got := make([]byte, vlo.Size())
		if err := vlo.Read(0, got); err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := read(); !bytes.Equal(got, committed) {
		t.Fatalf("after the abort the handle reads %d bytes, want the %d committed", len(got), len(committed))
	}
	db.Begin()
	if err := vlo.Append([]byte("next")); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, want := read(), append(bytes.Clone(committed), "next"...); !bytes.Equal(got, want) {
		t.Fatalf("the next transaction's append left %d bytes, want %d", len(got), len(want))
	}
}

// TestVLORotIsRepairedOrRefused: a byte of a committed very large object that
// rots on its area is caught when the object is read — the read is repaired
// from the log, or refused with the typed quarantine error — and never served
// wrong: every byte an object's extent holds is a segment's, under its
// section checksum.
func TestVLORotIsRepairedOrRefused(t *testing.T) {
	m := newMedia()
	srv := m.open(t)
	defer srv.Close()
	db, err := OpenDatabase(srv, "app", "media", true)
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, 64<<10)
	for i := range content {
		content[i] = byte(i%251) + 1
	}
	vlo, err := db.NewVLO(0)
	if err != nil {
		t.Fatal(err)
	}
	db.Begin()
	if err := vlo.Append(content); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveVLO("clip", vlo); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}

	// Rot one byte of the page that holds the object's first bytes.
	rotted := false
	for _, st := range m.areas {
		img := st.Image()
		for off := 0; off+page.Size <= len(img) && !rotted; off += page.Size {
			if bytes.Equal(img[off:off+page.Size], content[:page.Size]) {
				if _, err := st.Area().WriteAt([]byte{^img[off+100]}, int64(off+100)); err != nil {
					t.Fatal(err)
				}
				rotted = true
			}
		}
	}
	if !rotted {
		t.Fatal("no area page holds the object's first bytes")
	}

	reader, err := OpenDatabase(srv, "reader", "media", false)
	if err != nil {
		t.Fatal(err)
	}
	reader.Begin()
	defer reader.Commit()
	again, err := reader.OpenVLO("clip")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(content))
	switch err := again.Read(0, got); {
	case errors.Is(err, server.ErrQuarantined):
	case err != nil:
		t.Fatalf("reading the rotted object: %v, want a repair or server.ErrQuarantined", err)
	case !bytes.Equal(got, content):
		t.Fatal("the rotted object read back wrong with no error")
	}
}
