package nodeserver

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"bess/internal/cache"
	"bess/internal/client"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/rpc"
	"bess/internal/segment"
	"bess/internal/server"
	"bess/internal/swizzle"
)

var nodeType = segment.TypeDesc{Name: "Node", Size: 16, RefOffsets: []int{0}}

func val(v uint64) []byte {
	b := make([]byte, 16)
	binary.BigEndian.PutUint64(b[8:], v)
	return b
}

// env builds server ← RPC ← node server.
func env(t *testing.T) (*server.Server, *NodeServer) {
	t.Helper()
	srv := server.NewMem(1)
	t.Cleanup(func() { srv.Close() })
	cEnd, sEnd := rpc.Pipe()
	server.ServePeer(srv, sEnd)
	up := client.NewRemote(cEnd)
	ns, err := New(up, "node-1", 32, 64)
	if err != nil {
		t.Fatal(err)
	}
	return srv, ns
}

func TestLocalSessionsShareNodeCache(t *testing.T) {
	_, ns := env(t)
	s1, err := client.Open(ns, "app-A", "db", true)
	if err != nil {
		t.Fatal(err)
	}
	td, _ := s1.RegisterType(nodeType)
	seg, _ := s1.CreateSegment(1, 1, 2, -1)
	s1.Begin()
	addr, err := s1.CreateObject(seg, td.ID, val(5))
	if err != nil {
		t.Fatal(err)
	}
	s1.SetRoot("shared", addr)
	if err := s1.Commit(); err != nil {
		t.Fatal(err)
	}

	// The commit dropped the node's image (what the server wrote is not what
	// the committer shipped), so the second local application's fetch fills the
	// node cache from upstream — once — and the third is served from it.
	read := func(name string) {
		t.Helper()
		s, err := client.Open(ns, name, "db", false)
		if err != nil {
			t.Fatal(err)
		}
		s.Begin()
		obj, err := s.Root("shared")
		if err != nil {
			t.Fatal(err)
		}
		var b [8]byte
		obj.Read(8, b[:])
		if binary.BigEndian.Uint64(b[:]) != 5 {
			t.Fatalf("%s: value = %d", name, binary.BigEndian.Uint64(b[:]))
		}
		s.Commit()
	}
	before := ns.Snapshot()
	read("app-B")
	filled := ns.Snapshot()
	if got := filled.UpstreamFetches - before.UpstreamFetches; got != 1 {
		t.Fatalf("first fetch after a local commit: %d upstream fetches, want 1", got)
	}
	read("app-C")
	after := ns.Snapshot()
	if after.UpstreamFetches != filled.UpstreamFetches {
		t.Fatalf("node cache missed: %d -> %d upstream fetches", filled.UpstreamFetches, after.UpstreamFetches)
	}
	if after.LocalHits <= filled.LocalHits {
		t.Fatal("no local hits recorded")
	}
}

// TestLocalFetchLeavesNodeCacheIntact: a fetched image is the session's to
// write to — the mapper swizzles references in place — so the node hands each
// local session its own copy; the cached image keeps its persistent
// references for the next local.
func TestLocalFetchLeavesNodeCacheIntact(t *testing.T) {
	srv, ns := env(t)
	// The writer commits at the server itself, so the node cache fills from
	// upstream on the first local fetch and hits on the second.
	w, err := client.Open(srv, "writer", "db", true)
	if err != nil {
		t.Fatal(err)
	}
	td, _ := w.RegisterType(nodeType)
	segA, _ := w.CreateSegment(1, 1, 2, -1)
	segB, _ := w.CreateSegment(1, 1, 2, -1)
	w.Begin()
	b, err := w.CreateObject(segB, td.ID, val(2))
	if err != nil {
		t.Fatal(err)
	}
	a, err := w.CreateObject(segA, td.ID, val(1))
	if err != nil {
		t.Fatal(err)
	}
	objA, _ := w.Deref(a)
	if err := objA.SetRefField(0, b); err != nil {
		t.Fatal(err)
	}
	w.SetRoot("head", a)
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	var cached []byte
	for _, name := range []string{"app-A", "app-B"} {
		s, err := client.Open(ns, name, "db", false)
		if err != nil {
			t.Fatal(err)
		}
		s.Begin()
		head, err := s.Root("head")
		if err != nil {
			t.Fatal(err)
		}
		next, err := head.RefField(0)
		if err != nil {
			t.Fatalf("%s: reference field: %v", name, err)
		}
		objB, err := s.Deref(next)
		if err != nil {
			t.Fatalf("%s: chased A -> B: %v", name, err)
		}
		var v [8]byte
		objB.Read(8, v[:])
		if got := binary.BigEndian.Uint64(v[:]); got != 2 {
			t.Fatalf("%s: chased value = %d, want 2", name, got)
		}
		s.Commit()
		ns.mu.Lock()
		now := bytes.Clone(ns.images[segA].Data)
		ns.mu.Unlock()
		if cached == nil {
			cached = now
		}
		if raw := binary.BigEndian.Uint64(now); len(now) == 0 || !bytes.Equal(now, cached) || swizzle.IsSwizzled(raw) {
			t.Fatalf("%s swizzled the node's cached image of A in place (reference field %#x)", name, raw)
		}
	}
}

func TestIntraNodeInvalidation(t *testing.T) {
	_, ns := env(t)
	ns.SetLockTimeout(300 * time.Millisecond)
	s1, _ := client.Open(ns, "writer", "db", true)
	td, _ := s1.RegisterType(nodeType)
	seg, _ := s1.CreateSegment(1, 1, 2, -1)
	s1.Begin()
	addr, _ := s1.CreateObject(seg, td.ID, val(1))
	s1.SetRoot("x", addr)
	s1.Commit()

	s2, _ := client.Open(ns, "reader", "db", false)
	s2.Begin()
	if _, err := s2.Root("x"); err != nil {
		t.Fatal(err)
	}
	s2.Commit() // idle copy

	// Writer updates through the node: the reader's idle local copy drops.
	s1.Begin()
	obj, _ := s1.Deref(addr)
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], 2)
	if err := obj.Write(8, buf[:]); err != nil {
		t.Fatal(err)
	}
	if err := s1.Commit(); err != nil {
		t.Fatal(err)
	}
	if ns.Snapshot().LocalCallbacks == 0 {
		t.Fatal("no local callbacks issued")
	}

	// Reader sees the committed value.
	s2.Begin()
	obj2, err := s2.Root("x")
	if err != nil {
		t.Fatal(err)
	}
	obj2.Read(8, buf[:])
	if binary.BigEndian.Uint64(buf[:]) != 2 {
		t.Fatalf("reader sees %d", binary.BigEndian.Uint64(buf[:]))
	}
	s2.Commit()
}

func TestUpstreamCallbackReachesLocals(t *testing.T) {
	srv, ns := env(t)
	srv.SetLockTimeout(500 * time.Millisecond)
	// A local session on the node caches the segment.
	local, _ := client.Open(ns, "local", "db", true)
	td, _ := local.RegisterType(nodeType)
	seg, _ := local.CreateSegment(1, 1, 2, -1)
	local.Begin()
	addr, _ := local.CreateObject(seg, td.ID, val(7))
	local.SetRoot("y", addr)
	local.Commit()

	// A direct client (another "workstation") updates the same segment:
	// the server calls back the node server, which revokes the local copy.
	direct, err := client.Open(srv, "direct", "db", false)
	if err != nil {
		t.Fatal(err)
	}
	direct.Begin()
	dobj, err := direct.Root("y")
	if err != nil {
		t.Fatal(err)
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], 8)
	if err := dobj.Write(8, buf[:]); err != nil {
		t.Fatal(err)
	}
	if err := direct.Commit(); err != nil {
		t.Fatal(err)
	}
	if ns.Snapshot().Callbacks == 0 {
		t.Fatal("upstream callback never reached the node")
	}

	// The local session refetches fresh data.
	local.Begin()
	lobj, err := local.Root("y")
	if err != nil {
		t.Fatal(err)
	}
	lobj.Read(8, buf[:])
	if binary.BigEndian.Uint64(buf[:]) != 8 {
		t.Fatalf("local sees %d after upstream invalidation", binary.BigEndian.Uint64(buf[:]))
	}
	local.Commit()
}

func TestSharedMemoryModeOnNode(t *testing.T) {
	_, ns := env(t)
	s, _ := client.Open(ns, "seed", "db", true)
	// Two pages in segments of their own, written by a committed
	// transaction (a very large object's runs), so the shared cache has real
	// disk pages to serve.
	store := s.RunStore()
	s.Begin()
	if _, _, err := store.Alloc(2); err != nil {
		t.Fatal(err)
	}
	at, _, err := store.Alloc(2)
	if err != nil {
		t.Fatal(err)
	}
	pageData := make([]byte, 2*page.Size)
	copy(pageData, []byte("shared-mode-page"))
	if err := store.WriteRun(at, pageData); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	seg := proto.SegKey{Area: uint32(at >> 32), Start: int64(at & (1<<32 - 1))}

	p1, err := ns.AttachShared()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ns.AttachShared()
	if err != nil {
		t.Fatal(err)
	}
	id := PageOf(seg)
	r1, err := p1.Access(id)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	if err := p1.Read(r1, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "shared-mode-page" {
		t.Fatalf("p1 read %q", got)
	}
	// Second process sees the same page at the same shared ref, in place.
	r2, err := p2.Access(id)
	if err != nil {
		t.Fatal(err)
	}
	if r2 != r1 {
		t.Fatalf("refs differ: %v vs %v", r1, r2)
	}
	if err := p2.Write(r2, []byte("UPDATED")); err != nil {
		t.Fatal(err)
	}
	if err := p1.Read(r1, got[:7]); err != nil {
		t.Fatal(err)
	}
	if string(got[:7]) != "UPDATED" {
		t.Fatalf("p1 sees %q after p2's in-place write", got[:7])
	}
	// Write-back reaches the server's disk.
	if err := ns.SharedCache().FlushDirty(); err != nil {
		t.Fatal(err)
	}
	_, _, back, err := ns.Conn.FetchSeg(0, seg)
	if err != nil {
		t.Fatal(err)
	}
	if string(back[:7]) != "UPDATED" {
		t.Fatalf("disk has %q", back[:7])
	}
}

func TestReleasedRefCounting(t *testing.T) {
	_, ns := env(t)
	s1, _ := client.Open(ns, "a", "db", true)
	s2, _ := client.Open(ns, "b", "db", false)
	td, _ := s1.RegisterType(nodeType)
	seg, _ := s1.CreateSegment(1, 1, 2, -1)
	s1.Begin()
	addr, _ := s1.CreateObject(seg, td.ID, val(1))
	s1.SetRoot("r", addr)
	s1.Commit()
	s2.Begin()
	s2.Root("r")
	s2.Commit()

	// Only one of two locals releases: the node keeps its image.
	if err := ns.Released(s2.Client(), []proto.SegKey{seg}); err != nil {
		t.Fatal(err)
	}
	ns.mu.Lock()
	_, still := ns.images[seg]
	ns.mu.Unlock()
	if !still {
		t.Fatal("image dropped while a local still holds a copy")
	}
}

// TestDepartedLocalUnpinsVersions: a local application that leaves the node
// inside a snapshot stops pinning the server's versions. Upstream every
// snapshot is the node's, so only the node can close it, and Disconnect
// does: commits after the departure retain nothing. A local cannot close
// another local's snapshot either.
func TestDepartedLocalUnpinsVersions(t *testing.T) {
	srv, ns := env(t)
	w, _ := client.Open(ns, "writer", "db", true)
	td, _ := w.RegisterType(nodeType)
	seg, _ := w.CreateSegment(1, 1, 2, -1)
	w.Begin()
	addr, _ := w.CreateObject(seg, td.ID, val(0))
	w.SetRoot("x", addr)
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	write := func(v uint64) {
		t.Helper()
		w.Begin()
		obj, err := w.Deref(addr)
		if err != nil {
			t.Fatal(err)
		}
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], v)
		if err := obj.Write(8, buf[:]); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	leaving, _ := ns.Hello("leaving")
	other, _ := ns.Hello("other")
	snap, _, err := ns.SnapOpen(leaving)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v <= 4; v++ {
		write(v)
	}
	if n := srv.VersionStats().Entries; n == 0 {
		t.Fatal("commits under an open snapshot retained no version")
	}
	if err := ns.SnapClose(other, snap); !errors.Is(err, cache.ErrNotOwner) {
		t.Fatalf("another local's close: %v, want cache.ErrNotOwner", err)
	}
	ns.Disconnect(leaving)
	for v := uint64(5); v <= 8; v++ {
		write(v)
	}
	if st := srv.VersionStats(); st.Entries != 0 {
		t.Fatalf("after the local left: %+v", st)
	}
}

// midOpenUpstream runs leave once the upstream SnapOpen has answered, before
// the node has recorded the snapshot it opened.
type midOpenUpstream struct {
	proto.Conn
	leave func()
}

func (u *midOpenUpstream) SnapOpen(c uint32) (uint64, uint64, error) {
	snap, stamp, err := u.Conn.SnapOpen(c)
	if u.leave != nil {
		u.leave()
	}
	return snap, stamp, err
}

// TestLocalLeavingMidOpenUnpinsVersions: a local that leaves while its
// SnapOpen is upstream gets no snapshot, and the one the server opened for
// it is closed — commits after the departure retain nothing.
func TestLocalLeavingMidOpenUnpinsVersions(t *testing.T) {
	srv := server.NewMem(1)
	t.Cleanup(func() { srv.Close() })
	up := &midOpenUpstream{Conn: srv}
	ns, err := New(up, "node-1", 32, 64)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := client.Open(ns, "writer", "db", true)
	td, _ := w.RegisterType(nodeType)
	seg, _ := w.CreateSegment(1, 1, 2, -1)
	w.Begin()
	addr, _ := w.CreateObject(seg, td.ID, val(0))
	w.SetRoot("x", addr)
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	leaving, _ := ns.Hello("leaving")
	up.leave = func() { ns.Disconnect(leaving) }
	if _, _, err := ns.SnapOpen(leaving); err == nil {
		t.Fatal("a local that left mid-open got a snapshot")
	}
	up.leave = nil
	w.Begin()
	obj, err := w.Deref(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Write(8, val(1)[8:]); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := srv.VersionStats(); st.Entries != 0 {
		t.Fatalf("after the local left mid-open: %+v", st)
	}
	ns.mu.Lock()
	left := len(ns.snaps)
	ns.mu.Unlock()
	if left != 0 {
		t.Fatalf("the node still records %d snapshots", left)
	}
}
