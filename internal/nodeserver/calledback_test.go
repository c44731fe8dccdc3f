package nodeserver

import (
	"testing"

	"bess/internal/client"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/shm"
)

// TestSharedCacheIsCalledBack: a shared-memory process has a segment's page
// in the node's shared cache when a client straight to the server takes X on
// the segment and commits 100 at byte 0 of the page. The callback the X makes
// invalidates the page, so the process reads 100 there once the commit lands;
// then the process writes the page's last byte, and the write-back ships the
// byte it changed over the committed image: the server has both. A page the
// process has changed when it is called back keeps the change too: the
// access after the direct commit writes it back over that commit's image.
func TestSharedCacheIsCalledBack(t *testing.T) {
	srv := newMedia().open(t)
	defer srv.Close()
	ns, err := New(srv, "node", 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := client.Open(ns, "seed", "db", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	k, err := s.CreateSegment(1, 1, 1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	p, err := ns.AttachShared()
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Access(PageOf(k))
	if err != nil {
		t.Fatal(err)
	}
	read := func(at shm.Ref) byte {
		t.Helper()
		var b [1]byte
		if err := p.Read(at, b[:]); err != nil {
			t.Fatal(err)
		}
		return b[0]
	}
	if got := read(r); got != 0 {
		t.Fatalf("a fresh page reads %d at byte 0", got)
	}

	direct, err := srv.Hello("direct")
	if err != nil {
		t.Fatal(err)
	}
	// commit writes v at byte at of the page, straight to the server.
	commit := func(at int, v byte) {
		t.Helper()
		tx, err := srv.NewTx()
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Lock(direct, tx, k, proto.LockX); err != nil {
			t.Fatal(err)
		}
		sl, ov, data, err := srv.FetchSeg(direct, k)
		if err != nil {
			t.Fatal(err)
		}
		data[at] = v
		if err := srv.Publish(direct, tx, nil, []proto.SegImage{{Seg: k, Slotted: sl, Overflow: ov, Data: data}}, false); err != nil {
			t.Fatal(err)
		}
	}
	write := func(at shm.Ref, v byte) {
		t.Helper()
		if err := p.WithLatch(at, func() error { return p.Write(at, []byte{v}) }); err != nil {
			t.Fatal(err)
		}
	}
	server := func() []byte {
		t.Helper()
		_, _, got, err := srv.FetchSeg(direct, k)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	commit(0, 100)
	if got := read(r); got != 100 {
		t.Fatalf("after the direct commit the process reads %d at byte 0, want 100: its page was never called back", got)
	}
	write(r+page.Size-1, 7)
	if err := ns.SharedCache().FlushDirty(); err != nil {
		t.Fatal(err)
	}
	if got := server(); got[0] != 100 || got[page.Size-1] != 7 {
		t.Fatalf("after the write-back the server holds %d at byte 0 and %d at the last byte, want 100 and 7", got[0], got[page.Size-1])
	}

	write(r+1, 9)
	commit(2, 50)
	if got := read(r + 2); got != 50 {
		t.Fatalf("a page changed when it was called back reads %d at byte 2 after the direct commit, want 50", got)
	}
	if got := server(); got[0] != 100 || got[1] != 9 || got[2] != 50 || got[page.Size-1] != 7 {
		t.Fatalf("the server holds %v ... %d, want [100 9 50] ... 7", got[:3], got[page.Size-1])
	}
}
