package client

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"bess/internal/lockcheck"
	"bess/internal/nodeserver"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/rpc"
	"bess/internal/segment"
	"bess/internal/server"
	"bess/internal/swizzle"
	"bess/internal/vmem"
)

// A commit ships a segment's data section the way it lies in the client's
// cache: lent, not copied (swizzle.Mapper.UnswizzledData), because no
// proto.Conn keeps a shipped byte past Commit or Prepare. These tests pin
// what shipping costs and that the lending is safe.

// TestCommitShipAllocs: a commit of 16 full data sections over a loopback
// Remote allocates, client and server together, at most 1.5 bytes per byte
// shipped: the send batch the request is encoded into and the server's read
// of the segments' current image. The frame the server reads the request
// into is the body an earlier commit of the same shape gave back to the
// server's peer (rpc.Peer's lent Commit bodies), not a fresh one; a fresh one
// made it 3.3, and copying each section before shipping it and encoding the
// request apart from the batch made it 5.
func TestCommitShipAllocs(t *testing.T) {
	if lockcheck.Enabled {
		t.Skip("the instrumented locks allocate on every Lock")
	}
	const nSegs, dataPages, objSize = 16, 126, 4000
	// File-backed: an in-memory log and area grow by copying, whichever
	// commit they happen to outgrow their buffers in.
	srv, err := server.Open(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cEnd, sEnd := rpc.Pipe()
	server.ServePeer(srv, sEnd)
	r := NewRemote(cEnd)
	defer r.Close()
	s, err := Open(r, "shipper", "testdb", true)
	if err != nil {
		t.Fatal(err)
	}
	td, err := s.RegisterType(blobType)
	if err != nil {
		t.Fatal(err)
	}
	segs := make([]proto.SegKey, nSegs)
	for i := range segs {
		if segs[i], err = s.CreateSegment(1, 1, dataPages, -1); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	for _, k := range segs {
		for j := 0; j < dataPages*page.Size/objSize; j++ {
			if _, err := s.CreateObject(k, td.ID, make([]byte, objSize)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	// The measured commit changes a word of every object: every data page.
	// A commit of the same shape goes first, and its body back to the
	// server's peer, for the measured one to be read into.
	shipped := 0
	write := func(word []byte) {
		if err := s.Begin(); err != nil {
			t.Fatal(err)
		}
		shipped = 0
		for _, k := range segs {
			err := s.ScanSegment(k, func(_ vmem.Addr, obj *swizzle.Object) error {
				return obj.Write(0, word)
			})
			if err != nil {
				t.Fatal(err)
			}
			seg, _ := s.Mapper().Seg(segID(k))
			shipped += len(seg.Data)
		}
	}
	write([]byte{0xB0, 0x55})
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); sEnd.WireStats().Idle == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the server's peer never had the commit's body back")
		}
	}
	write([]byte{0x5E, 0xED})
	reused := sEnd.WireStats().Reused
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = s.Commit()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if sEnd.WireStats().Reused != reused+1 {
		t.Fatal("the measured commit was not read into a lent body")
	}
	per := float64(after.TotalAlloc-before.TotalAlloc) / float64(shipped)
	t.Logf("commit of %d data bytes: %.2f bytes allocated per byte shipped", shipped, per)
	if per > 1.5 {
		t.Fatalf("a commit of %d data bytes allocated %.2f bytes per byte shipped, want <= 1.5", shipped, per)
	}
}

// TestCommitLendsLiveSections: the data section a commit ships is the
// client's own, and the client writes to it again the moment the commit (or
// the prepare) returns. Through the server linked in and through a node
// server, what the server then serves — and what it finds after a restart —
// is what was committed, never what the section held later.
func TestCommitLendsLiveSections(t *testing.T) {
	dir := t.TempDir()
	srv, err := server.Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	cEnd, sEnd := rpc.Pipe()
	server.ServePeer(srv, sEnd)
	up := NewRemote(cEnd)
	ns, err := nodeserver.New(up, "node", 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	conns := []struct {
		name string
		conn proto.Conn
	}{{"server", srv}, {"node", ns}}

	// want is what each segment's object 0 holds once committed.
	want := map[proto.SegKey][]byte{}
	for i, c := range conns {
		s, err := Open(c.conn, "lender-"+c.name, "testdb", true)
		if err != nil {
			t.Fatal(err)
		}
		td, err := s.RegisterType(blobType)
		if err != nil {
			t.Fatal(err)
		}
		for j, twoPhase := range []bool{false, true} {
			key, err := s.CreateSegment(1, 1, 2, -1)
			if err != nil {
				t.Fatal(err)
			}
			committed := bytes.Repeat([]byte{byte(0x10*i + j + 1)}, 64)
			if err := s.Begin(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.CreateObject(key, td.ID, committed); err != nil {
				t.Fatal(err)
			}
			if twoPhase {
				err = s.PrepareCommit()
			} else {
				err = s.Commit()
			}
			if err != nil {
				t.Fatal(err)
			}
			// The section is the client's again: scribble over all of it.
			seg, _ := s.Mapper().Seg(segID(key))
			for b := range seg.Data {
				seg.Data[b] = 0xEE
			}
			if twoPhase {
				if err := s.FinishCommit(true); err != nil {
					t.Fatal(err)
				}
			}
			want[key] = committed
			if got := servedObject0(t, c.conn, s.Client(), key); !bytes.Equal(got, committed) {
				t.Fatalf("%s, two-phase %v: served %x, committed %x", c.name, twoPhase, got[:8], committed[:8])
			}
		}
	}

	if err := up.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv, err = server.Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := srv.Hello("reader")
	if err != nil {
		t.Fatal(err)
	}
	for key, committed := range want {
		if got := servedObject0(t, srv, cl, key); !bytes.Equal(got, committed) {
			t.Fatalf("after restart, segment %v: %x, committed %x", key, got[:8], committed[:8])
		}
	}
}

// servedObject0 fetches seg from conn and returns the bytes of its object in
// slot 0, checked against the image's own checksums.
func servedObject0(t *testing.T, conn proto.Conn, client uint32, key proto.SegKey) []byte {
	t.Helper()
	sl, _, data, err := conn.FetchSeg(client, key)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := segment.DecodeSlotted(sl)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.VerifyData(data); err != nil {
		t.Fatal(err)
	}
	sl0 := dec.Slots[0]
	if sl0.Kind != segment.KindSmall {
		t.Fatalf("segment %v slot 0 is %v", key, sl0.Kind)
	}
	return data[sl0.DataOff : sl0.DataOff+uint64(sl0.Size)]
}
