package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"bess/internal/area"
	"bess/internal/buddy"
	"bess/internal/client"
	"bess/internal/goleak"
	"bess/internal/oid"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/rpc"
)

// callPeer builds a served pipe and a typed call helper, exercising the
// ServePeer surface end to end.
func callPeer(t *testing.T) (*Server, *rpc.Peer) {
	t.Helper()
	s := NewMem(1)
	t.Cleanup(func() { s.Close() })
	cEnd, sEnd := rpc.Pipe()
	ServePeer(s, sEnd)
	t.Cleanup(func() { cEnd.Close() })
	return s, cEnd
}

// TestRPCFullSurface drives every proto.Conn method of client.Remote against
// ServePeer over a pipe: each call and its handler, end to end.
func TestRPCFullSurface(t *testing.T) {
	s, p := callPeer(t)
	r := client.NewRemote(p)

	cl, err := r.Hello("rpc-test")
	if err != nil {
		t.Fatal(err)
	}
	if cl == 0 {
		t.Fatal("no client id")
	}

	db, _, err := r.OpenDB("db", true)
	if err != nil {
		t.Fatal(err)
	}

	fid, err := r.NewFileID(db)
	if err != nil {
		t.Fatal(err)
	}
	if fid == 0 {
		t.Fatal("file id 0")
	}

	if _, err := r.AddArea(db); err != nil {
		t.Fatal(err)
	}

	if _, err := r.RegisterType(db, proto.TypeInfo{Name: "T", Size: 16, RefOffsets: []int{0}}); err != nil {
		t.Fatal(err)
	}
	tys, err := r.Types(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(tys) != 1 || tys[0].Name != "T" {
		t.Fatalf("types = %+v", tys)
	}

	runs, err := r.ReserveSegments(cl, db, 1, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cs := proto.Created{Reserved: runs[0], FileID: fid}
	if len(runs) != 1 || cs.DataPages != 2 || cs.DataStart == 0 {
		t.Fatalf("reserve reply carries %+v, want one run pair with the granted 2 data pages and their start", runs)
	}
	if _, err := r.SegInfo(cs.Seg); err == nil {
		t.Fatal("SegInfo found a segment before the commit that publishes it")
	}
	ptx, err := r.NewTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Publish(cl, ptx, []proto.Created{cs}, nil, false); err != nil {
		t.Fatal(err)
	}
	n, err := r.SegInfo(cs.Seg)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("slotted pages = %d", n)
	}

	segs, err := r.SegmentsOf(db, fid)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0] != cs.Seg {
		t.Fatalf("segments = %v", segs)
	}

	fetch := &proto.ClientSegArgs{Client: cl, Seg: cs.Seg}
	// The two-step fetch and the large-object pair are off the wire: a peer
	// that still asks is told so.
	body, err := proto.Encode(fetch)
	if err != nil {
		t.Fatal(err)
	}
	for _, retired := range []string{"FetchSlotted", "FetchData", "FetchLarge", "StoreLarge"} {
		if _, err := p.CallRaw(retired, body); err == nil || !strings.Contains(err.Error(), rpc.ErrNoHandler.Error()) {
			t.Fatalf("%s: %v, want %v", retired, err, rpc.ErrNoHandler)
		}
	}
	sl, ov, data, err := r.FetchSeg(cl, cs.Seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sl) == 0 || len(data) == 0 {
		t.Fatalf("combined fetch image: %d slotted, %d data bytes", len(sl), len(data))
	}
	// Remote hands back the parts; the reply itself names its segment.
	var img proto.SegImage
	if err := rpc.Call(p, proto.MethodFetchSeg, fetch, &img); err != nil {
		t.Fatal(err)
	}
	if img.Seg != cs.Seg {
		t.Fatalf("combined fetch image = %+v", img.Seg)
	}

	tx, err := r.NewTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Lock(cl, tx, cs.Seg, proto.LockX); err != nil {
		t.Fatal(err)
	}
	if err := r.LockObject(cl, tx, cs.Seg, 0, proto.LockS); err != nil {
		t.Fatal(err)
	}

	// A section moved over the wire: the overflow section takes a lone run
	// reserved to the client, which the commit names beside the image.
	lone, err := r.ReserveSegments(cl, db, -1, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	seg := decodeSeg(t, sl, ov, data)
	seg.EnsureOverflow(lone[0].DataPages)
	seg.Hdr.OverArea, seg.Hdr.OverStart = page.AreaID(lone[0].Seg.Area), page.No(lone[0].DataStart)
	copy(seg.Overflow, "moved overflow")
	shipped := proto.SegImage{Seg: cs.Seg, Slotted: seg.EncodeSlotted(), Overflow: seg.Overflow}
	if err := r.Publish(cl, tx, []proto.Created{{Reserved: lone[0]}}, []proto.SegImage{shipped}, false); err != nil {
		t.Fatal(err)
	}
	if _, ov, _, err := r.FetchSeg(cl, cs.Seg); err != nil || !bytes.HasPrefix(ov, []byte("moved overflow")) {
		t.Fatalf("moved overflow over RPC: %q, %v", ov[:min(len(ov), 16)], err)
	}

	// Snapshot reads: the committed image, as of the snapshot's stamp.
	snap, stamp, err := r.SnapOpen(cl)
	if err != nil {
		t.Fatal(err)
	}
	if stamp == 0 {
		t.Fatal("snapshot stamp 0 after a commit")
	}
	committed, _, _, err := r.FetchSeg(cl, cs.Seg)
	if err != nil {
		t.Fatal(err)
	}
	if ssl, _, _, err := r.SnapFetchSeg(cl, snap, cs.Seg); err != nil || !bytes.Equal(ssl, committed) {
		t.Fatalf("snapshot fetch: err %v, or not the committed slotted image", err)
	}
	if err := r.SnapClose(cl, snap); err != nil {
		t.Fatal(err)
	}

	// Resolve.
	off := uint64(cs.Seg.Area)<<32 | uint64(cs.Seg.Start)*4096 + 128
	rseg, rslot, err := r.Resolve(db, off)
	if err != nil {
		t.Fatal(err)
	}
	if rseg != cs.Seg || rslot != 0 {
		t.Fatalf("resolve = %+v slot %d", rseg, rslot)
	}

	// Names.
	o := oid.OID{Host: 1, DB: uint16(db), Offset: off, Unique: 0}
	if err := r.NameBind(db, "root", o); err != nil {
		t.Fatal(err)
	}
	got, err := r.NameLookup(db, "root")
	if err != nil {
		t.Fatal(err)
	}
	if got != o {
		t.Fatalf("lookup = %v", got)
	}
	if err := r.NameRemoveOID(db, o); err != nil {
		t.Fatal(err)
	}
	if _, err := r.NameLookup(db, "root"); err == nil {
		t.Fatal("name survived RemoveOID over RPC")
	}
	if err := r.NameBind(db, "root", o); err != nil {
		t.Fatal(err)
	}
	if err := r.NameUnbind(db, "root"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.NameLookup(db, "root"); err == nil {
		t.Fatal("name survived Unbind over RPC")
	}

	// 2PC over RPC.
	tx2, _ := r.NewTx()
	if err := r.Publish(cl, tx2, nil, nil, true); err != nil {
		t.Fatal(err)
	}
	if err := r.Decide(tx2, false); err != nil {
		t.Fatal(err)
	}

	// Abort of a never-started tx is a no-op.
	if err := r.Abort(cl, 999999); err != nil {
		t.Fatal(err)
	}

	// Released.
	if err := r.Released(cl, []proto.SegKey{cs.Seg}); err != nil {
		t.Fatal(err)
	}

	// Server-side view.
	info := s.Inspect()
	if len(info.Databases) != 1 || info.Databases[0].Segments != 1 {
		t.Fatalf("inspect = %+v", info)
	}
	st := s.Snapshot()
	if st.Messages == 0 || st.Commits == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRPCRunBoundsRejected: page counts arrive off the wire, so every
// malformed one must come back as an error before it sizes anything — a
// negative page count used to panic the server process and a huge one sized
// a gigabyte buffer before the first range check. A run pair's page counts
// (ReserveSegments) outside a segment's are refused. A count outside 31 bits
// no longer reaches a handler at all: the message's field list refuses it at
// decode, on every page-count field.
func TestRPCRunBoundsRejected(t *testing.T) {
	s, p := callPeer(t)
	var odb proto.OpenDBReply
	if err := rpc.Call(p, proto.MethodOpenDB, &proto.OpenDBArgs{Name: "db", Create: true}, &odb); err != nil {
		t.Fatal(err)
	}
	var hello proto.IDReply
	if err := rpc.Call(p, proto.MethodHello, &proto.HelloArgs{Name: "runs"}, &hello); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		nPages int
		want   error
	}{
		{"negative count", -1, buddy.ErrBadRequest},
		{"zero count", 0, buddy.ErrBadRequest},
		{"huge count", 1 << 40, area.ErrTooLarge},
		{"over a segment", area.MaxSegmentPages + 1, area.ErrTooLarge},
	} {
		if _, err := s.ReserveSegments(hello.ID, odb.DB, -1, 1, c.nPages, 1); !errors.Is(err, c.want) {
			t.Errorf("%s: ReserveSegments = %v, want %v", c.name, err, c.want)
		}
		var rep proto.ReserveSegmentsReply
		sent := p.WireStats().FramesSent
		err := rpc.Call(p, proto.MethodReserveSegments, &proto.ReserveSegmentsArgs{Client: hello.ID, DB: odb.DB, AreaHint: -1,
			SlottedPages: 1, DataPages: c.nPages, N: 1}, &rep)
		if c.nPages < 0 || c.nPages > math.MaxInt32 {
			// Not representable in the field's 31 bits: the call never leaves,
			// and nothing of it is queued.
			if !errors.Is(err, proto.ErrBadMessage) {
				t.Errorf("%s: ReserveSegments over RPC = %v, want ErrBadMessage from the encoder", c.name, err)
			}
			if n := p.WireStats().FramesSent - sent; n != 0 {
				t.Errorf("%s: a call the encoder refused queued %d frames", c.name, n)
			}
		} else if err == nil || !strings.Contains(err.Error(), c.want.Error()) {
			t.Errorf("%s: ReserveSegments over RPC = %v, want %v", c.name, err, c.want)
		}
	}

	// A peer that writes the bytes itself can still put anything in a count
	// field. Each such body is refused before its handler runs.
	body := func(m proto.Message, off int, word uint32) []byte {
		b, err := proto.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint32(b[off:], word)
		return b
	}
	for _, c := range []struct {
		method string
		body   []byte
	}{
		{"ReserveSegments", body(&proto.ReserveSegmentsArgs{DB: odb.DB, DataPages: 1, N: 1}, 12, 0xFFFFFFFF)},
		{"ReserveSegments", body(&proto.ReserveSegmentsArgs{DB: odb.DB, SlottedPages: 1, N: 1}, 16, 0x80000000)},
		{"Released", body(&proto.ReleasedArgs{Client: 1}, 4, 0xFFFFFFFF)},
	} {
		before := s.Snapshot().Messages
		_, err := p.CallRaw(c.method, c.body)
		if err == nil || !strings.Contains(err.Error(), proto.ErrBadMessage.Error()) {
			t.Errorf("%s with count %x: err = %v, want ErrBadMessage", c.method, c.body, err)
		}
		if after := s.Snapshot().Messages; after != before {
			t.Errorf("%s with a hostile count reached its handler", c.method)
		}
	}
}

// TestWriteRunWaitsForTheWriter: a run store's run is a segment, X-locked by
// the first write of the transaction that writes it (update detection), so a
// second session's write waits for the first one's commit, and its change is
// then committed over what that commit wrote.
func TestWriteRunWaitsForTheWriter(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	var sess [3]*client.Session
	for i := range sess {
		var err error
		if sess[i], err = client.Open(s, fmt.Sprint("writer ", i), "d", true); err != nil {
			t.Fatal(err)
		}
	}
	a, b := sess[0], sess[1]
	fill := func(v byte) []byte { return bytes.Repeat([]byte{v}, page.Size) }
	a.Begin()
	at, _, err := a.RunStore().Alloc(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.RunStore().WriteRun(at, fill(1)); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	a.Begin()
	if err := a.RunStore().WriteRun(at, fill(2)); err != nil {
		t.Fatal(err)
	}
	b.Begin()
	done := make(chan error, 1)
	go func() { done <- b.RunStore().WriteRun(at, fill(3)) }()
	select {
	case err := <-done:
		t.Fatalf("a second writer wrote the run while the first held it: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("the second writer, after the first committed: %v", err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, page.Size)
	if err := sess[2].RunStore().ReadRun(at, 1, got); err != nil || !bytes.Equal(got, fill(3)) {
		t.Fatalf("the run after both commits: %v, or not the second writer's bytes", err)
	}
}

func TestRPCDisconnectCleans(t *testing.T) {
	s, p := callPeer(t)
	var hello proto.IDReply
	if err := rpc.Call(p, proto.MethodHello, &proto.HelloArgs{Name: "flaky"}, &hello); err != nil {
		t.Fatal(err)
	}
	var odb proto.OpenDBReply
	rpc.Call(p, proto.MethodOpenDB, &proto.OpenDBArgs{Name: "db", Create: true}, &odb)
	cs, err := s.CreateSegment(0, 0, odb.DB, 1, 1, 1, -1)
	if err != nil {
		t.Fatal(err)
	}
	var ntx proto.NewTxReply
	rpc.Call(p, proto.MethodNewTx, &proto.ClientArgs{}, &ntx)
	if err := rpc.Call(p, proto.MethodLock, &proto.LockArgs{Client: hello.ID, Tx: ntx.Tx, Seg: cs.Seg, Mode: proto.LockX}, &proto.Empty{}); err != nil {
		t.Fatal(err)
	}
	p.Close() // connection drops; OnClose disconnects the client

	// Another client can take the lock once the disconnect aborts the tx.
	c2, err := s.Hello("healthy")
	if err != nil {
		t.Fatal(err)
	}
	tx2, _ := s.NewTx()
	deadline := errors.New("")
	_ = deadline
	var lockErr error
	for i := 0; i < 100; i++ {
		lockErr = s.Lock(c2, tx2, cs.Seg, proto.LockX)
		if lockErr == nil {
			break
		}
	}
	if lockErr != nil {
		t.Fatalf("lock after disconnect: %v", lockErr)
	}
	// The dropped connection must take its tracked goroutines with it.
	goleak.Check(t, "rpc.", "server.")
}
