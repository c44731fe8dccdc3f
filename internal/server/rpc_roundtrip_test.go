package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"bess/internal/area"
	"bess/internal/client"
	"bess/internal/goleak"
	"bess/internal/oid"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/rpc"
	"bess/internal/segment"
	"bess/internal/tx"
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
	// The two-step fetch is off the wire: a peer that still asks is told so.
	body, err := proto.Encode(fetch)
	if err != nil {
		t.Fatal(err)
	}
	for _, retired := range []string{"FetchSlotted", "FetchData"} {
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

	// Transparent large object over the wire: the content stored, the
	// descriptor shipped in the segment's image.
	content := bytes.Repeat([]byte("x"), 5000)
	desc, err := r.StoreLarge(cl, tx, cs.Seg, content)
	if err != nil {
		t.Fatal(err)
	}
	seg := decodeSeg(t, sl, ov, data)
	seg.EnsureOverflow(1)
	slot, err := seg.CreateDescriptor(segment.KindLarge, 0, uint32(len(content)), desc)
	if err != nil {
		t.Fatal(err)
	}
	shipped := proto.SegImage{Seg: cs.Seg, Slotted: seg.EncodeSlotted(), Overflow: seg.Overflow}
	if err := r.Publish(cl, tx, nil, []proto.SegImage{shipped}, false); err != nil {
		t.Fatal(err)
	}
	fl, err := r.FetchLarge(cl, cs.Seg, slot)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fl, content) {
		t.Fatal("large content over RPC")
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

	// Raw runs, written by a transaction.
	runArea, runStart, _, err := r.AllocRun(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	run := make([]byte, 2*4096)
	copy(run, "raw-run")
	runTx, _ := r.NewTx()
	if err := r.WriteRun(cl, runTx, db, runArea, runStart, run); err != nil {
		t.Fatal(err)
	}
	if err := r.Publish(cl, runTx, nil, nil, false); err != nil {
		t.Fatal(err)
	}
	rr, err := r.ReadRun(db, runArea, runStart, 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(rr[:7]) != "raw-run" {
		t.Fatalf("run data %q", rr[:7])
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
// malformed one must come back as an error — a negative page count used to
// panic the server process and a huge one sized a gigabyte buffer before the
// first range check; a ragged WriteRun payload silently lost its tail. A
// count outside 31 bits no longer reaches a handler at all: the message's
// field list refuses it at decode, on every page-count field.
func TestRPCRunBoundsRejected(t *testing.T) {
	s, p := callPeer(t)
	var odb proto.OpenDBReply
	if err := rpc.Call(p, proto.MethodOpenDB, &proto.OpenDBArgs{Name: "db", Create: true}, &odb); err != nil {
		t.Fatal(err)
	}
	var ar proto.AllocRunReply
	if err := rpc.Call(p, proto.MethodAllocRun, &proto.AllocRunArgs{DB: odb.DB, NPages: 2}, &ar); err != nil {
		t.Fatal(err)
	}
	limit := int64(s.lookupArea(ar.Area).Pages())
	for _, c := range []struct {
		name   string
		start  int64
		nPages int
		want   error
	}{
		{"negative count", ar.Start, -1, area.ErrOutOfRange},
		{"zero count", ar.Start, 0, area.ErrOutOfRange},
		{"huge count", ar.Start, 1 << 40, area.ErrOutOfRange},
		{"over a segment", ar.Start, area.MaxSegmentPages + 1, area.ErrOutOfRange},
		{"negative start", -1, 1, area.ErrOutOfRange},
		{"past the limit", limit - 1, 2, area.ErrOutOfRange},
		{"at the limit", limit, 1, area.ErrOutOfRange},
	} {
		if _, err := s.ReadRun(odb.DB, ar.Area, c.start, c.nPages); !errors.Is(err, c.want) {
			t.Errorf("%s: ReadRun = %v, want %v", c.name, err, c.want)
		}
		var rr proto.Bytes
		sent := p.WireStats().FramesSent
		err := rpc.Call(p, proto.MethodReadRun, &proto.RunArgs{DB: odb.DB, Area: ar.Area, Start: c.start, NPages: c.nPages}, &rr)
		if c.nPages < 0 || c.nPages > math.MaxInt32 {
			// Not representable in the field's 31 bits: the call never leaves,
			// and nothing of it is queued.
			if !errors.Is(err, proto.ErrBadMessage) {
				t.Errorf("%s: ReadRun over RPC = %v, want ErrBadMessage from the encoder", c.name, err)
			}
			if n := p.WireStats().FramesSent - sent; n != 0 {
				t.Errorf("%s: a call the encoder refused queued %d frames", c.name, n)
			}
		} else if err == nil || !strings.Contains(err.Error(), c.want.Error()) {
			t.Errorf("%s: ReadRun over RPC = %v, want %v", c.name, err, c.want)
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
	run := &proto.RunArgs{DB: odb.DB, Area: ar.Area, Start: ar.Start}
	for _, c := range []struct {
		method string
		body   []byte
	}{
		{"ReadRun", body(run, 28, 0xFFFFFFFF)}, // int32(-1)
		{"ReadRun", body(run, 28, 0x80000000)},
		{"AllocRun", body(&proto.AllocRunArgs{DB: odb.DB}, 4, 0xFFFFFFFF)},
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

	// A write is a change of a transaction: none, and it is refused.
	var hello proto.IDReply
	if err := rpc.Call(p, proto.MethodHello, &proto.HelloArgs{Name: "runs"}, &hello); err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xAB}, 2*4096)
	write := func(tx uint64, data []byte) error {
		return rpc.Call(p, proto.MethodWriteRun, &proto.RunArgs{Client: hello.ID, Tx: tx, DB: odb.DB, Area: ar.Area, Start: ar.Start, Data: data}, &proto.Empty{})
	}
	if err := write(0, data); err == nil || !strings.Contains(err.Error(), tx.ErrNotActive.Error()) {
		t.Errorf("WriteRun outside a transaction = %v, want tx.ErrNotActive", err)
	}
	var ntx proto.NewTxReply
	if err := rpc.Call(p, proto.MethodNewTx, &proto.ClientArgs{Client: hello.ID}, &ntx); err != nil {
		t.Fatal(err)
	}
	if err := write(ntx.Tx, data); err != nil {
		t.Fatal(err)
	}
	if err := rpc.Call(p, proto.MethodCommit, &proto.CommitArgs{Client: hello.ID, Tx: ntx.Tx}, &proto.Empty{}); err != nil {
		t.Fatal(err)
	}
	ragged := make([]byte, 4096+100)
	if err := s.WriteRun(hello.ID, ntx.Tx+1, odb.DB, ar.Area, ar.Start, ragged); !errors.Is(err, ErrBadRun) {
		t.Errorf("ragged WriteRun = %v, want ErrBadRun", err)
	}
	if err := write(ntx.Tx+2, ragged); err == nil || !strings.Contains(err.Error(), ErrBadRun.Error()) {
		t.Errorf("ragged WriteRun over RPC = %v, want ErrBadRun", err)
	}
	// The server is still up, and the rejected writes touched nothing.
	var rr proto.Bytes
	if err := rpc.Call(p, proto.MethodReadRun, &proto.RunArgs{DB: odb.DB, Area: ar.Area, Start: ar.Start, NPages: 2}, &rr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rr.Data, data) {
		t.Fatal("a rejected WriteRun modified the run")
	}
}

// TestWriteRunWaitsForTheWriter: a run is X-locked by the transaction that
// writes it, so a second writer waits for the first one's commit, and its
// change is then taken over what that commit wrote.
func TestWriteRunWaitsForTheWriter(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	cl, _ := s.Hello("c")
	aid, start, _, err := s.AllocRun(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	first, second := bytes.Repeat([]byte{1}, page.Size), bytes.Repeat([]byte{2}, page.Size)
	if err := s.WriteRun(cl, 1, db, aid, start, first); err != nil {
		t.Fatal(err)
	}
	blocks := s.locks.Snapshot().Blocks
	wrote := make(chan error, 1)
	go func() {
		err := s.WriteRun(cl, 2, db, aid, start, second)
		if err == nil {
			err = s.Commit(cl, 2, nil)
		}
		wrote <- err
	}()
	for s.locks.Snapshot().Blocks == blocks { // until the second writer waits
		select {
		case err := <-wrote:
			t.Fatalf("the second writer went ahead of the first one's commit (%v)", err)
		default:
			runtime.Gosched()
		}
	}
	if got, _ := s.ReadRun(db, aid, start, 1); bytes.Equal(got, first) {
		t.Fatal("the first write reached the area before its commit")
	}
	if err := s.Commit(cl, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if got, _ := s.ReadRun(db, aid, start, 1); !bytes.Equal(got, second) {
		t.Fatal("the run does not hold the second commit's write")
	}
}

// TestRunsStayInTheirDatabase: a run is reached through the database whose
// area holds it; named through another, ReadRun and WriteRun find no area.
func TestRunsStayInTheirDatabase(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	mine, _, _ := s.OpenDB("mine", true)
	other, _, _ := s.OpenDB("other", true)
	cl, _ := s.Hello("c")
	aid, start, _, err := s.AllocRun(mine, 1)
	if err != nil {
		t.Fatal(err)
	}
	secret := bytes.Repeat([]byte{0x5E}, page.Size)
	if err := s.WriteRun(cl, 1, mine, aid, start, secret); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(cl, 1, nil); err != nil {
		t.Fatal(err)
	}
	if got, err := s.ReadRun(other, aid, start, 1); !errors.Is(err, ErrNoArea) {
		t.Errorf("ReadRun through another database = %d bytes, %v; want ErrNoArea", len(got), err)
	}
	if err := s.WriteRun(cl, 2, other, aid, start, make([]byte, page.Size)); !errors.Is(err, ErrNoArea) {
		t.Errorf("WriteRun through another database = %v, want ErrNoArea", err)
	}
	if err := s.Commit(cl, 2, nil); err != nil {
		t.Fatal(err)
	}
	if got, err := s.ReadRun(mine, aid, start, 1); err != nil || !bytes.Equal(got, secret) {
		t.Fatalf("the run through its own database: %v", err)
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
