package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"bess/internal/area"
	"bess/internal/goleak"
	"bess/internal/oid"
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

func TestRPCFullSurface(t *testing.T) {
	s, p := callPeer(t)

	var hello proto.IDReply
	if err := p.Call("Hello", &proto.HelloArgs{Name: "rpc-test"}, &hello); err != nil {
		t.Fatal(err)
	}
	if hello.ID == 0 {
		t.Fatal("no client id")
	}

	var odb proto.OpenDBReply
	if err := p.Call("OpenDB", &proto.OpenDBArgs{Name: "db", Create: true}, &odb); err != nil {
		t.Fatal(err)
	}

	var fid proto.IDReply
	if err := p.Call("NewFileID", &proto.DBArgs{DB: odb.DB}, &fid); err != nil {
		t.Fatal(err)
	}
	if fid.ID == 0 {
		t.Fatal("file id 0")
	}

	var aa proto.IDReply
	if err := p.Call("AddArea", &proto.DBArgs{DB: odb.DB}, &aa); err != nil {
		t.Fatal(err)
	}

	var rt proto.RegisterTypeReply
	if err := p.Call("RegisterType", &proto.RegisterTypeArgs{
		DB: odb.DB, Info: proto.TypeInfo{Name: "T", Size: 16, RefOffsets: []int{0}},
	}, &rt); err != nil {
		t.Fatal(err)
	}
	var tys proto.TypesReply
	if err := p.Call("Types", &proto.DBArgs{DB: odb.DB}, &tys); err != nil {
		t.Fatal(err)
	}
	if len(tys.Infos) != 1 || tys.Infos[0].Name != "T" {
		t.Fatalf("types = %+v", tys.Infos)
	}

	var cs proto.CreateSegmentReply
	if err := p.Call("CreateSegment", &proto.CreateSegmentArgs{
		Client: hello.ID, DB: odb.DB, FileID: fid.ID, SlottedPages: 1, DataPages: 2, AreaHint: 1,
	}, &cs); err != nil {
		t.Fatal(err)
	}
	if cs.DataPages != 2 || cs.DataStart == 0 {
		t.Fatalf("create reply carries geometry %+v, want the granted 2 data pages and their start", cs)
	}
	var si proto.SegInfoReply
	if err := p.Call("SegInfo", &proto.SegArgs{Seg: cs.Seg}, &si); err != nil {
		t.Fatal(err)
	}
	if si.SlottedPages != 1 {
		t.Fatalf("slotted pages = %d", si.SlottedPages)
	}

	var segs proto.SegmentsOfReply
	if err := p.Call("SegmentsOf", &proto.SegmentsOfArgs{DB: odb.DB, FileID: fid.ID}, &segs); err != nil {
		t.Fatal(err)
	}
	if len(segs.Segs) != 1 || segs.Segs[0] != cs.Seg {
		t.Fatalf("segments = %v", segs.Segs)
	}

	fetch := &proto.ClientSegArgs{Client: hello.ID, Seg: cs.Seg}
	// The two-step fetch is off the wire: a peer that still asks is told so.
	for _, retired := range []string{"FetchSlotted", "FetchData"} {
		if err := p.Call(retired, fetch, nil); err == nil || !strings.Contains(err.Error(), rpc.ErrNoHandler.Error()) {
			t.Fatalf("%s: %v, want %v", retired, err, rpc.ErrNoHandler)
		}
	}
	var img proto.SegImage
	if err := p.Call("FetchSeg", fetch, &img); err != nil {
		t.Fatal(err)
	}
	if img.Seg != cs.Seg || len(img.Slotted) == 0 || len(img.Data) == 0 {
		t.Fatalf("combined fetch image = %+v", img.Seg)
	}

	var ntx proto.NewTxReply
	if err := p.Call("NewTx", &proto.ClientArgs{Client: hello.ID}, &ntx); err != nil {
		t.Fatal(err)
	}
	if err := p.Call("Lock", &proto.LockArgs{Client: hello.ID, Tx: ntx.Tx, Seg: cs.Seg, Mode: proto.LockX}, &proto.Empty{}); err != nil {
		t.Fatal(err)
	}
	if err := p.Call("LockObject", &proto.LockObjectArgs{Client: hello.ID, Tx: ntx.Tx, Seg: cs.Seg, Mode: proto.LockS}, &proto.Empty{}); err != nil {
		t.Fatal(err)
	}

	// Transparent large object over the wire.
	var cl proto.CreateLargeReply
	content := bytes.Repeat([]byte("x"), 5000)
	if err := p.Call("CreateLarge", &proto.CreateLargeArgs{
		Client: hello.ID, Tx: ntx.Tx, Seg: cs.Seg, Content: content,
	}, &cl); err != nil {
		t.Fatal(err)
	}
	if err := p.Call("Commit", &proto.CommitArgs{Client: hello.ID, Tx: ntx.Tx}, &proto.Empty{}); err != nil {
		t.Fatal(err)
	}
	var fl proto.Bytes
	if err := p.Call("FetchLarge", &proto.FetchLargeArgs{Client: hello.ID, Seg: cs.Seg, Slot: cl.Slot}, &fl); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fl.Data, content) {
		t.Fatal("large content over RPC")
	}

	// Raw runs.
	var ar proto.AllocRunReply
	if err := p.Call("AllocRun", &proto.AllocRunArgs{DB: odb.DB, NPages: 2}, &ar); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 2*4096)
	copy(data, "raw-run")
	if err := p.Call("WriteRun", &proto.RunArgs{DB: odb.DB, Area: ar.Area, Start: ar.Start, Data: data}, &proto.Empty{}); err != nil {
		t.Fatal(err)
	}
	var rr proto.Bytes
	if err := p.Call("ReadRun", &proto.RunArgs{DB: odb.DB, Area: ar.Area, Start: ar.Start, NPages: 1}, &rr); err != nil {
		t.Fatal(err)
	}
	if string(rr.Data[:7]) != "raw-run" {
		t.Fatalf("run data %q", rr.Data[:7])
	}
	if err := p.Call("FreeRun", &proto.RunArgs{DB: odb.DB, Area: ar.Area, Start: ar.Start}, &proto.Empty{}); err != nil {
		t.Fatal(err)
	}

	// Resolve.
	var rv proto.ResolveReply
	off := uint64(cs.Seg.Area)<<32 | uint64(cs.Seg.Start)*4096 + 128
	if err := p.Call("Resolve", &proto.ResolveArgs{DB: odb.DB, HeaderOff: off}, &rv); err != nil {
		t.Fatal(err)
	}
	if rv.Seg != cs.Seg || rv.Slot != 0 {
		t.Fatalf("resolve = %+v", rv)
	}

	// Names.
	o := oid.OID{Host: 1, DB: uint16(odb.DB), Offset: off, Unique: 0}
	nb := proto.NameBindArgs{DB: odb.DB, Name: "root", OID: o}
	if err := p.Call("NameBind", &nb, &proto.Empty{}); err != nil {
		t.Fatal(err)
	}
	var nl proto.NameLookupReply
	if err := p.Call("NameLookup", &proto.NameArgs{DB: odb.DB, Name: "root"}, &nl); err != nil {
		t.Fatal(err)
	}
	if nl.OID != o {
		t.Fatalf("lookup = %v", nl.OID)
	}
	if err := p.Call("NameRemoveOID", &proto.NameRemoveOIDArgs{DB: odb.DB, OID: o}, &proto.Empty{}); err != nil {
		t.Fatal(err)
	}
	if err := p.Call("NameLookup", &proto.NameArgs{DB: odb.DB, Name: "root"}, &nl); err == nil {
		t.Fatal("name survived RemoveOID over RPC")
	}
	if err := p.Call("NameBind", &nb, &proto.Empty{}); err != nil {
		t.Fatal(err)
	}
	if err := p.Call("NameUnbind", &proto.NameArgs{DB: odb.DB, Name: "root"}, &proto.Empty{}); err != nil {
		t.Fatal(err)
	}

	// 2PC over RPC.
	var ntx2 proto.NewTxReply
	p.Call("NewTx", &proto.ClientArgs{}, &ntx2)
	if err := p.Call("Prepare", &proto.CommitArgs{Client: hello.ID, Tx: ntx2.Tx}, &proto.Empty{}); err != nil {
		t.Fatal(err)
	}
	if err := p.Call("Decide", &proto.DecideArgs{Tx: ntx2.Tx, Commit: false}, &proto.Empty{}); err != nil {
		t.Fatal(err)
	}

	// Abort of a never-started tx is a no-op.
	if err := p.Call("Abort", &proto.AbortArgs{Client: hello.ID, Tx: 999999}, &proto.Empty{}); err != nil {
		t.Fatal(err)
	}

	// Released.
	if err := p.Call("Released", &proto.ReleasedArgs{Client: hello.ID, Segs: []proto.SegKey{cs.Seg}}, &proto.Empty{}); err != nil {
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
	if err := p.Call("OpenDB", &proto.OpenDBArgs{Name: "db", Create: true}, &odb); err != nil {
		t.Fatal(err)
	}
	var ar proto.AllocRunReply
	if err := p.Call("AllocRun", &proto.AllocRunArgs{DB: odb.DB, NPages: 2}, &ar); err != nil {
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
		err := p.Call("ReadRun", &proto.RunArgs{DB: odb.DB, Area: ar.Area, Start: c.start, NPages: c.nPages}, &rr)
		if c.nPages < 0 || c.nPages > math.MaxInt32 {
			// Not representable in the field's 31 bits: the call never leaves.
			if !errors.Is(err, proto.ErrBadMessage) {
				t.Errorf("%s: ReadRun over RPC = %v, want ErrBadMessage from the encoder", c.name, err)
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
		{"ReadRun", body(run, 16, 0xFFFFFFFF)}, // int32(-1)
		{"ReadRun", body(run, 16, 0x80000000)},
		{"AllocRun", body(&proto.AllocRunArgs{DB: odb.DB}, 4, 0xFFFFFFFF)},
		{"CreateSegment", body(&proto.CreateSegmentArgs{DB: odb.DB, FileID: 1, DataPages: 1}, 20, 0xFFFFFFFF)},
		{"CreateSegment", body(&proto.CreateSegmentArgs{DB: odb.DB, FileID: 1, SlottedPages: 1}, 24, 0x80000000)},
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

	data := bytes.Repeat([]byte{0xAB}, 2*4096)
	if err := p.Call("WriteRun", &proto.RunArgs{DB: odb.DB, Area: ar.Area, Start: ar.Start, Data: data}, &proto.Empty{}); err != nil {
		t.Fatal(err)
	}
	ragged := make([]byte, 4096+100)
	if err := s.WriteRun(odb.DB, ar.Area, ar.Start, ragged); !errors.Is(err, ErrBadRun) {
		t.Errorf("ragged WriteRun = %v, want ErrBadRun", err)
	}
	err := p.Call("WriteRun", &proto.RunArgs{DB: odb.DB, Area: ar.Area, Start: ar.Start, Data: ragged}, &proto.Empty{})
	if err == nil || !strings.Contains(err.Error(), ErrBadRun.Error()) {
		t.Errorf("ragged WriteRun over RPC = %v, want ErrBadRun", err)
	}
	// The server is still up, and the rejected write touched nothing.
	var rr proto.Bytes
	if err := p.Call("ReadRun", &proto.RunArgs{DB: odb.DB, Area: ar.Area, Start: ar.Start, NPages: 2}, &rr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rr.Data, data) {
		t.Fatal("rejected WriteRun modified the run")
	}
}

func TestRPCDisconnectCleans(t *testing.T) {
	s, p := callPeer(t)
	var hello proto.IDReply
	if err := p.Call("Hello", &proto.HelloArgs{Name: "flaky"}, &hello); err != nil {
		t.Fatal(err)
	}
	var odb proto.OpenDBReply
	p.Call("OpenDB", &proto.OpenDBArgs{Name: "db", Create: true}, &odb)
	var cs proto.CreateSegmentReply
	p.Call("CreateSegment", &proto.CreateSegmentArgs{DB: odb.DB, FileID: 1, SlottedPages: 1, DataPages: 1}, &cs)
	var ntx proto.NewTxReply
	p.Call("NewTx", &proto.ClientArgs{}, &ntx)
	if err := p.Call("Lock", &proto.LockArgs{Client: hello.ID, Tx: ntx.Tx, Seg: cs.Seg, Mode: proto.LockX}, &proto.Empty{}); err != nil {
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
