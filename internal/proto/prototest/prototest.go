// Package prototest is the test support of the wire codec: a sample of
// every method's args and reply message in internal/proto's method table and
// of the catalog's log record, and the checks every message layout must
// pass. The tests of proto, rpc (the method table) and server (the catalog
// records) share it.
package prototest

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"bess/internal/goleak"
	"bess/internal/oid"
	"bess/internal/proto"
)

// Method pairs one entry of internal/proto's method table with a populated
// sample of its args and of its reply. Reply is nil for the one-way streams,
// whose Args is a sample of their frame's message.
type Method struct {
	proto.Desc
	Args, Reply proto.Message
}

// method and stream make a table entry's samples, of its own types.
func method[A, R any, PA proto.Ptr[A], PR proto.Ptr[R]](m proto.Method[A, R], args *A, reply *R) Method {
	return Method{m.Desc, PA(args), PR(reply)}
}

func stream[M any, PM proto.Ptr[M]](s proto.Stream[M], msg *M) Method {
	return Method{s.Desc, PM(msg), nil}
}

var (
	seg  = proto.SegKey{Area: 7, Start: 1 << 40}
	img  = proto.SegImage{Seg: seg, Slotted: []byte("sl"), Overflow: []byte("ovfl"), Data: []byte("data bytes")}
	img2 = proto.SegImage{Seg: proto.SegKey{Area: 2, Start: -4096}}
	info = proto.TypeInfo{ID: 5, Name: "Person", Size: 48, RefOffsets: []int{0, 16}}
	root = oid.OID{Host: 1, DB: 4, Offset: 1 << 40, Unique: 2}

	empty     = &proto.Empty{}
	raw       = &proto.Bytes{Data: []byte("raw reply bytes")}
	fetchArgs = &proto.ClientSegArgs{Client: 3, Seg: seg}
	dbArgs    = &proto.DBArgs{DB: 4}
	reserved  = proto.Reserved{Seg: seg, SlottedPages: 2, DataStart: 1<<40 + 2, DataPages: 16}
	commit    = &proto.CommitArgs{Client: 3, Tx: 99, Segs: []proto.SegImage{img, img2},
		Created: []proto.Created{{Reserved: reserved, FileID: 9}}}
	scanStart = proto.ScanStartArgs{Client: 3, DB: 1, FileID: 9, BatchBytes: 64 << 10}
	scanReply = &proto.ScanStartReply{Scan: 42}
)

// Methods lists every entry of internal/proto's method table, in id order.
var Methods = []Method{
	method(proto.MethodHello, &proto.HelloArgs{Name: "alice"}, &proto.IDReply{ID: 3}),
	method(proto.MethodOpenDB, &proto.OpenDBArgs{Name: "db", Create: true}, &proto.OpenDBReply{DB: 4, Host: 2}),
	method(proto.MethodNewTx, &proto.ClientArgs{Client: 3}, &proto.NewTxReply{Tx: 99}),
	method(proto.MethodRegisterType, &proto.RegisterTypeArgs{DB: 4, Info: info}, &proto.RegisterTypeReply{Info: info}),
	method(proto.MethodTypes, dbArgs, &proto.TypesReply{Infos: []proto.TypeInfo{info, {ID: 6, Name: "Leaf"}}}),
	method(proto.MethodNewFileID, dbArgs, &proto.IDReply{ID: 9}),
	method(proto.MethodAddArea, dbArgs, &proto.IDReply{ID: 7}),
	method(proto.MethodSegInfo, &proto.SegArgs{Seg: seg}, &proto.SegInfoReply{SlottedPages: 2}),
	method(proto.MethodFetchLarge, &proto.FetchLargeArgs{Client: 3, Seg: seg, Slot: 11}, raw),
	method(proto.MethodFetchSeg, fetchArgs, &img),
	method(proto.MethodResolve, &proto.ResolveArgs{DB: 4, HeaderOff: 1 << 33}, &proto.ResolveReply{Seg: seg, Slot: 11}),
	method(proto.MethodLock, &proto.LockArgs{Client: 3, Tx: 99, Seg: seg, Mode: proto.LockX}, empty),
	method(proto.MethodLockObject, &proto.LockObjectArgs{Client: 3, Tx: 99, Seg: seg, Slot: 11, Mode: proto.LockS}, empty),
	method(proto.MethodCommit, commit, empty),
	method(proto.MethodAbort, &proto.AbortArgs{Client: 3, Tx: 99}, empty),
	method(proto.MethodPrepare, commit, empty),
	method(proto.MethodDecide, &proto.DecideArgs{Tx: 99, Commit: true}, empty),
	method(proto.MethodSegmentsOf, &proto.SegmentsOfArgs{DB: 4, FileID: 9}, &proto.SegmentsOfReply{Segs: []proto.SegKey{seg, {Area: 8}}}),
	method(proto.MethodReleased, &proto.ReleasedArgs{Client: 3, Segs: []proto.SegKey{seg, {Area: 8}}}, empty),
	method(proto.MethodAllocRun, &proto.AllocRunArgs{DB: 4, NPages: 8}, &proto.AllocRunReply{Area: 7, Start: 1 << 20, Granted: 8}),
	method(proto.MethodReadRun, &proto.RunArgs{DB: 4, Area: 7, Start: 1 << 20, NPages: 2}, raw),
	method(proto.MethodWriteRun, &proto.RunArgs{Client: 3, Tx: 99, DB: 4, Area: 7, Start: 1 << 20, Data: []byte("run bytes")}, empty),
	method(proto.MethodNameBind, &proto.NameBindArgs{DB: 4, Name: "root", OID: root}, empty),
	method(proto.MethodNameLookup, &proto.NameArgs{DB: 4, Name: "root"}, &proto.NameLookupReply{OID: root}),
	method(proto.MethodNameUnbind, &proto.NameArgs{DB: 4, Name: "root"}, empty),
	method(proto.MethodNameRemoveOID, &proto.NameRemoveOIDArgs{DB: 4, OID: root}, empty),
	method(proto.MethodCallback, &proto.SegArgs{Seg: seg}, &proto.CallbackReply{Refused: true}),
	method(proto.MethodScanStart, &scanStart, scanReply),
	stream(proto.StreamScanData, &proto.ScanBatch{Seq: 2, Last: true, Err: "boom", Images: []proto.SegImage{img, img2}}),
	stream(proto.StreamScanCtl, &proto.ScanCtl{Cancel: true, Credit: 1 << 20}),
	method(proto.MethodSnapOpen, &proto.ClientArgs{Client: 3}, &proto.SnapOpenReply{Snap: 11, Stamp: 1 << 33}),
	method(proto.MethodSnapClose, &proto.SnapCloseArgs{Client: 3, Snap: 11}, empty),
	method(proto.MethodSnapFetchSeg, &proto.SnapFetchArgs{Client: 3, Snap: 11, Seg: seg}, &img),
	method(proto.MethodSnapScanStart, &proto.SnapScanStartArgs{ScanStartArgs: scanStart, Snap: 11}, scanReply),
	method(proto.MethodStoreLarge, &proto.StoreLargeArgs{Client: 3, Tx: 99, Seg: seg, Content: []byte("large content")}, raw),
	method(proto.MethodReserveSegments, &proto.ReserveSegmentsArgs{Client: 3, DB: 4, AreaHint: -1, SlottedPages: 2, DataPages: 16, N: 2},
		&proto.ReserveSegmentsReply{Runs: []proto.Reserved{reserved, {Seg: proto.SegKey{Area: 8}, SlottedPages: 1}}}),
}

// CatalogOps holds a populated proto.CatalogOp — the body of the catalog's
// log record — of every kind, in kind order.
var CatalogOps = []*proto.CatalogOp{
	{Kind: proto.CatCreateDB, DB: 4, Name: "db"},
	{Kind: proto.CatAddArea, DB: 4, ID: 7},
	{Kind: proto.CatNewFile, DB: 4, ID: 9},
	{Kind: proto.CatRegisterType, DB: 4, Type: info},
	{Kind: proto.CatAddSegment, DB: 4, Seg: seg, FileID: 9, SlottedPages: 2, DataStart: 1<<40 + 2, DataPages: 16},
	{Kind: proto.CatNameBind, DB: 4, Name: "root", OID: root},
	{Kind: proto.CatNameUnbind, DB: 4, Name: "root"},
	{Kind: proto.CatNameRemove, DB: 4, OID: root},
	{Kind: proto.CatAddRun, DB: 4, Seg: seg, DataPages: 16},
}

// Messages returns one populated sample per distinct message type in
// Methods, keyed by the type's name, plus CatalogOp's (its add-segment kind).
func Messages() map[string]proto.Message { return messages }

var messages = func() map[string]proto.Message {
	out := make(map[string]proto.Message)
	for _, m := range Methods {
		for _, s := range []proto.Message{m.Args, m.Reply} {
			if s != nil {
				out[Name(s)] = s
			}
		}
	}
	out["CatalogOp"] = CatalogOps[proto.CatAddSegment]
	return out
}()

// Name is the Go type name of m, the key of its golden vector.
func Name(m proto.Message) string { return reflect.TypeOf(m).Elem().Name() }

// New returns a fresh zero message of sample's type.
func New(sample proto.Message) proto.Message {
	return reflect.New(reflect.TypeOf(sample).Elem()).Interface().(proto.Message)
}

func encode(t *testing.T, m proto.Message) []byte {
	t.Helper()
	b, err := proto.Encode(m)
	if err != nil {
		t.Fatalf("encode %s: %v", Name(m), err)
	}
	if _, raw := m.(*proto.Bytes); !raw && cap(b) != len(b) {
		t.Fatalf("%s: a %d-byte encoding in a %d-byte buffer: the sizing pass and the encoding pass disagree", Name(m), len(b), cap(b))
	}
	return b
}

// roundTrip checks decode(encode(m)) == m, decoding into got, and that the
// decoded value re-encodes to the same bytes; it returns them.
func roundTrip(t *testing.T, m, got proto.Message) []byte {
	t.Helper()
	enc := encode(t, m)
	if err := proto.Decode(enc, got); err != nil {
		t.Fatalf("%s: decode of own encoding: %v", Name(m), err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("%s round trip:\n got %+v\nwant %+v", Name(m), got, m)
	}
	if again := encode(t, got); !bytes.Equal(again, enc) {
		t.Fatalf("%s: decode→encode is not the identity:\n in: %x\nout: %x", Name(m), enc, again)
	}
	return enc
}

// Check holds one message layout to the codec's contract: a populated and an
// empty value round-trip; decode→encode is the identity; every proper prefix
// and any trailing byte is rejected with ErrBadMessage; a length or count
// larger than the remaining input is rejected before it is allocated; and
// the populated sample encodes to golden, byte for byte. fresh returns a new
// empty message to decode into (New, for a type whose zero value is ready
// to use). Empty lists in sample must be nil, as they decode.
func Check(t *testing.T, sample proto.Message, fresh func() proto.Message, golden []byte) {
	t.Helper()
	enc := roundTrip(t, sample, fresh())
	roundTrip(t, fresh(), fresh())
	// Encoding only reads the message: senders share one (a scan plan goes
	// to the reply encoder and the cursor goroutine). Under -race, a layout
	// that stores while encoding fails here.
	var encoders goleak.Group
	for i := 0; i < 2; i++ {
		encoders.Go("prototest.encode", func(<-chan struct{}) { _, _ = proto.Encode(sample) })
	}
	encoders.Stop()
	if !bytes.Equal(enc, golden) {
		t.Errorf("%s: wire bytes differ from the golden vector — this breaks every peer and file in the old format:\n got: %x\nwant: %x", Name(sample), enc, golden)
	}
	if _, anyBytes := sample.(*proto.Bytes); anyBytes {
		return // a Bytes body is whatever bytes arrive: nothing to reject
	}
	reject := func(what string, b []byte) {
		if err := proto.Decode(b, fresh()); !errors.Is(err, proto.ErrBadMessage) {
			t.Errorf("%s: %s: err = %v, want ErrBadMessage", Name(sample), what, err)
		}
	}
	for i := range enc {
		reject("proper prefix", enc[:i:i])
	}
	reject("trailing byte", append(enc[:len(enc):len(enc)], 0))
	// Plant a huge u32 at every offset: wherever it lands on a length or a
	// count the decode must fail, and nowhere may it be believed and
	// allocated.
	var before, after runtime.MemStats
	for i := 0; i+4 <= len(enc); i++ {
		hostile := append([]byte(nil), enc...)
		copy(hostile[i:], []byte{0xFF, 0xFF, 0xFF, 0xF0})
		runtime.ReadMemStats(&before)
		_ = proto.Decode(hostile, fresh())
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: hostile u32 at offset %d made the decoder allocate %d bytes", Name(sample), i, grew)
		}
	}
}

// Fuzz is the body of the codec fuzzers: no decoder panics on wire, and a
// decoder that accepts it must re-encode to exactly wire (every encoding is
// canonical).
func Fuzz(t *testing.T, wire []byte) {
	for name, sample := range Messages() {
		m := New(sample)
		if proto.Decode(wire, m) != nil {
			continue
		}
		if enc := encode(t, m); !bytes.Equal(enc, wire) {
			t.Fatalf("%s accepted a non-canonical encoding:\n in: %x\nout: %x", name, wire, enc)
		}
	}
}
