package proto_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"bess/internal/proto"
	"bess/internal/proto/prototest"
)

// golden loads testdata/golden.txt: one "TypeName hex" line per message
// type, the bytes of its prototest sample. The vectors of the bodies that
// were binary before the one codec (everything the 20 hand-written
// Append/Decode pairs carried) were generated by those functions at the
// commit before they were deleted: they pin the wire, do not regenerate them.
func golden(t *testing.T) map[string][]byte {
	f, err := os.Open("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string][]byte)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, h, _ := strings.Cut(sc.Text(), " ")
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatalf("golden %s: %v", name, err)
		}
		out[name] = b
	}
	return out
}

// TestMessages runs the codec contract over every message type of every
// method (prototest.Check).
func TestMessages(t *testing.T) {
	gold := golden(t)
	msgs := prototest.Messages()
	for name, sample := range msgs {
		t.Run(name, func(t *testing.T) {
			want, ok := gold[name]
			if !ok {
				t.Errorf("no golden vector for %s", name)
			}
			prototest.Check(t, sample, func() proto.Message { return prototest.New(sample) }, want)
		})
	}
	for name := range gold {
		if msgs[name] == nil {
			t.Errorf("golden vector %s matches no registered message", name)
		}
	}
}

// TestCatalogOpKinds holds every kind of the catalog's log record to the codec
// contract (TestMessages covers the add-segment kind against golden.txt).
// These bytes are in write-ahead logs: a kind's number and layout never change.
func TestCatalogOpKinds(t *testing.T) {
	golden := []string{
		"0000000004000000026462",
		"010000000400000007",
		"020000000400000009",
		"03000000040000000500000006506572736f6e00000030000000020000000000000010",
		"04000000040000000700000100000000000000000900000002000001000000000200000010",
		"050000000400000004726f6f74000100040100000000000002",
		"060000000400000004726f6f74",
		"0700000004000100040100000000000002",
		"080000000400000007000001000000000000000010",
	}
	if len(golden) != len(prototest.CatalogOps) {
		t.Fatalf("%d golden vectors for %d kinds", len(golden), len(prototest.CatalogOps))
	}
	for i, op := range prototest.CatalogOps {
		t.Run(op.Kind.String(), func(t *testing.T) {
			want, err := hex.DecodeString(golden[i])
			if err != nil || int(op.Kind) != i {
				t.Fatalf("sample %d is of kind %d (golden: %v)", i, op.Kind, err)
			}
			// An empty op of this kind, not the zero op (which is a create-db).
			prototest.Check(t, op, func() proto.Message { return &proto.CatalogOp{Kind: op.Kind} }, want)
		})
	}
	unknown := &proto.CatalogOp{Kind: proto.CatalogOpKind(len(golden))}
	if _, err := proto.Encode(unknown); !errors.Is(err, proto.ErrBadMessage) {
		t.Errorf("encode of an unknown kind: %v, want ErrBadMessage", err)
	}
	if err := proto.Decode([]byte{byte(len(golden)), 0, 0, 0, 4}, &proto.CatalogOp{}); !errors.Is(err, proto.ErrBadMessage) {
		t.Errorf("decode of an unknown kind: %v, want ErrBadMessage", err)
	}
}

// TestDecodeRejects covers the checks a layout makes beyond "enough bytes":
// magic and version, flag bytes, counts no input could satisfy, integers
// outside their declared range.
func TestDecodeRejects(t *testing.T) {
	enc := func(m proto.Message) []byte {
		b, err := proto.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	with := func(b []byte, off int, patch ...byte) []byte {
		out := append([]byte(nil), b...)
		copy(out[off:], patch)
		return out
	}
	img := enc(&proto.SegImage{Seg: proto.SegKey{Area: 2, Start: 8}, Data: []byte("abc")})
	commit := enc(&proto.CommitArgs{Client: 1, Tx: 2, Segs: []proto.SegImage{{Data: []byte("abc")}}})
	batch := enc(&proto.ScanBatch{Seq: 5})
	cases := []struct {
		name string
		into proto.Message
		b    []byte
	}{
		{"image: bad magic", &proto.SegImage{}, with(img, 0, 0xFF)},
		{"image: unknown version", &proto.SegImage{}, with(img, 2, 99)},
		{"image: section longer than input", &proto.SegImage{}, with(img, 15+4+4, 0x40, 0, 0, 0)},
		{"commit: hostile image count", &proto.CommitArgs{}, with(commit, 12, 0xFF, 0xFF, 0xFF, 0xFF)},
		{"commit: bad magic inside a frame", &proto.CommitArgs{}, with(commit, 20, 0xFF)},
		{"commit: frame longer than its image", &proto.CommitArgs{}, append(with(commit, 19, byte(len(commit)-20+1)), 0)},
		{"batch: bad last flag", &proto.ScanBatch{}, with(batch, 4, 2)},
		{"batch: hostile image count", &proto.ScanBatch{}, with(batch, len(batch)-4, 0xFF, 0xFF, 0xFF, 0xFF)},
		{"ctl: bad cancel flag", &proto.ScanCtl{}, with(enc(&proto.ScanCtl{}), 0, 7)},
		{"callback reply: bad flag", &proto.CallbackReply{}, []byte{2}},
		{"page count over 31 bits", &proto.ReserveSegmentsArgs{}, with(enc(&proto.ReserveSegmentsArgs{}), 12, 0x80)},
		{"reserve reply: hostile run count", &proto.ReserveSegmentsReply{}, with(enc(&proto.ReserveSegmentsReply{}), 0, 0xFF, 0xFF, 0xFF, 0xFF)},
		{"reserve reply: negative data pages", &proto.ReserveSegmentsReply{}, with(enc(&proto.ReserveSegmentsReply{Runs: make([]proto.Reserved, 1)}), 4+24, 0xFF, 0xFF, 0xFF, 0xFF)},
		{"commit: hostile created count", &proto.CommitArgs{}, with(enc(&proto.CommitArgs{}), 16, 0xFF, 0xFF, 0xFF, 0xFF)},
		{"released: hostile segment count", &proto.ReleasedArgs{}, with(enc(&proto.ReleasedArgs{Client: 1}), 4, 0xFF, 0xFF, 0xFF, 0xFF)},
		{"negative page count", &proto.AllocRunArgs{}, with(enc(&proto.AllocRunArgs{}), 4, 0xFF, 0xFF, 0xFF, 0xFF)},
	}
	for _, tc := range cases {
		if err := proto.Decode(tc.b, tc.into); !errors.Is(err, proto.ErrBadMessage) {
			t.Errorf("%s: err = %v, want ErrBadMessage", tc.name, err)
		}
	}
	// The same ranges hold on the way out: a value its width cannot carry
	// fails the encode, it is not truncated.
	for _, m := range []proto.Message{
		&proto.AllocRunArgs{NPages: -1},
		&proto.RunArgs{NPages: 1 << 31},
		&proto.LockObjectArgs{Slot: 1 << 31},
		&proto.ReserveSegmentsArgs{AreaHint: -1 << 32},
	} {
		if _, err := proto.Encode(m); !errors.Is(err, proto.ErrBadMessage) {
			t.Errorf("encode %+v: err = %v, want ErrBadMessage", m, err)
		}
	}
	// -1 is a legal area hint and slot: 32 signed bits both ways.
	in := &proto.ReserveSegmentsArgs{AreaHint: -1}
	var out proto.ReserveSegmentsArgs
	if err := proto.Decode(enc(in), &out); err != nil || out.AreaHint != -1 {
		t.Errorf("area hint -1 came back as %d, err %v", out.AreaHint, err)
	}
}

// TestSmallestElementsDecode: Repeat rejects a count the remaining input
// could not hold at the element's declared minimum size, so that minimum
// must not exceed what an all-zero element really occupies.
func TestSmallestElementsDecode(t *testing.T) {
	for _, m := range []proto.Message{
		&proto.TypesReply{Infos: []proto.TypeInfo{{}}},
		&proto.RegisterTypeReply{Info: proto.TypeInfo{RefOffsets: []int{0}}},
		&proto.SegmentsOfReply{Segs: []proto.SegKey{{}}},
		&proto.ReleasedArgs{Segs: []proto.SegKey{{}}},
		&proto.CommitArgs{Segs: []proto.SegImage{{}}},
		&proto.ScanBatch{Images: []proto.SegImage{{}}},
	} {
		b, err := proto.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		got := prototest.New(m)
		if err := proto.Decode(b, got); err != nil || !reflect.DeepEqual(got, m) {
			t.Errorf("%s with one zero element: got %+v, err %v", prototest.Name(m), got, err)
		}
	}
}

// TestEntryPoints holds the append/decode entry points to the bytes the
// codec produces for the same message.
func TestEntryPoints(t *testing.T) {
	msgs := prototest.Messages()
	img := msgs["SegImage"].(*proto.SegImage)
	commit := msgs["CommitArgs"].(*proto.CommitArgs)
	batch := msgs["ScanBatch"].(*proto.ScanBatch)
	for _, tc := range []struct {
		name string
		got  []byte
		want proto.Message
	}{
		{"AppendSegImage", proto.AppendSegImage([]byte("x"), img)[1:], img},
		{"AppendCommitArgs", proto.AppendCommitArgs([]byte("x"), commit.Client, commit.Tx, commit.Segs)[1:],
			&proto.CommitArgs{Client: commit.Client, Tx: commit.Tx, Segs: commit.Segs}},
		{"AppendScanBatch", proto.AppendScanBatch([]byte("x"), batch)[1:], batch},
	} {
		if want, _ := proto.Encode(tc.want); !bytes.Equal(tc.got, want) {
			t.Errorf("%s:\n got %x\nwant %x", tc.name, tc.got, want)
		}
	}
	enc, _ := proto.Encode(commit)
	client, tx, segs, err := proto.DecodeCommitArgs(enc)
	if err != nil || client != commit.Client || tx != commit.Tx || !reflect.DeepEqual(segs, commit.Segs) {
		t.Errorf("DecodeCommitArgs = (%d, %d, %+v, %v)", client, tx, segs, err)
	}
	enc, _ = proto.Encode(img)
	if got, err := proto.DecodeSegImage(enc); err != nil || !reflect.DeepEqual(got, img) {
		t.Errorf("DecodeSegImage = (%+v, %v)", got, err)
	}
	if _, err := proto.DecodeSegImage(append(enc, 0)); !errors.Is(err, proto.ErrBadMessage) {
		t.Errorf("DecodeSegImage with a trailing byte: %v", err)
	}
	enc, _ = proto.Encode(batch)
	if got, err := proto.DecodeScanBatch(enc); err != nil || !reflect.DeepEqual(got, batch) {
		t.Errorf("DecodeScanBatch = (%+v, %v)", got, err)
	}
}

// TestDecodedSectionsAliasInput: byte fields have one ownership rule — a
// decoded Section, like Rest, is a view of the input, so a write to the
// input shows through it; and a view's capacity stops at its last byte, so
// appending to one field cannot overwrite the next.
func TestDecodedSectionsAliasInput(t *testing.T) {
	enc := func(m proto.Message) []byte {
		b, err := proto.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	img := proto.SegImage{Slotted: []byte("slotted"), Overflow: []byte("overflow"), Data: []byte("data")}
	var (
		gotImg   proto.SegImage
		gotLarge proto.StoreLargeArgs
		gotRun   proto.RunArgs
		gotBytes proto.Bytes
	)
	for _, tc := range []struct {
		name   string
		wire   []byte
		into   proto.Message
		fields func() [][]byte
	}{
		{"SegImage", enc(&img), &gotImg, func() [][]byte { return [][]byte{gotImg.Slotted, gotImg.Overflow, gotImg.Data} }},
		{"StoreLargeArgs", enc(&proto.StoreLargeArgs{Content: []byte("content")}), &gotLarge,
			func() [][]byte { return [][]byte{gotLarge.Content} }},
		{"RunArgs", enc(&proto.RunArgs{Data: []byte("run")}), &gotRun, func() [][]byte { return [][]byte{gotRun.Data} }},
		{"Bytes", []byte("rest"), &gotBytes, func() [][]byte { return [][]byte{gotBytes.Data} }},
	} {
		if err := proto.Decode(tc.wire, tc.into); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, f := range tc.fields() {
			if len(f) == 0 {
				t.Fatalf("%s field %d decoded empty", tc.name, i)
			}
			off := bytes.Index(tc.wire, f)
			if off < 0 || &tc.wire[off] != &f[0] {
				t.Errorf("%s field %d (%q) is a copy, want a view of the input", tc.name, i, f)
			}
			if cap(f) != len(f) {
				t.Errorf("%s field %d: cap %d beyond len %d reaches the bytes that follow", tc.name, i, cap(f), len(f))
			}
		}
	}
	// Images inside a commit and a pushed batch are views of the one body.
	commit := enc(&proto.CommitArgs{Segs: []proto.SegImage{img, img}})
	_, _, segs, err := proto.DecodeCommitArgs(commit)
	if err != nil {
		t.Fatal(err)
	}
	batch := enc(&proto.ScanBatch{Images: []proto.SegImage{img}})
	sb, err := proto.DecodeScanBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	commit[len(commit)-5] ^= 0xFF // the last image's last byte, ahead of the empty created list
	batch[len(batch)-1] ^= 0xFF
	if d := segs[1].Data; d[len(d)-1] != 'a'^0xFF {
		t.Errorf("CommitArgs image data %q does not see a write to the input", d)
	}
	if d := sb.Images[0].Data; d[len(d)-1] != 'a'^0xFF {
		t.Errorf("ScanBatch image data %q does not see a write to the input", d)
	}
}

func seed(f *testing.F, names ...string) {
	f.Add([]byte{})
	f.Add([]byte("definitely not a wire message"))
	msgs := prototest.Messages()
	for _, name := range names {
		b, err := proto.Encode(msgs[name])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		if len(b) > 3 {
			f.Add(b[:len(b)-3]) // cut mid-field: a count promises more than arrives
		}
	}
}

// carve builds messages out of raw fuzz input and requires each to survive
// decode(encode(m)) == m: the structured half of the fuzz properties.
func carve(t *testing.T, wire []byte) {
	n := len(wire)
	p := append(append([]byte(nil), wire...), make([]byte, 48)...)
	client := binary.BigEndian.Uint32(p[0:4])
	tx := binary.BigEndian.Uint64(p[4:12])
	seg := proto.SegKey{Area: binary.BigEndian.Uint32(p[12:16]), Start: int64(binary.BigEndian.Uint64(p[16:24]))}
	slot := int(int32(binary.BigEndian.Uint32(p[24:28])))
	section := func(b []byte) []byte { // empty sections decode to nil
		if len(b) == 0 {
			return nil
		}
		return b
	}
	img := proto.SegImage{Seg: seg, Slotted: section(wire[:n/3]), Overflow: section(wire[n/3 : 2*n/3]), Data: section(wire[2*n/3:])}
	segs := []proto.SegImage{img, {Seg: proto.SegKey{Area: client, Start: int64(tx)}}}
	for _, m := range []proto.Message{
		&img,
		&proto.CommitArgs{Client: client, Tx: tx, Segs: segs},
		&proto.ScanBatch{Seq: client, Last: p[29]&1 == 1, Err: string(wire[:n/2]), Images: segs},
		&proto.LockObjectArgs{Client: client, Tx: tx, Seg: seg, Slot: slot, Mode: proto.LockMode(p[28])},
		&proto.FetchLargeArgs{Client: client, Seg: seg, Slot: slot},
		&proto.StoreLargeArgs{Client: client, Tx: tx, Seg: seg, Content: section(wire[n/2:])},
		&proto.SnapFetchArgs{Client: client, Snap: tx, Seg: seg},
		&proto.SnapScanStartArgs{ScanStartArgs: proto.ScanStartArgs{Client: client, DB: seg.Area, FileID: uint32(slot), BatchBytes: uint32(tx)}, Snap: tx},
		&proto.ScanCtl{Cancel: p[29]&1 == 1, Credit: tx},
		&proto.HelloArgs{Name: string(wire)},
	} {
		enc, err := proto.Encode(m)
		if err != nil {
			t.Fatalf("encode %+v: %v", m, err)
		}
		got := prototest.New(m)
		if err := proto.Decode(enc, got); err != nil || !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip of %+v: got %+v, err %v", m, got, err)
		}
	}
}

// The four fuzzers keep their names and seed corpora (testdata/fuzz) from
// when each family of messages had its own hand-written codec; they all
// drive the one registry now.

func FuzzMsgCodecRoundTrip(f *testing.F) {
	seed(f, "ClientSegArgs", "FetchLargeArgs", "StoreLargeArgs", "LockArgs", "LockObjectArgs", "CommitArgs", "SegArgs", "CallbackReply")
	f.Fuzz(func(t *testing.T, wire []byte) {
		prototest.Fuzz(t, wire)
		carve(t, wire)
	})
}

func FuzzSnapCodecRoundTrip(f *testing.F) {
	seed(f, "ClientArgs", "SnapOpenReply", "SnapCloseArgs", "SnapFetchArgs", "SnapScanStartArgs")
	f.Fuzz(func(t *testing.T, wire []byte) {
		prototest.Fuzz(t, wire)
		carve(t, wire)
	})
}

func FuzzScanFrameDecode(f *testing.F) {
	seed(f, "ScanStartArgs", "ScanStartReply", "ScanBatch", "ScanCtl")
	f.Fuzz(prototest.Fuzz)
}

func FuzzProtoDecode(f *testing.F) {
	seed(f, "SegImage", "TypesReply", "RegisterTypeArgs", "StoreLargeArgs", "RunArgs", "SegmentsOfReply", "NameBindArgs",
		"ReserveSegmentsArgs", "ReserveSegmentsReply", "ReleasedArgs")
	f.Fuzz(func(t *testing.T, wire []byte) {
		prototest.Fuzz(t, wire)
		carve(t, wire)
	})
}
