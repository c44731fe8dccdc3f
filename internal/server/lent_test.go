package server

import (
	"bytes"
	"testing"
	"time"

	"bess/internal/client"
	"bess/internal/fault"
	"bess/internal/proto"
	"bess/internal/rpc"
)

// A large commit's request body is memory its peer lends it and takes back
// once the commit's write-back has ended (DESIGN.md §4b). These tests show
// that nothing of a commit reads that memory after it went back: in an
// invariants build the peer poisons a body as it takes it back, so a late
// reader would find garbage, or the next commit's bytes.

// lentObject is the size of the object each test segment holds: with its
// data section of eight pages, one segment's commit is a body of more than
// proto.MinRef bytes.
const lentObject = 20000

func filled(b byte) []byte { return bytes.Repeat([]byte{b}, lentObject) }

// bigSegment creates a segment of eight data pages in db and commits body as
// its object 0, in process.
func bigSegment(t *testing.T, s *Server, db uint32, body []byte) proto.SegKey {
	t.Helper()
	key, err := createSeg(s, db, 1, 1, 8, -1)
	if err != nil {
		t.Fatal(err)
	}
	sl, ov, data, err := s.FetchSeg(0, key)
	if err != nil {
		t.Fatal(err)
	}
	seg := decodeSeg(t, sl, ov, data)
	if _, err := seg.CreateObject(0, body); err != nil {
		t.Fatal(err)
	}
	cl, _ := s.Hello("setup")
	txid, _ := s.NewTx()
	if err := s.Lock(cl, txid, key, proto.LockX); err != nil {
		t.Fatal(err)
	}
	img := proto.SegImage{Seg: key, Slotted: seg.EncodeSlotted(), Overflow: seg.Overflow, Data: seg.Data}
	if err := s.Commit(cl, txid, []proto.SegImage{img}); err != nil {
		t.Fatal(err)
	}
	return key
}

// lender is a wire client of s whose server end, p, is the peer that lends
// its commits their bodies.
type lender struct {
	p  *rpc.Peer
	r  *client.Remote
	cl uint32
}

func newLender(t *testing.T, s *Server) *lender {
	t.Helper()
	cEnd, sEnd := rpc.Pipe()
	ServePeer(s, sEnd)
	t.Cleanup(func() { cEnd.Close() })
	r := client.NewRemote(cEnd)
	cl, err := r.Hello("lender")
	if err != nil {
		t.Fatal(err)
	}
	return &lender{sEnd, r, cl}
}

// begin starts a transaction that holds X on key and returns it with the
// image that overwrites key's object 0 with body.
func (l *lender) begin(t *testing.T, s *Server, key proto.SegKey, body []byte) (uint64, proto.SegImage) {
	t.Helper()
	img := overwriteImage(t, s, key, body)
	txid, err := l.r.NewTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.r.Lock(l.cl, txid, key, proto.LockX); err != nil {
		t.Fatal(err)
	}
	return txid, img
}

// commit commits body into key's object 0 over the wire and waits until
// the peer has the commit's body back. reused is how many bodies the peer
// has reused once this commit was read.
func (l *lender) commit(t *testing.T, s *Server, key proto.SegKey, body []byte, reused int64) {
	t.Helper()
	txid, img := l.begin(t, s, key, body)
	if err := l.r.Publish(l.cl, txid, nil, []proto.SegImage{img}, false); err != nil {
		t.Fatal(err)
	}
	if st := l.p.WireStats(); st.Reused != reused {
		t.Fatalf("after a commit the peer reused %d bodies, want %d", st.Reused, reused)
	}
	l.settled(t)
}

// settled returns once the peer holds one idle body, or fails the test.
func (l *lender) settled(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); l.p.WireStats().Idle != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the peer holds %d idle bodies, want 1", l.p.WireStats().Idle)
		}
	}
}

// object0 decodes object 0 of an image.
func object0(t *testing.T, sl, ov, data []byte, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	b, err := decodeSeg(t, sl, ov, data).ObjectBytes(0)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLentCommitBodyIsSafeToReuse: commit A is read into a fresh body, which
// its peer takes back after A's write-back; commit B is read into the same
// memory. A FetchSeg, a SnapFetchSeg from a snapshot opened between A and B,
// a scan, and a restart each find A's and B's bytes where they committed
// them, and no read finds rot to repair.
func TestLentCommitBodyIsSafeToReuse(t *testing.T) {
	d := newDevices(fault.NewInjector(1), fault.NewInjector(2))
	s := d.open(t)
	defer func() { s.Close() }()
	db, _, _ := s.OpenDB("d", true)
	before := filled(0x01)
	keyA := bigSegment(t, s, db, before)
	keyB := bigSegment(t, s, db, before)

	l := newLender(t, s)
	l.commit(t, s, keyA, filled(0xA1), 0)
	snap, _, err := l.r.SnapOpen(l.cl)
	if err != nil {
		t.Fatal(err)
	}
	l.commit(t, s, keyB, filled(0xB1), 1)

	want := map[proto.SegKey][]byte{keyA: filled(0xA1), keyB: filled(0xB1)}
	check := func(how string, key proto.SegKey, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Errorf("%s of segment %v: %#x…, want %#x…", how, key, got[:4], want[:4])
		}
	}
	for key, w := range want {
		sl, ov, data, err := l.r.FetchSeg(l.cl, key)
		check("FetchSeg", key, object0(t, sl, ov, data, err), w)
	}
	sl, ov, data, err := l.r.SnapFetchSeg(l.cl, snap, keyA)
	check("SnapFetchSeg", keyA, object0(t, sl, ov, data, err), want[keyA])
	sl, ov, data, err = l.r.SnapFetchSeg(l.cl, snap, keyB)
	check("SnapFetchSeg", keyB, object0(t, sl, ov, data, err), before)

	_, _, rp := wireClient(t, s, "scanner")
	scan := newScanClient(rp)
	var started proto.ScanStartReply
	if err := rpc.Call(rp, proto.MethodScanStart, &proto.ScanStartArgs{DB: db, FileID: 1, BatchBytes: 64 << 10}, &started); err != nil {
		t.Fatal(err)
	}
	if err := rpc.SendStream(rp, proto.StreamScanCtl, started.Scan, &proto.ScanCtl{Credit: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	scanned := 0
	for _, sb := range scan.wait(t) {
		for _, im := range sb.Images {
			if w, ok := want[im.Seg]; ok {
				check("scan", im.Seg, object0(t, im.Slotted, im.Overflow, im.Data, nil), w)
				scanned++
			}
		}
	}
	if scanned != len(want) {
		t.Fatalf("the scan pushed %d of the %d segments", scanned, len(want))
	}
	if st := s.ScrubStatus(); st.CorruptionsFound != 0 {
		t.Fatalf("a read found rot: %+v", st)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = d.copy().open(t)
	for key, w := range want {
		b, err := fetchObject(t, s, key)
		if err != nil {
			t.Fatal(err)
		}
		check("restart", key, b, w)
	}
	if st := s.ScrubStatus(); st.CorruptionsFound != 0 {
		t.Fatalf("restart found rot: %+v", st)
	}
}

// TestPreparedBodyIsNeverLent: a Prepare's body is not read into memory the
// peer lends, and not taken back: the branch is decided later. Commits over
// the same peer after the prepare reuse the one idle body, and the decision
// to commit then writes the branch's own bytes.
func TestPreparedBodyIsNeverLent(t *testing.T) {
	d := newDevices(fault.NewInjector(1), fault.NewInjector(2))
	s := d.open(t)
	defer func() { s.Close() }()
	db, _, _ := s.OpenDB("d", true)
	keyC := bigSegment(t, s, db, filled(0xC0))
	keyD := bigSegment(t, s, db, filled(0xD0))

	l := newLender(t, s)
	l.commit(t, s, keyD, filled(0xD1), 0)
	branch, img := l.begin(t, s, keyC, filled(0xC1))
	if err := l.r.Publish(l.cl, branch, nil, []proto.SegImage{img}, true); err != nil {
		t.Fatal(err)
	}
	if st := l.p.WireStats(); st.Reused != 0 || st.Idle != 1 {
		t.Fatalf("after the prepare: %+v, want no body reused and the one idle", st)
	}
	for i := range 3 {
		l.commit(t, s, keyD, filled(0xD2+byte(i)), int64(i+1))
	}
	if err := l.r.Decide(branch, true); err != nil {
		t.Fatal(err)
	}
	want := map[proto.SegKey][]byte{keyC: filled(0xC1), keyD: filled(0xD4)}
	for key, w := range want {
		if b, err := fetchObject(t, s, key); err != nil || !bytes.Equal(b, w) {
			t.Fatalf("segment %v after the decision: %#x…, %v; want %#x…", key, b[:min(len(b), 4)], err, w[:4])
		}
	}
	if st := s.ScrubStatus(); st.CorruptionsFound != 0 {
		t.Fatalf("a read found rot: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = d.copy().open(t)
	for key, w := range want {
		if b, err := fetchObject(t, s, key); err != nil || !bytes.Equal(b, w) {
			t.Fatalf("segment %v after a restart: %#x…, %v; want %#x…", key, b[:min(len(b), 4)], err, w[:4])
		}
	}
}
