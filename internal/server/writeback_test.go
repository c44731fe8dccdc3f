package server

import (
	"sync"
	"testing"
	"time"

	"bess/internal/client"
	"bess/internal/fault"
	"bess/internal/proto"
	"bess/internal/rpc"
)

// wireClient is a client's end of its own pipe to s, served as a remote
// client's is: its id and its proto.Conn.
func wireClient(t *testing.T, s *Server, name string) (uint32, *client.Remote, *rpc.Peer) {
	t.Helper()
	cEnd, sEnd := rpc.Pipe()
	ServePeer(s, sEnd)
	t.Cleanup(func() { cEnd.Close() })
	r := client.NewRemote(cEnd)
	cl, err := r.Hello(name)
	if err != nil {
		t.Fatal(err)
	}
	return cl, r, cEnd
}

// awaitWaits returns once n reads in all have waited out a write-back, or
// fails the test after a while.
func awaitWaits(t *testing.T, s *Server, n int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); s.Snapshot().WriteBackWaits < n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d reads waited out the write-back, want %d", s.Snapshot().WriteBackWaits, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWireReplyBeforeWriteBack: over the wire a commit's reply leaves at its
// publication, before its pages are written. With the first page write after
// the force held, the committing client's Commit returns; and a read issued
// then — another client's FetchSeg, a SnapFetchSeg from a snapshot opened
// after the reply, a scan of the segment — waits out the write and returns
// the committed image, never the area's old one. A live read waits at its
// copy for the writer's X, which releases after the write-back; the
// snapshot's in the version store's write-back wait.
func TestWireReplyBeforeWriteBack(t *testing.T) {
	d := newDevices(fault.NewInjector(1), fault.NewInjector(2))
	s := d.open(t)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	key := commitOne(t, s, db, []byte("the image before the commit"))
	img := overwriteImage(t, s, key, []byte("the image the commit ships!"))

	writer, w, _ := wireClient(t, s, "writer")
	txid, err := w.NewTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Lock(writer, txid, key, proto.LockX); err != nil {
		t.Fatal(err)
	}
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	defer free() // ahead of Close, which waits for the write-back
	d.beforeWrite = func() { close(held); <-release }
	if err := w.Publish(writer, txid, nil, []proto.SegImage{img}, false); err != nil {
		t.Fatalf("commit: %v", err)
	}
	<-held // the reply is in; the write-back is at its first page

	reader, r, rp := wireClient(t, s, "reader")
	snap, _, err := r.SnapOpen(reader)
	if err != nil {
		t.Fatal(err)
	}
	type read struct {
		name        string
		sl, ov, dat []byte
		err         error
	}
	reads := make(chan read, 2)
	go func() {
		sl, ov, data, err := r.FetchSeg(reader, key)
		reads <- read{"FetchSeg", sl, ov, data, err}
	}()
	go func() {
		sl, ov, data, err := r.SnapFetchSeg(reader, snap, key)
		reads <- read{"SnapFetchSeg", sl, ov, data, err}
	}()
	scan := newScanClient(rp)
	var started proto.ScanStartReply
	if err := rpc.Call(rp, proto.MethodScanStart, &proto.ScanStartArgs{Client: reader, DB: db, FileID: 1, BatchBytes: 64 << 10}, &started); err != nil {
		t.Fatal(err)
	}
	if err := rpc.SendStream(rp, proto.StreamScanCtl, started.Scan, &proto.ScanCtl{Credit: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	awaitWaits(t, s, 1)
	for deadline := time.Now().Add(5 * time.Second); s.LockStats().Blocks < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d live reads wait for the writer's X, want 2", s.LockStats().Blocks)
		}
	}
	free()
	got := []read{<-reads, <-reads}
	for _, sb := range scan.wait(t) {
		for _, im := range sb.Images {
			if im.Seg == key {
				got = append(got, read{name: "scan", sl: im.Slotted, ov: im.Overflow, dat: im.Data})
			}
		}
	}
	if len(got) != 3 {
		t.Fatal("the scan never pushed the segment")
	}
	for _, rd := range got {
		if rd.err != nil {
			t.Fatalf("%s issued during the write-back: %v", rd.name, rd.err)
		}
		if b, err := decodeSeg(t, rd.sl, rd.ov, rd.dat).ObjectBytes(0); err != nil || string(b) != "the image the commit ships!" {
			t.Errorf("%s issued during the write-back: %q, %v; want the committed image", rd.name, b, err)
		}
	}
	if st := s.ScrubStatus(); st.CorruptionsFound != 0 {
		t.Fatalf("a read took the write-back for rot: %+v", st)
	}
}

// TestAdoptedBranchDecideWaitsForItsWriteBack: a prepared branch restart
// adopted staged nothing with the version store before its decision, so
// Decide stages the segments its pages belong to. With the first page write
// of the commit held, a live FetchSeg and a SnapFetchSeg from a snapshot
// opened after the publication wait for the write and return the committed
// image.
func TestAdoptedBranchDecideWaitsForItsWriteBack(t *testing.T) {
	d := newDevices(fault.NewInjector(1), fault.NewInjector(2))
	s1 := d.open(t)
	db, _, _ := s1.OpenDB("d", true)
	key := commitOne(t, s1, db, []byte("the image before the branch"))
	cl, _ := s1.Hello("w")
	txid, _ := s1.NewTx()
	if err := s1.Lock(cl, txid, key, proto.LockX); err != nil {
		t.Fatal(err)
	}
	img := overwriteImage(t, s1, key, []byte("the image the branch ships!"))
	if err := s1.Publish(cl, txid, nil, []proto.SegImage{img}, true); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	d = d.copy()
	s := d.open(t)
	defer s.Close()

	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	defer free()
	d.beforeWrite = func() { close(held); <-release }
	decided := make(chan error, 1)
	go func() { decided <- s.Decide(txid, true) }()
	<-held // published; the write-back is at its first page

	reader, _ := s.Hello("reader")
	snap, _, err := s.SnapOpen(reader)
	if err != nil {
		t.Fatal(err)
	}
	type read struct {
		name        string
		sl, ov, dat []byte
		err         error
	}
	reads := make(chan read, 2)
	go func() {
		sl, ov, data, err := s.FetchSeg(reader, key)
		reads <- read{"FetchSeg", sl, ov, data, err}
	}()
	go func() {
		sl, ov, data, err := s.SnapFetchSeg(reader, snap, key)
		reads <- read{"SnapFetchSeg", sl, ov, data, err}
	}()
	awaitWaits(t, s, 2)
	free()
	if err := <-decided; err != nil {
		t.Fatalf("commit decision: %v", err)
	}
	for range 2 {
		rd := <-reads
		if rd.err != nil {
			t.Fatalf("%s issued during the write-back: %v", rd.name, rd.err)
		}
		if b, err := decodeSeg(t, rd.sl, rd.ov, rd.dat).ObjectBytes(0); err != nil || string(b) != "the image the branch ships!" {
			t.Errorf("%s issued during the write-back: %q, %v; want the committed image", rd.name, b, err)
		}
	}
}
