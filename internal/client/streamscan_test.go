package client

import (
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"bess/internal/fault"
	"bess/internal/goleak"
	"bess/internal/proto"
	"bess/internal/rpc"
	"bess/internal/segment"
	"bess/internal/server"
	"bess/internal/swizzle"
	"bess/internal/vmem"
)

var blobType = segment.TypeDesc{Name: "ScanBlob", Size: 0}

// populateScanFile creates nSegs segments under fileID, each holding objsPer
// blob objects of blobLen bytes, in one committed transaction. A blob's
// first byte is the index of the segment it was created in.
func populateScanFile(t *testing.T, s *Session, fileID uint32, nSegs, objsPer, blobLen int) []proto.SegKey {
	t.Helper()
	td, err := s.RegisterType(blobType)
	if err != nil {
		t.Fatal(err)
	}
	dataPages := (objsPer*(blobLen+16))/4096 + 2
	segs := make([]proto.SegKey, nSegs)
	for i := range segs {
		segs[i], err = s.CreateSegment(fileID, 1, dataPages, -1)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	for i, k := range segs {
		blob := make([]byte, blobLen)
		blob[0] = byte(i)
		for j := 0; j < objsPer; j++ {
			if _, err := s.CreateObject(k, td.ID, blob); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	return segs
}

func countStreamScan(t *testing.T, s *Session, fileID uint32) int {
	t.Helper()
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	n := 0
	err := s.StreamScan(fileID, func(_ vmem.Addr, _ *swizzle.Object) error {
		n++
		return nil
	})
	if err != nil {
		t.Fatalf("StreamScan: %v", err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	return n
}

// heldBytes sums the image bytes a stream holds delivered and unconsumed.
func heldBytes(st *scanStream) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, img := range st.ready {
		n += imageBytes(img)
	}
	return n
}

// TestStreamScanHoldsAtMostWindow: the credit window is the prefetcher's
// memory bound. The client keeps pushed images as they arrived, so what it
// holds undelivered is what the server was allowed to push: at most the
// window, plus one batch when a batch larger than the remaining credit rides
// the overdraw escape. And however the scan ends — success, the visitor's
// cancel, a torn connection, a dead peer — close lets go of every image and
// discards whatever is still in flight.
func TestStreamScanHoldsAtMostWindow(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	setup := openDirect(t, srv, "setup")
	const fileID, nSegs, objsPer = 13, 24, 4
	segs := populateScanFile(t, setup, fileID, nSegs, objsPer, 512)
	const window, batch = 16 << 10, 8 << 10

	boom := errors.New("stop here")
	for _, tc := range []struct {
		name  string
		plan  fault.ConnPlan
		visit func(n int, sp *rpc.Peer) error
		want  func(err error) bool
	}{
		{name: "success", want: func(err error) bool { return err == nil }},
		{name: "cancel", want: func(err error) bool { return errors.Is(err, boom) },
			visit: func(n int, _ *rpc.Peer) error {
				if n == 5 {
					return boom
				}
				return nil
			}},
		{name: "fault", plan: fault.ConnPlan{ShortWriteAfter: 48 << 10}, want: func(err error) bool { return err != nil }},
		{name: "peer death", want: func(err error) bool { return err != nil },
			visit: func(n int, sp *rpc.Peer) error {
				if n == 5 {
					sp.Close()
				}
				return nil
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, cli, sp := openFaultRemote(t, srv, "bounded", tc.plan)
			defer cli.Close()
			s.scanWindow, s.scanBatch = window, batch
			var maxHeld, maxBatch atomic.Int64 // the hook runs on the read loop
			s.SetScanBatchHook(func(_, bytes int) {
				maxBatch.Store(max(maxBatch.Load(), int64(bytes)))
				maxHeld.Store(max(maxHeld.Load(), int64(heldBytes(s.lastScan))))
			})
			if err := s.Begin(); err != nil {
				t.Fatal(err)
			}
			n := 0
			err := s.StreamScan(fileID, func(_ vmem.Addr, _ *swizzle.Object) error {
				n++
				if tc.visit != nil {
					return tc.visit(n, sp)
				}
				return nil
			})
			if !tc.want(err) {
				t.Fatalf("StreamScan: %v", err)
			}
			if err == nil && n != nSegs*objsPer {
				t.Fatalf("visited %d objects, want %d", n, nSegs*objsPer)
			}
			st := s.lastScan
			if maxBatch.Load() == 0 {
				t.Fatal("batch hook never fired")
			}
			t.Logf("max held %d, largest batch %d, window %d", maxHeld.Load(), maxBatch.Load(), window)
			if held, most := maxHeld.Load(), maxBatch.Load(); held > window+most {
				t.Fatalf("stream held %d undelivered bytes, want <= window %d + one batch %d", held, window, most)
			}
			if held := heldBytes(st); held != 0 {
				t.Fatalf("%d bytes still held after close", held)
			}
			// A batch that was in flight when the scan closed is discarded.
			late := proto.ScanBatch{Images: []proto.SegImage{{Seg: segs[0], Data: make([]byte, 4096)}}}
			st.deliver(proto.AppendScanBatch(nil, &late))
			if held := heldBytes(st); held != 0 {
				t.Fatalf("a delivery after close left %d bytes held", held)
			}
		})
	}
}

func TestStreamScanVisitsAll(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	s, r := openRemote(t, srv, "scanner")
	const fileID, nSegs, objsPer = 7, 6, 20
	populateScanFile(t, s, fileID, nSegs, objsPer, 512)

	t.Run("warm", func(t *testing.T) {
		if n := countStreamScan(t, s, fileID); n != nSegs*objsPer {
			t.Fatalf("visited %d objects, want %d", n, nSegs*objsPer)
		}
	})
	t.Run("cold", func(t *testing.T) {
		s.DropAllCached()
		batches := 0
		s.SetScanBatchHook(func(images, bytes int) { batches++ })
		defer s.SetScanBatchHook(nil)
		before := r.Calls()
		if n := countStreamScan(t, s, fileID); n != nSegs*objsPer {
			t.Fatalf("visited %d objects, want %d", n, nSegs*objsPer)
		}
		// Begin costs one NewTx, the scan itself exactly one ScanStart:
		// every segment image arrives pushed, with zero per-segment RPCs.
		if calls := r.Calls() - before; calls > 3 {
			t.Fatalf("cold streaming scan issued %d RPCs, want <= 3", calls)
		}
		if batches == 0 {
			t.Fatal("batch hook never fired")
		}
	})
}

// TestStreamScanFallback checks the pull-path fallback on a connection that
// is not an RPC peer: a session opened directly on an in-process server has
// no stream to push over, so StreamScan is a plain Scan.
func TestStreamScanFallback(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	s, err := Open(srv, "in-process", "testdb", true)
	if err != nil {
		t.Fatal(err)
	}
	const fileID, nSegs, objsPer = 3, 4, 10
	populateScanFile(t, s, fileID, nSegs, objsPer, 256)
	s.DropAllCached()
	if n := countStreamScan(t, s, fileID); n != nSegs*objsPer {
		t.Fatalf("visited %d objects, want %d", n, nSegs*objsPer)
	}
}

// TestStreamScanCancelMidStream aborts from the visitor callback and checks
// nothing leaks: the server cursor goroutine exits.
func TestStreamScanCancelMidStream(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	s, _ := openRemote(t, srv, "canceller")
	const fileID = 9
	populateScanFile(t, s, fileID, 8, 20, 512)
	s.DropAllCached()
	s.scanWindow, s.scanBatch = 16<<10, 8<<10 // small window: the cursor must outlive many credit waits

	base := runtime.NumGoroutine()
	boom := errors.New("stop here")
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	n := 0
	err := s.StreamScan(fileID, func(_ vmem.Addr, _ *swizzle.Object) error {
		n++
		if n == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the visitor's error", err)
	}
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
	goleak.Check(t, "server.") // cursor and sender must both be gone
}

func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d, want <= %d (cursor leaked?)", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// openFaultRemote opens a session whose connection is wrapped server-side
// with the given fault plan.
func openFaultRemote(t *testing.T, srv *server.Server, name string, plan fault.ConnPlan) (*Session, *rpc.Peer, *rpc.Peer) {
	t.Helper()
	c1, c2 := net.Pipe()
	cli := rpc.NewPeer(c1)
	sp := rpc.NewPeer(fault.WrapConn(c2, plan))
	server.ServePeer(srv, sp)
	s, err := Open(NewRemote(cli), name, "testdb", false)
	if err != nil {
		t.Fatal(err)
	}
	return s, cli, sp
}

// TestStreamScanFaultInjection runs the streaming scan over connections
// with injected faults. Delays must not break it; a short write or a
// dropped connection must surface as an error — never a hang — and leave
// no goroutines behind.
func TestStreamScanFaultInjection(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	setup := openDirect(t, srv, "setup")
	const fileID, nSegs, objsPer = 11, 24, 14
	populateScanFile(t, setup, fileID, nSegs, objsPer, 1024)

	t.Run("delay", func(t *testing.T) {
		s, cli, _ := openFaultRemote(t, srv, "slow", fault.ConnPlan{
			ReadDelay: 200 * time.Microsecond, WriteDelay: 200 * time.Microsecond,
		})
		defer cli.Close()
		if n := countStreamScan(t, s, fileID); n != nSegs*objsPer {
			t.Fatalf("visited %d objects, want %d", n, nSegs*objsPer)
		}
	})
	t.Run("shortwrite", func(t *testing.T) {
		base := runtime.NumGoroutine()
		// Session setup traffic fits well under the limit; the pushed
		// segment images (~350KB) cross it mid-stream.
		s, cli, _ := openFaultRemote(t, srv, "torn", fault.ConnPlan{ShortWriteAfter: 48 << 10})
		defer cli.Close()
		if err := s.Begin(); err != nil {
			t.Fatal(err)
		}
		err := s.StreamScan(fileID, func(_ vmem.Addr, _ *swizzle.Object) error { return nil })
		if err == nil {
			t.Fatal("scan over a torn connection succeeded")
		}
		cli.Close()
		waitGoroutines(t, base)
		goleak.Check(t, "server.")
	})
	t.Run("drop", func(t *testing.T) {
		base := runtime.NumGoroutine()
		s, cli, _ := openFaultRemote(t, srv, "dropped", fault.ConnPlan{DropAfterOps: 40})
		defer cli.Close()
		// Small window and batches: the stream needs many socket ops, so
		// the scheduled drop lands mid-stream, well past session setup.
		s.scanWindow, s.scanBatch = 32<<10, 8<<10
		if err := s.Begin(); err != nil {
			t.Fatal(err)
		}
		err := s.StreamScan(fileID, func(_ vmem.Addr, _ *swizzle.Object) error { return nil })
		if err == nil {
			t.Fatal("scan over a dropped connection succeeded")
		}
		cli.Close()
		waitGoroutines(t, base)
		goleak.Check(t, "server.")
	})
}

// TestStreamScanParallelFiles streams two files concurrently over separate
// sessions — the multifile parallel-scan configuration of §10.
func TestStreamScanParallelFiles(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	writer, _ := openRemote(t, srv, "writer")
	const objs = 40
	populateScanFile(t, writer, 21, 4, objs/4, 512)
	populateScanFile(t, writer, 22, 4, objs/4, 512)

	type result struct {
		n   int
		err error
	}
	results := make(chan result, 2)
	for _, fileID := range []uint32{21, 22} {
		go func(fid uint32) {
			s, _ := openRemote(t, srv, "p-scan")
			if err := s.Begin(); err != nil {
				results <- result{0, err}
				return
			}
			n := 0
			err := s.StreamScan(fid, func(_ vmem.Addr, _ *swizzle.Object) error {
				n++
				return nil
			})
			if err == nil {
				err = s.Commit()
			}
			results <- result{n, err}
		}(fileID)
	}
	for i := 0; i < 2; i++ {
		res := <-results
		if res.err != nil {
			t.Fatal(res.err)
		}
		if res.n != objs {
			t.Fatalf("parallel scan visited %d, want %d", res.n, objs)
		}
	}
}

// TestScanSkipsDroppedSegment is the regression test for Session.Scan
// aborting when a listed segment vanishes before the cursor reaches it: a
// conn whose SegmentsOf reports one segment that does not exist.
func TestScanSkipsDroppedSegment(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()

	run := func(t *testing.T, conn proto.Conn, fileID uint32) {
		s, err := Open(conn, "skipper", "testdb", true)
		if err != nil {
			t.Fatal(err)
		}
		const nSegs, objsPer = 3, 8
		populateScanFile(t, s, fileID, nSegs, objsPer, 128)
		s.DropAllCached()
		if err := s.Begin(); err != nil {
			t.Fatal(err)
		}
		n := 0
		err = s.Scan(fileID, func(_ vmem.Addr, _ *swizzle.Object) error {
			n++
			return nil
		})
		if err != nil {
			t.Fatalf("Scan with a dropped segment: %v", err)
		}
		if n != nSegs*objsPer {
			t.Fatalf("visited %d objects, want %d", n, nSegs*objsPer)
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("direct", func(t *testing.T) {
		run(t, phantomSegConn{srv}, 5)
	})
	t.Run("remote", func(t *testing.T) {
		cEnd, sEnd := rpc.Pipe()
		server.ServePeer(srv, sEnd)
		run(t, phantomSegConn{NewRemote(cEnd)}, 6)
	})
}

// phantomSegConn lists one extra segment that does not exist — the shape of
// a segment dropped between SegmentsOf and the fetch.
type phantomSegConn struct {
	proto.Conn
}

func (c phantomSegConn) SegmentsOf(db, fileID uint32) ([]proto.SegKey, error) {
	segs, err := c.Conn.SegmentsOf(db, fileID)
	if err != nil {
		return nil, err
	}
	// Splice the phantom into the middle so the scan must continue past it.
	out := append([]proto.SegKey(nil), segs[:len(segs)/2]...)
	out = append(out, proto.SegKey{Area: segs[0].Area, Start: 1 << 40})
	return append(out, segs[len(segs)/2:]...), nil
}

// TestStreamScanVisitsInFileOrder: over TCP, with a window and batches
// small enough that the file crosses in several batches and many credit
// grants, a cold streaming scan visits the objects segment by segment, in
// the order SegmentsOf lists the segments.
func TestStreamScanVisitsInFileOrder(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	l, err := rpc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cli, err := rpc.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	sp, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	server.ServePeer(srv, sp)
	s, err := Open(NewRemote(cli), "ordered", "testdb", true)
	if err != nil {
		t.Fatal(err)
	}
	const fileID, nSegs, objsPer = 17, 12, 6
	created := populateScanFile(t, s, fileID, nSegs, objsPer, 1024)
	listed, err := srv.SegmentsOf(s.db, fileID)
	if err != nil || len(listed) != nSegs {
		t.Fatalf("SegmentsOf lists %d segments (%v), want %d", len(listed), err, nSegs)
	}
	index := make(map[proto.SegKey]byte, nSegs)
	for i, k := range created {
		index[k] = byte(i)
	}
	var want []byte
	for _, k := range listed {
		for j := 0; j < objsPer; j++ {
			want = append(want, index[k])
		}
	}

	s.DropAllCached()
	s.scanWindow, s.scanBatch = 16<<10, 8<<10
	batches := 0
	s.SetScanBatchHook(func(_, _ int) { batches++ })
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	var got []byte
	err = s.StreamScan(fileID, func(_ vmem.Addr, obj *swizzle.Object) error {
		b, err := obj.Bytes()
		if err == nil {
			got = append(got, b[0])
		}
		return err
	})
	if err != nil {
		t.Fatalf("StreamScan: %v", err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if batches < 3 {
		t.Fatalf("the file crossed in %d batches, want several", batches)
	}
	if string(got) != string(want) {
		t.Fatalf("visited segments %v, want %v", got, want)
	}
}

// TestStreamScanCountsOneMessagePerSegment: a streaming scan of an
// N-segment file is one SegmentsOf and one fetch per segment on the
// server's message count, 1 + N — nothing is counted for a message that
// never crossed the wire.
func TestStreamScanCountsOneMessagePerSegment(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	s, _ := openRemote(t, srv, "counted")
	const fileID, nSegs = 19, 7
	populateScanFile(t, s, fileID, nSegs, 3, 256)
	s.DropAllCached()
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	before := srv.Snapshot().Messages
	if err := s.StreamScan(fileID, func(vmem.Addr, *swizzle.Object) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := srv.Snapshot().Messages - before; got != 1+nSegs {
		t.Fatalf("a scan of %d segments counted %d server messages, want %d", nSegs, got, 1+nSegs)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamScanRefusesOutOfOrderBatch: a server peer whose ScanStart is
// driven by hand pushes batches out of sequence — a gap (Seq 0, then 2) or a
// repeat (Seq 0 twice). StreamScan fails with a ScanOrderError, and close
// leaves nothing held: neither the refused batch's images nor a batch that
// arrives after the close, which is dropped before its Seq is looked at.
func TestStreamScanRefusesOutOfOrderBatch(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	setup := openDirect(t, srv, "setup")
	const fileID = 23
	segs := populateScanFile(t, setup, fileID, 2, 3, 256)

	for _, tc := range []struct {
		name string
		seqs [2]uint32
	}{
		{"gap", [2]uint32{0, 2}},
		{"repeat", [2]uint32{0, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cEnd, sEnd := rpc.Pipe()
			defer cEnd.Close()
			server.ServePeer(srv, sEnd)
			r := NewRemote(cEnd)
			s, err := Open(r, "disordered", "testdb", false)
			if err != nil {
				t.Fatal(err)
			}
			// The hand-driven cursor: at the first grant, push one
			// segment's image per batch, numbered as the case says, then
			// a final batch that would end a scan blind to the numbering.
			const scanID = 77
			sEnd.Serve(rpc.Typed(proto.MethodScanStart, func(*proto.ScanStartArgs) (*proto.ScanStartReply, error) {
				return &proto.ScanStartReply{Scan: scanID}, nil
			}))
			granted := false
			rpc.HandleStream(sEnd, proto.StreamScanCtl, func(_ uint64, body []byte) {
				var ctl proto.ScanCtl
				if proto.Decode(body, &ctl) != nil || ctl.Cancel || granted {
					return
				}
				granted = true
				for i, seq := range tc.seqs {
					sl, ov, data, err := srv.FetchSeg(s.client, segs[i])
					if err != nil {
						t.Error(err)
						return
					}
					batch := proto.ScanBatch{Seq: seq, Images: []proto.SegImage{{Seg: segs[i], Slotted: sl, Overflow: ov, Data: data}}}
					if err := rpc.SendStream(sEnd, proto.StreamScanData, scanID, &batch); err != nil {
						t.Error(err)
					}
				}
				last := proto.ScanBatch{Seq: tc.seqs[1] + 1, Last: true}
				if err := rpc.SendStream(sEnd, proto.StreamScanData, scanID, &last); err != nil {
					t.Error(err)
				}
			})
			var batches atomic.Int32 // the hook runs on the read loop
			s.SetScanBatchHook(func(_, _ int) { batches.Add(1) })
			if err := s.Begin(); err != nil {
				t.Fatal(err)
			}
			err = s.StreamScan(fileID, func(vmem.Addr, *swizzle.Object) error { return nil })
			var order *ScanOrderError
			if !errors.As(err, &order) || order.Got != tc.seqs[1] || order.Want != 1 {
				t.Fatalf("StreamScan: %v, want a ScanOrderError for batch %d where 1 was due", err, tc.seqs[1])
			}
			st := s.lastScan
			if held := heldBytes(st); held != 0 {
				t.Fatalf("%d bytes still held after close", held)
			}
			// The two numbered batches reach the hook; a late one, delivered
			// here and so hooked here if at all, does not.
			for deadline := time.Now().Add(5 * time.Second); batches.Load() < 2; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("the hook saw %d batches, want 2", batches.Load())
				}
			}
			late := proto.ScanBatch{Seq: 1, Images: []proto.SegImage{{Seg: segs[1], Data: make([]byte, 4096)}}}
			st.deliver(proto.AppendScanBatch(nil, &late))
			if held, n := heldBytes(st), batches.Load(); held != 0 || n != 2 {
				t.Fatalf("a delivery after close left %d bytes held; the hook saw %d batches, want 2", held, n)
			}
			r.mu.Lock()
			live := len(r.scans)
			r.mu.Unlock()
			if live != 0 {
				t.Fatalf("%d scans still routed after close", live)
			}
			if err := s.Abort(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
