package server

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bess/internal/goleak"
	"bess/internal/proto"
	"bess/internal/rpc"
)

// scanClient drives the raw scan protocol from the client end of a pipe:
// collect pushed batches, grant credits, and wait for the final batch.
type scanClient struct {
	p *rpc.Peer

	mu      sync.Mutex
	batches []*proto.ScanBatch
	done    chan struct{}
}

func newScanClient(p *rpc.Peer) *scanClient {
	c := &scanClient{p: p, done: make(chan struct{})}
	rpc.HandleStream(p, proto.StreamScanData, func(stream uint64, body []byte) {
		sb, err := proto.DecodeScanBatch(body)
		if err != nil {
			panic(err)
		}
		c.mu.Lock()
		c.batches = append(c.batches, sb)
		last := sb.Last
		c.mu.Unlock()
		if last {
			close(c.done)
		}
	})
	return c
}

func (c *scanClient) wait(t *testing.T) []*proto.ScanBatch {
	t.Helper()
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		t.Fatal("no final scan batch arrived")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.batches
}

// TestScanCursorProtocol drives ScanStart/ScanCtl/ScanData over a pipe:
// every planned segment is pushed, batches respect the credit window, and
// the final batch is flagged.
func TestScanCursorProtocol(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, err := s.OpenDB("scandb", true)
	if err != nil {
		t.Fatal(err)
	}
	const fileID = 4
	var want []proto.SegKey
	for i := 0; i < 5; i++ {
		k, err := createSeg(s, db, fileID, 1, 2, -1)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, k)
	}

	cEnd, sEnd := rpc.Pipe()
	defer cEnd.Close()
	ServePeer(s, sEnd)
	cli := newScanClient(cEnd)

	var started proto.ScanStartReply
	if err := rpc.Call(cEnd, proto.MethodScanStart, &proto.ScanStartArgs{Client: 1, DB: db, FileID: fileID, BatchBytes: 8 << 10}, &started); err != nil {
		t.Fatal(err)
	}
	scanID, plan := started.Scan, started.Segs
	if len(plan) != len(want) {
		t.Fatalf("plan has %d segments, want %d", len(plan), len(want))
	}
	for i, e := range plan {
		if e.Seg != want[i] {
			t.Fatalf("plan[%d] = %v, want %v", i, e.Seg, want[i])
		}
		if e.SlottedPages != 1 {
			t.Fatalf("plan[%d] slotted pages = %d, want 1", i, e.SlottedPages)
		}
	}
	// Nothing may be pushed before the first grant.
	time.Sleep(20 * time.Millisecond)
	cli.mu.Lock()
	if n := len(cli.batches); n != 0 {
		cli.mu.Unlock()
		t.Fatalf("%d batches pushed before any credit", n)
	}
	cli.mu.Unlock()

	if err := rpc.SendStream(cEnd, proto.StreamScanCtl, scanID, &proto.ScanCtl{Credit: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	batches := cli.wait(t)
	got := make(map[proto.SegKey]bool)
	for i, sb := range batches {
		if sb.Seq != uint32(i) {
			t.Fatalf("batch %d has seq %d", i, sb.Seq)
		}
		if sb.Err != "" {
			t.Fatalf("batch %d carries error %q", i, sb.Err)
		}
		for j := range sb.Images {
			got[sb.Images[j].Seg] = true
		}
	}
	for _, k := range want {
		if !got[k] {
			t.Fatalf("segment %v never pushed", k)
		}
	}
}

// TestRunScanSkipsVanishedSegment checks the cursor race guard directly: a
// plan entry that no longer resolves (dropped between planning and the
// read) is skipped, not fatal.
func TestRunScanSkipsVanishedSegment(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, err := s.OpenDB("racedb", true)
	if err != nil {
		t.Fatal(err)
	}
	real1, err := createSeg(s, db, 2, 1, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	real2, err := createSeg(s, db, 2, 1, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	phantom := proto.SegKey{Area: real1.Area, Start: 1 << 40}

	cEnd, sEnd := rpc.Pipe()
	defer cEnd.Close()
	defer sEnd.Close()
	cli := newScanClient(cEnd)

	table := newScanTable()
	defer table.close()
	c, err := table.start(sEnd, 8<<10, []proto.ScanSeg{
		{Seg: real1, SlottedPages: 1},
		{Seg: phantom, SlottedPages: 1},
		{Seg: real2, SlottedPages: 1},
	}, liveFetch(s, 1))
	if err != nil {
		t.Fatal(err)
	}
	c.grant(false, 1<<20)

	batches := cli.wait(t)
	var segs []proto.SegKey
	for _, sb := range batches {
		if sb.Err != "" {
			t.Fatalf("cursor reported error %q, want phantom skipped", sb.Err)
		}
		for j := range sb.Images {
			segs = append(segs, sb.Images[j].Seg)
		}
	}
	if len(segs) != 2 || segs[0] != real1 || segs[1] != real2 {
		t.Fatalf("pushed segments %v, want [%v %v]", segs, real1, real2)
	}
	// The Last batch is pushed by the cursor's sender goroutine, so the
	// client can observe it just before runScan's deferred removal runs.
	deadline := time.Now().Add(2 * time.Second)
	for table.lookup(c.id) != nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if table.lookup(c.id) != nil {
		t.Fatal("cursor not removed from table")
	}
	goleak.Check(t, "server.")
}

// testGroup is a goroutine group the test owns: stopped, and so joined, when
// the test ends.
func testGroup(t *testing.T) *goleak.Group {
	g := new(goleak.Group)
	t.Cleanup(g.Stop)
	return g
}

// liveFetch is the fetch ScanStart binds: FetchSeg for one client.
func liveFetch(s *Server, client uint32) segFetch {
	return func(seg proto.SegKey) ([]byte, []byte, []byte, error) { return s.FetchSeg(client, seg) }
}

// TestScanCancelReleasesCursorGoroutines cancels a cursor whose sender is
// blocked waiting for credit and verifies the whole pipeline unwinds: the
// fetch loop stops, the sender drains, the cursor leaves the table, and
// (under -tags invariants) no server goroutine stays behind.
func TestScanCancelReleasesCursorGoroutines(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, err := s.OpenDB("canceldb", true)
	if err != nil {
		t.Fatal(err)
	}
	plan := make([]proto.ScanSeg, 0, 3)
	for i := 0; i < 3; i++ {
		k, err := createSeg(s, db, 3, 1, 2, -1)
		if err != nil {
			t.Fatal(err)
		}
		plan = append(plan, proto.ScanSeg{Seg: k, SlottedPages: 1})
	}

	cEnd, sEnd := rpc.Pipe()
	defer cEnd.Close()
	defer sEnd.Close()
	var batches atomic.Int32
	rpc.HandleStream(cEnd, proto.StreamScanData, func(stream uint64, body []byte) { batches.Add(1) })

	// One byte of credit: the overdraw escape lets the first batch out,
	// then the sender parks in waitCredit with the window deep in debt.
	table := newScanTable()
	defer table.close()
	c, err := table.start(sEnd, 1, plan, liveFetch(s, 1))
	if err != nil {
		t.Fatal(err)
	}
	c.grant(false, 1)

	deadline := time.Now().Add(5 * time.Second)
	for batches.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no batch arrived before cancel")
		}
		time.Sleep(time.Millisecond)
	}
	c.cancel()
	for table.lookup(c.id) != nil {
		if time.Now().After(deadline) {
			t.Fatal("cancelled cursor never left the table")
		}
		time.Sleep(time.Millisecond)
	}
	goleak.Check(t, "server.")
}

// TestScanTableCloseJoinsCursors: the peer's close hook cancels every cursor,
// joins its goroutines, and leaves a table no ScanStart can start a cursor in
// — a cursor started after the cancel would wait for credit from a peer that
// is gone, and the join would wait for it.
func TestScanTableCloseJoinsCursors(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, err := s.OpenDB("closedb", true)
	if err != nil {
		t.Fatal(err)
	}
	k, err := createSeg(s, db, 3, 1, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	cEnd, sEnd := rpc.Pipe()
	defer cEnd.Close()
	defer sEnd.Close()

	table := newScanTable()
	// No credit is ever granted: the sender parks in waitCredit.
	c, err := table.start(sEnd, 1, []proto.ScanSeg{{Seg: k, SlottedPages: 1}}, liveFetch(s, 1))
	if err != nil {
		t.Fatalf("a fresh table refused a cursor: %v", err)
	}
	closed := make(chan struct{})
	testGroup(t).Go("server.scanTable.close", func(<-chan struct{}) { table.close(); close(closed) })
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("close did not join a cursor parked on credit")
	}
	if table.lookup(c.id) != nil {
		t.Fatal("close returned with the cursor still in the table")
	}
	if _, err := table.start(sEnd, 1, nil, liveFetch(s, 1)); !errors.Is(err, rpc.ErrClosed) {
		t.Fatalf("start on a closed table: %v, want %v", err, rpc.ErrClosed)
	}
	if n := scanCount(table); n != 0 {
		t.Fatalf("a closed table holds %d cursors", n)
	}
	goleak.Check(t, "server.")
}

// TestScanStartRacingCloseFails: ScanStarts racing the peer's close each
// either start a cursor the close cancels and joins, or are refused their
// goroutine — the table's group is halted before the close cancels anything
// — and fail, taking their cursor out again. Either way no cursor and no
// goroutine outlive the close.
func TestScanStartRacingCloseFails(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, err := s.OpenDB("racedb", true)
	if err != nil {
		t.Fatal(err)
	}
	k, err := createSeg(s, db, 3, 1, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	cEnd, sEnd := rpc.Pipe()
	defer cEnd.Close()
	defer sEnd.Close()

	for round := 0; round < 20; round++ {
		table := newScanTable()
		var starts goleak.Group
		var refused atomic.Int32
		for i := 0; i < 4; i++ {
			starts.Go("server.test.scanStart", func(<-chan struct{}) {
				_, err := table.start(sEnd, 1, []proto.ScanSeg{{Seg: k, SlottedPages: 1}}, liveFetch(s, 1))
				if errors.Is(err, rpc.ErrClosed) {
					refused.Add(1)
				} else if err != nil {
					t.Errorf("start: %v", err)
				}
			})
		}
		table.close()
		starts.Stop()
		if n := scanCount(table); n != 0 {
			t.Fatalf("round %d: %d cursors outlive the close (%d starts refused)", round, n, refused.Load())
		}
	}
	goleak.Check(t, "server.")
}

// scanCount is the number of cursors in t.
func scanCount(t *scanTable) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.scans)
}
