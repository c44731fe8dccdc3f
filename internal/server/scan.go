package server

import (
	"errors"
	"sync"
	"sync/atomic"

	"bess/internal/goleak"
	"bess/internal/lockcheck"
	"bess/internal/proto"
	"bess/internal/rpc"
)

// Streaming scan cursor (DESIGN.md §6): the server walks a file's segments
// in the order SegmentsOf lists them and pushes their images to the client
// in coalesced ScanData batches, numbered from zero, ahead of the client's
// iterator. Flow control is credit-based and counted in image bytes: the
// client grants a window up front, the cursor deducts each batch from it,
// and the client tops the window back up as it consumes images. A batch
// larger than the whole window may be sent once the full window is
// available (the overdraw escape), so one giant segment cannot stall the
// pipeline forever.
//
// A cursor's goroutine belongs to its peer's scan table, which the peer's
// close hook stops; the sender beside it belongs to the cursor's call frame
// (DESIGN.md §4e).

// Scan batch sizing: bytes of segment images coalesced into one ScanData
// frame. The client can ask for a different granularity in ScanStart.
const (
	defaultScanBatch = 1 << 20
	maxScanBatch     = 4 << 20
)

// scanCursor is one in-flight streaming scan.
type scanCursor struct {
	id    uint64
	batch int
	segs  []proto.SegKey // the file's segments, in push order

	mu        lockcheck.Mutex
	cond      *sync.Cond
	credit    int64 // bytes granted minus bytes pushed; guarded by mu
	peak      int64 // high-water credit balance (the window); guarded by mu
	cancelled bool  // guarded by mu
}

// grant credits n more bytes (or cancels) and wakes the cursor.
func (c *scanCursor) grant(cancel bool, n uint64) {
	c.mu.Lock()
	if cancel {
		c.cancelled = true
	} else {
		c.credit += int64(n)
		if c.credit > c.peak {
			c.peak = c.credit
		}
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

func (c *scanCursor) cancel() { c.grant(true, 0) }

func (c *scanCursor) isCancelled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cancelled
}

// waitCredit blocks until n bytes of credit are available (or the full
// window is, whichever comes first) and deducts them. It returns false when
// the scan was cancelled instead. No push happens before the first grant:
// the client registers its stream and opens the window with one ScanCtl,
// which also keeps an empty final batch from racing ahead of registration.
func (c *scanCursor) waitCredit(n int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.cancelled {
			return false
		}
		if c.peak > 0 && (n == 0 || c.credit >= int64(n) || c.credit >= c.peak) {
			c.credit -= int64(n)
			return true
		}
		c.cond.Wait()
	}
}

// scanTable tracks one peer's live cursors and owns their goroutines.
type scanTable struct {
	g     goleak.Group
	mu    lockcheck.Mutex
	next  uint64                 // guarded by mu
	scans map[uint64]*scanCursor // guarded by mu
}

func newScanTable() *scanTable {
	t := &scanTable{scans: make(map[uint64]*scanCursor)}
	t.mu.Init("scanTable.mu", 0) // unranked: only cursor lookups nest under it
	return t
}

// start registers a new cursor and runs it over p in the table's group. Once
// close has halted the group, the group refuses the cursor's goroutine: start
// removes the cursor again and fails.
func (t *scanTable) start(p *rpc.Peer, batch int, segs []proto.SegKey, fetch segFetch) (*scanCursor, error) {
	c := &scanCursor{batch: batch, segs: segs}
	c.mu.Init("scanCursor.mu", 0) // unranked: never held across other locks
	c.cond = sync.NewCond(&c.mu)
	t.mu.Lock()
	t.next++
	c.id = t.next
	t.scans[c.id] = c
	t.mu.Unlock()
	if !t.g.Go("server.runScan", func(<-chan struct{}) { runScan(p, t, c, fetch) }) {
		t.remove(c.id)
		return nil, rpc.ErrClosed
	}
	return c, nil
}

func (t *scanTable) remove(id uint64) {
	t.mu.Lock()
	delete(t.scans, id)
	t.mu.Unlock()
}

func (t *scanTable) lookup(id uint64) *scanCursor {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.scans[id]
}

// close cancels every live cursor and joins their goroutines (the peer went
// away). It halts the group first: a ScanStart still in dispatch is refused
// its goroutine and fails, so every cursor that runs is one cancelled here
// and the join cannot wait on a cursor nobody cancels. It is short — the
// peer's sends fail by now, so a cursor is at most inside one fetch.
func (t *scanTable) close() {
	t.g.Halt()
	t.mu.Lock()
	cs := make([]*scanCursor, 0, len(t.scans))
	for _, c := range t.scans {
		cs = append(cs, c)
	}
	t.mu.Unlock()
	for _, c := range cs {
		c.cancel()
	}
	t.g.Stop()
}

// serveScan registers one peer's ScanCtl stream and returns its two
// streaming-scan handlers.
func serveScan(s *Server, p *rpc.Peer) []rpc.Method {
	table := newScanTable()
	p.SetOnClose(func(error) { table.close() })

	// start opens a cursor whose images come from fetch, chosen here once
	// and for the whole scan.
	start := func(a *proto.ScanStartArgs, fetch segFetch) (*proto.ScanStartReply, error) {
		b := int(a.BatchBytes)
		if b <= 0 {
			b = defaultScanBatch
		}
		if b > maxScanBatch {
			b = maxScanBatch
		}
		segs, err := s.SegmentsOf(a.DB, a.FileID)
		if err != nil {
			return nil, err
		}
		c, err := table.start(p, b, segs, fetch)
		if err != nil {
			return nil, err
		}
		return &proto.ScanStartReply{Scan: c.id}, nil
	}

	rpc.HandleStream(p, proto.StreamScanCtl, func(stream uint64, body []byte) {
		var ctl proto.ScanCtl
		if proto.Decode(body, &ctl) != nil {
			return // a garbled ctl frame is dropped, not fatal
		}
		if c := table.lookup(stream); c != nil {
			c.grant(ctl.Cancel, ctl.Credit)
		}
	})

	return []rpc.Method{
		// A live scan ships what FetchSeg would: the usual short read locks
		// and a copy-table registration for the scanning client.
		rpc.Typed(proto.MethodScanStart, func(a *proto.ScanStartArgs) (*proto.ScanStartReply, error) {
			return start(a, func(seg proto.SegKey) ([]byte, []byte, []byte, error) {
				return s.FetchSeg(a.Client, seg)
			})
		}),

		// SnapScanStart opens the same push cursor, but every image the
		// cursor ships is read as of the snapshot's stamp — a stable
		// analytics scan while updaters commit underneath (DESIGN.md §7).
		// The fetch is the reader's: no locks, no copy-table registration,
		// so the pushed images never join the callback protocol.
		rpc.Typed(proto.MethodSnapScanStart, func(a *proto.SnapScanStartArgs) (*proto.ScanStartReply, error) {
			stamp, err := s.vs.Stamp(a.Snap)
			if err != nil {
				return nil, err
			}
			rd := &s.reader
			return start(&a.ScanStartArgs, func(seg proto.SegKey) ([]byte, []byte, []byte, error) {
				sl, ov, data, _, err := rd.readAsOf(seg, 0, stamp) // shared or not, the encoder only reads
				return sl, ov, data, err
			})
		}),
	}
}

// segFetch reads one segment's image for a scan.
type segFetch func(proto.SegKey) (sl, ov, data []byte, err error)

// runScan drives one cursor: fetch each of the file's segments in order,
// coalesce images into batches, and push them as credits allow. Batches are
// handed to a sender goroutine, which encodes each straight into the peer's
// send batch, so fetching the next segment overlaps the credit wait and
// socket write of the previous batch. It exits on cancel, on a
// send error (peer gone), or after the final batch. It has no Server: what
// a scan can reach is what its fetch can, and a snapshot scan's fetch is the
// reader's (DESIGN.md §4f).
func runScan(p *rpc.Peer, t *scanTable, c *scanCursor, fetch segFetch) {
	defer t.remove(c.id)
	type push struct {
		batch *proto.ScanBatch
		size  int // image bytes, what the batch costs in credit
	}
	var (
		seq    uint32
		images []proto.SegImage
		size   int
		failed atomic.Bool
		sendCh = make(chan push, 2)
		sender goleak.Group // joined before the cursor leaves the table
	)
	defer sender.Stop()
	defer close(sendCh)
	sender.Go("server.scanSender", func(<-chan struct{}) {
		for sp := range sendCh {
			// Draining continues after a failure so the fetch loop never
			// blocks.
			if !failed.Load() && (!c.waitCredit(sp.size) || rpc.SendStream(p, proto.StreamScanData, c.id, sp.batch) != nil) {
				failed.Store(true)
			}
		}
	})
	// flush queues the accumulated images as one batch for the sender, whose
	// they are from then on. An error batch carries no images and is always
	// last.
	flush := func(last bool, errMsg string) {
		sendCh <- push{&proto.ScanBatch{Seq: seq, Last: last, Err: errMsg, Images: images}, size}
		seq++
		images, size = nil, 0
	}
	for _, k := range c.segs {
		if c.isCancelled() || failed.Load() {
			break
		}
		sl, ov, data, err := fetch(k)
		if errors.Is(err, ErrNoSegment) {
			continue // dropped since SegmentsOf listed it: nothing to push
		}
		if err != nil {
			// Ship what was already read, then report the failure.
			if len(images) > 0 {
				flush(false, "")
			}
			flush(true, err.Error())
			return
		}
		images = append(images, proto.SegImage{Seg: k, Slotted: sl, Overflow: ov, Data: data})
		size += len(sl) + len(ov) + len(data)
		if size >= c.batch {
			flush(false, "")
		}
	}
	if !c.isCancelled() && !failed.Load() {
		flush(true, "")
	}
}
