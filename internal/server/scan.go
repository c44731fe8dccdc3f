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
// and pushes their images to the client in coalesced ScanData batches,
// ahead of the client's iterator. Flow control is credit-based and counted
// in image bytes: the client grants a window up front, the cursor deducts
// each batch from it, and the client tops the window back up as it consumes
// images. A batch larger than the whole window may be sent once the full
// window is available (the overdraw escape), so one giant segment cannot
// stall the pipeline forever.
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

// scanBatchPool recycles encoded ScanData bodies: SendStream copies the
// bytes into the peer's write batch before returning, so the sender
// goroutine can hand each body straight back for the next flush instead
// of allocating ~1MB per batch.
var scanBatchPool = sync.Pool{New: func() any { b := make([]byte, 0, defaultScanBatch); return &b }}

func getScanBuf() *[]byte  { return scanBatchPool.Get().(*[]byte) }
func putScanBuf(b *[]byte) { scanBatchPool.Put(b) }

// scanCursor is one in-flight streaming scan.
type scanCursor struct {
	id    uint64
	batch int
	plan  []proto.ScanSeg

	mu        lockcheck.Mutex
	cond      *sync.Cond
	credit    int64 // bytes granted minus bytes pushed; guarded by mu
	peak      int64 // high-water credit balance (the window); guarded by mu
	cancelled bool  // guarded by mu
}

func newScanCursor(id uint64, batch int, plan []proto.ScanSeg) *scanCursor {
	c := &scanCursor{id: id, batch: batch, plan: plan}
	c.mu.Init("scanCursor.mu", 0) // unranked: never held across other locks
	c.cond = sync.NewCond(&c.mu)
	return c
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
	g      goleak.Group
	mu     lockcheck.Mutex
	next   uint64                 // guarded by mu
	scans  map[uint64]*scanCursor // guarded by mu
	closed bool                   // guarded by mu; the peer went away: no new cursors
}

func newScanTable() *scanTable {
	t := &scanTable{scans: make(map[uint64]*scanCursor)}
	t.mu.Init("scanTable.mu", 0) // unranked: only cursor lookups nest under it
	return t
}

// add registers a new cursor; nil once the table is closed.
func (t *scanTable) add(batch int, plan []proto.ScanSeg) *scanCursor {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.next++
	c := newScanCursor(t.next, batch, plan)
	t.scans[c.id] = c
	return c
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
// away). A ScanStart still in dispatch finds the table closed and fails, so
// every cursor there will ever be is one cancelled here: the join cannot wait
// on a cursor nobody cancels. It is short — the peer's sends fail by now, so
// a cursor is at most inside one fetch.
func (t *scanTable) close() {
	t.mu.Lock()
	t.closed = true
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

// serveScan adds the streaming-scan handlers of one peer to its handler
// table h and registers the ScanCtl stream.
func serveScan(s *Server, p *rpc.Peer, h map[string]rpc.Method) {
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
		plan := make([]proto.ScanSeg, 0, len(segs))
		for _, k := range segs {
			n, err := s.SegInfo(k)
			if errors.Is(err, ErrNoSegment) {
				continue // dropped since listing; the scan skips it
			}
			if err != nil {
				return nil, err
			}
			plan = append(plan, proto.ScanSeg{Seg: k, SlottedPages: uint32(n)})
		}
		c := table.add(b, plan)
		if c == nil || !table.g.Go("server.runScan", func(<-chan struct{}) { runScan(p, table, c, fetch) }) {
			return nil, rpc.ErrClosed
		}
		return &proto.ScanStartReply{Scan: c.id, Segs: plan}, nil
	}

	// A live scan ships what FetchSeg would: the usual short read locks and
	// a copy-table registration for the scanning client.
	h["ScanStart"] = rpc.Typed(func(a *proto.ScanStartArgs) (*proto.ScanStartReply, error) {
		return start(a, func(seg proto.SegKey) ([]byte, []byte, []byte, error) {
			return s.FetchSeg(a.Client, seg)
		})
	})

	// SnapScanStart opens the same push cursor, but every image the cursor
	// ships is read as of the snapshot's stamp — a stable analytics scan
	// while updaters commit underneath (DESIGN.md §7). The fetch is the
	// reader's: no locks, no copy-table registration, so the pushed images
	// never join the callback protocol.
	h["SnapScanStart"] = rpc.Typed(func(a *proto.SnapScanStartArgs) (*proto.ScanStartReply, error) {
		stamp, err := s.vs.Stamp(a.Snap)
		if err != nil {
			return nil, err
		}
		rd := &s.reader
		return start(&a.ScanStartArgs, func(seg proto.SegKey) ([]byte, []byte, []byte, error) {
			sl, ov, data, _, err := rd.readAsOf(seg, 0, stamp) // shared or not, the encoder only reads
			return sl, ov, data, err
		})
	})

	p.HandleStream("ScanCtl", func(stream uint64, body []byte) {
		var ctl proto.ScanCtl
		if proto.Decode(body, &ctl) != nil {
			return // a garbled ctl frame is dropped, not fatal
		}
		if c := table.lookup(stream); c != nil {
			c.grant(ctl.Cancel, ctl.Credit)
		}
	})
}

// segFetch reads one segment's image for a scan.
type segFetch func(proto.SegKey) (sl, ov, data []byte, err error)

// runScan drives one cursor: fetch each planned segment, coalesce images
// into batches, and push them as credits allow. Encoded batches are handed
// to a sender goroutine so fetching the next segment overlaps the credit
// wait and socket write of the previous batch. It exits on cancel, on a
// send error (peer gone), or after the final batch. It has no Server: what
// a scan can reach is what its fetch can, and a snapshot scan's fetch is the
// reader's (DESIGN.md §4f).
func runScan(p *rpc.Peer, t *scanTable, c *scanCursor, fetch segFetch) {
	defer t.remove(c.id)
	type push struct {
		buf  *[]byte // pooled backing array; returned to the pool after the send
		size int
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
			if !failed.Load() {
				// Draining continues after a failure so the fetch loop
				// never blocks; every batch still returns to the pool.
				if !c.waitCredit(sp.size) || p.SendStream("ScanData", c.id, *sp.buf) != nil {
					failed.Store(true)
				}
			}
			putScanBuf(sp.buf)
		}
	})
	// flush encodes the accumulated images into a pooled buffer and queues
	// the batch for the sender. An error batch carries no images and is
	// always last.
	flush := func(last bool, errMsg string) {
		sb := proto.ScanBatch{Seq: seq, Last: last, Err: errMsg, Images: images}
		bp := getScanBuf()
		*bp = proto.AppendScanBatch((*bp)[:0], &sb)
		seq++
		sz := size
		images, size = images[:0], 0
		sendCh <- push{buf: bp, size: sz}
	}
	for _, e := range c.plan {
		if c.isCancelled() || failed.Load() {
			break
		}
		sl, ov, data, err := fetch(e.Seg)
		if errors.Is(err, ErrNoSegment) {
			continue // dropped between plan and read; the client skips it too
		}
		if err != nil {
			// Ship what was already read, then report the failure.
			if len(images) > 0 {
				flush(false, "")
			}
			flush(true, err.Error())
			return
		}
		images = append(images, proto.SegImage{Seg: e.Seg, Slotted: sl, Overflow: ov, Data: data})
		size += len(sl) + len(ov) + len(data)
		if size >= c.batch {
			flush(false, "")
		}
	}
	if !c.isCancelled() && !failed.Load() {
		flush(true, "")
	}
}
