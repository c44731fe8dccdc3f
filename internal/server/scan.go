package server

import (
	"errors"
	"sync"
	"sync/atomic"

	"bess/internal/goleak"
	"bess/internal/lockcheck"
	"bess/internal/page"
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
// The cursor and sender goroutines are spawned through goleak.Go and carry
// stop evidence for bess-vet's golife analyzer (DESIGN.md §4e):
//
//bess:golife

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
	id     uint64
	client uint32
	batch  int
	plan   []proto.ScanSeg
	snap   bool     // read as of asOf instead of the live images
	asOf   page.LSN // snapshot stamp (snap only)

	mu        lockcheck.Mutex
	cond      *sync.Cond
	credit    int64 // bytes granted minus bytes pushed; guarded by mu
	peak      int64 // high-water credit balance (the window); guarded by mu
	cancelled bool  // guarded by mu
}

func newScanCursor(id uint64, client uint32, batch int, plan []proto.ScanSeg, snap bool, asOf page.LSN) *scanCursor {
	c := &scanCursor{id: id, client: client, batch: batch, plan: plan, snap: snap, asOf: asOf}
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
	//bess:lockfree ignore=cursor latch for the cancel flag; released immediately, never held across fetch or send
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
	//bess:lockfree ignore=credit latch: the sender deliberately parks on cond here for flow control, not data-path locking
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

// scanTable tracks one peer's live cursors.
type scanTable struct {
	mu    lockcheck.Mutex
	next  uint64                 // guarded by mu
	scans map[uint64]*scanCursor // guarded by mu
}

func newScanTable() *scanTable {
	t := &scanTable{scans: make(map[uint64]*scanCursor)}
	t.mu.Init("scanTable.mu", 0) // unranked: only cursor lookups nest under it
	return t
}

func (t *scanTable) add(client uint32, batch int, plan []proto.ScanSeg, snap bool, asOf page.LSN) *scanCursor {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	c := newScanCursor(t.next, client, batch, plan, snap, asOf)
	t.scans[c.id] = c
	return c
}

func (t *scanTable) remove(id uint64) {
	//bess:lockfree ignore=cursor-table latch, unranked and released before any fetch or send
	t.mu.Lock()
	delete(t.scans, id)
	t.mu.Unlock()
}

func (t *scanTable) lookup(id uint64) *scanCursor {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.scans[id]
}

// cancelAll cancels every live cursor (the peer went away).
func (t *scanTable) cancelAll() {
	t.mu.Lock()
	cs := make([]*scanCursor, 0, len(t.scans))
	for _, c := range t.scans {
		cs = append(cs, c)
	}
	t.mu.Unlock()
	for _, c := range cs {
		c.cancel()
	}
}

// serveScan adds the streaming-scan handlers of one peer to its handler
// table h and registers the ScanCtl stream.
func serveScan(s *Server, p *rpc.Peer, h map[string]rpc.Handler) {
	table := newScanTable()
	p.SetOnClose(func(error) { table.cancelAll() })

	start := func(a *proto.ScanStartArgs, snap bool, asOf page.LSN) (*proto.ScanStartReply, error) {
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
		c := table.add(a.Client, b, plan, snap, asOf)
		goleak.Go("server.runScan", func() { s.runScan(p, table, c) })
		return &proto.ScanStartReply{Scan: c.id, Segs: plan}, nil
	}

	h["ScanStart"] = rpc.Typed(func(a *proto.ScanStartArgs) (*proto.ScanStartReply, error) {
		return start(a, false, 0)
	})

	// SnapScanStart opens the same push cursor, but every image the cursor
	// ships is read as of the snapshot's stamp — a stable analytics scan
	// while updaters commit underneath (DESIGN.md §7).
	h["SnapScanStart"] = rpc.Typed(func(a *proto.SnapScanStartArgs) (*proto.ScanStartReply, error) {
		stamp, err := s.snapStamp(a.Snap)
		if err != nil {
			return nil, err
		}
		return start(&a.ScanStartArgs, true, stamp)
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

// runScan drives one cursor: fetch each planned segment under the usual
// short read locks, coalesce images into batches, and push them as credits
// allow. Encoded batches are handed to a sender goroutine so fetching the
// next segment overlaps the credit wait and socket write of the previous
// batch. It exits on cancel, on a send error (peer gone), or after the
// final batch. Like SnapFetchSeg, runScan is a lockfree taint root: in snap
// mode its data path reaches no lock acquisition beyond the waived cursor
// and peer latches.
//
//bess:lockfree
func (s *Server) runScan(p *rpc.Peer, t *scanTable, c *scanCursor) {
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
		done   = make(chan struct{})
	)
	goleak.Go("server.scanSender", func() {
		defer close(done)
		for sp := range sendCh {
			if !failed.Load() {
				// Draining continues after a failure so the fetch loop
				// never blocks; every batch still returns to the pool.
				//bess:lockfree ignore=SendStream takes only Peer.wmu to coalesce the write; no server-state locks are held at send time
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
		var sl, ov, data []byte
		var err error
		if c.snap {
			// As-of fetch: no locks, no copy-table registration, so the
			// pushed images never join the callback protocol.
			sl, ov, data, _, err = s.readAsOf(e.Seg, c.asOf) // shared or not, the encoder only reads
		} else {
			//bess:lockfree ignore=live-scan branch: FetchSeg takes the usual short read locks and copy-table registration by design; the snap branch stays lock-free
			sl, ov, data, err = s.FetchSeg(c.client, e.Seg)
		}
		if errors.Is(err, ErrNoSegment) {
			continue // dropped between plan and read; the client skips it too
		}
		if err != nil {
			// Ship what was already read, then report the failure.
			if len(images) > 0 {
				flush(false, "")
			}
			flush(true, err.Error())
			close(sendCh)
			<-done
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
	close(sendCh)
	<-done
}
