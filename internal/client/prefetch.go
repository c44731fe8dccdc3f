package client

import (
	"fmt"
	"strings"
	"sync"

	"bess/internal/proto"
	"bess/internal/rpc"
	"bess/internal/swizzle"
	"bess/internal/vmem"
)

// Client half of the streaming scan pipeline (DESIGN.md §6).
//
// StreamScan opens a server-side cursor with one ScanStart round trip, then
// consumes ScanData batches the server pushes ahead of the iterator. A pushed
// batch is decoded where it arrived: its images are views of the frame body,
// which rpc allocated for that frame and handed over, and they wait in ready
// as they are until the iterator hands each to the fetcher — no frame pool,
// no second copy. The server pushes the file's segments in order, so the
// iterator takes images in the order they arrived; the batches' Seq numbers
// are checked on delivery, and a gap or a repeat fails the scan. Flow
// control is credit-based in image bytes and is the memory bound: the
// window opens with one ScanCtl grant after the stream is registered (no
// push can race the registration), every consumed image tops it back up,
// and the server never has more than the window (or, for a batch larger
// than the whole window, that one batch) pushed and unconsumed.
//
// The prefetcher deliberately spawns nothing: delivery runs on the peer's
// read loop and the iterator runs on the caller.

// defaultScanWindow is the push budget granted to the server, in image bytes.
const defaultScanWindow = 4 << 20

// imageBytes is what one image counts for against the credit window.
func imageBytes(img *proto.SegImage) int {
	return len(img.Slotted) + len(img.Overflow) + len(img.Data)
}

// ScanOrderError fails a streaming scan whose pushed batches are out of
// sequence: the server numbers a scan's batches from zero, one apart, and a
// gap or a repeat means an image was lost or doubled on the way.
type ScanOrderError struct {
	Scan      uint64
	Got, Want uint32 // the batch's Seq and the one due
}

func (e *ScanOrderError) Error() string {
	return fmt.Sprintf("client: scan %d: batch %d arrived where %d was due", e.Scan, e.Got, e.Want)
}

// scanStream is the client side of one streaming scan: a queue of pushed
// images, taken in the order they arrived.
type scanStream struct {
	r    *Remote
	id   uint64
	hook func(images, bytes int)

	mu       sync.Mutex
	cond     *sync.Cond
	ready    []*proto.SegImage // delivered, not yet consumed, in push order; guarded by mu
	seq      uint32            // Seq the next batch must carry; guarded by mu
	done     bool              // final batch arrived; guarded by mu
	err      error             // sticky failure; guarded by mu
	draining bool              // closed: discard further deliveries; guarded by mu
}

func newScanStream(r *Remote, id uint64, hook func(int, int)) *scanStream {
	st := &scanStream{r: r, id: id, hook: hook}
	st.cond = sync.NewCond(&st.mu)
	return st
}

// deliver consumes one pushed ScanData frame, whose body is now the stream's.
// It runs on the peer's read loop: decode, signal the iterator — never block.
func (st *scanStream) deliver(body []byte) {
	sb, err := proto.DecodeScanBatch(body)
	if err != nil {
		st.fail(err)
		return
	}
	bytes := 0
	for i := range sb.Images {
		bytes += imageBytes(&sb.Images[i])
	}
	st.mu.Lock()
	if st.draining || st.err != nil {
		st.mu.Unlock() // closed or failed: nothing more is taken
		return
	}
	if sb.Seq != st.seq {
		st.err = &ScanOrderError{Scan: st.id, Got: sb.Seq, Want: st.seq}
	} else {
		st.seq++
		for i := range sb.Images {
			st.ready = append(st.ready, &sb.Images[i])
		}
		if sb.Err != "" {
			st.err = &rpc.RemoteError{Msg: sb.Err}
		}
		st.done = sb.Last
	}
	st.cond.Broadcast()
	st.mu.Unlock()
	if st.hook != nil {
		st.hook(len(sb.Images), bytes)
	}
}

// next blocks until the next pushed image is available and hands it over.
// A (nil, nil) return means the final batch has been consumed.
func (st *scanStream) next() (*proto.SegImage, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		if len(st.ready) > 0 {
			img := st.ready[0]
			st.ready[0] = nil
			st.ready = st.ready[1:]
			return img, nil
		}
		if st.err != nil {
			return nil, st.err
		}
		if st.done {
			return nil, nil
		}
		st.cond.Wait()
	}
}

// fail records a sticky stream failure and wakes the iterator.
func (st *scanStream) fail(err error) {
	st.mu.Lock()
	if st.err == nil {
		st.err = err
	}
	st.cond.Broadcast()
	st.mu.Unlock()
}

// credit returns n consumed bytes to the server's push window.
func (st *scanStream) credit(n int) error {
	return rpc.SendStream(st.r.p, proto.StreamScanCtl, st.id, &proto.ScanCtl{Credit: uint64(n)})
}

// close cancels the scan if still live, stops delivery, and lets go of every
// undelivered image. Always called, on success and failure alike; idempotent.
func (st *scanStream) close() {
	st.r.unregisterScan(st.id)
	// A cancel for a finished cursor is dropped server-side; on a dead
	// peer the send fails, which is equally fine.
	_ = rpc.SendStream(st.r.p, proto.StreamScanCtl, st.id, &proto.ScanCtl{Cancel: true})
	st.mu.Lock()
	st.draining = true
	st.ready = nil
	st.cond.Broadcast()
	st.mu.Unlock()
}

// isNoSegment matches server.ErrNoSegment across the wire (the client does
// not import internal/server): a segment listed by SegmentsOf but dropped
// before it could be read.
func isNoSegment(err error) bool {
	return err != nil && strings.Contains(err.Error(), "no such segment")
}

// StreamScan iterates over the live objects of every segment of file
// fileID like Scan, but with the push-based streaming pipeline: the server
// pushes segment images ahead of the cursor and the iterator consumes them
// as they arrive, so a cold full-file scan needs one round trip total instead
// of two per segment. Falls back to the pull path on
// non-RPC connections.
func (s *Session) StreamScan(fileID uint32, fn func(addr vmem.Addr, obj *swizzle.Object) error) error {
	if s.remote == nil {
		return s.Scan(fileID, fn)
	}
	window := s.scanWindow
	// In snapshot mode the cursor is pinned to the snapshot's stamp: every
	// pushed image is the as-of version, consistent under concurrent
	// commits. The pull fallback is equally consistent — the fetcher routes
	// cold reads to SnapFetchSeg.
	snapID, inSnap := s.snapState()
	args := proto.ScanStartArgs{Client: s.client, DB: s.db, FileID: fileID, BatchBytes: uint32(s.scanBatch)}
	var started *proto.ScanStartReply
	var err error
	if inSnap {
		started, err = call(s.remote, proto.MethodSnapScanStart, &proto.SnapScanStartArgs{ScanStartArgs: args, Snap: snapID})
	} else {
		started, err = call(s.remote, proto.MethodScanStart, &args)
	}
	if err != nil {
		return err
	}
	st := newScanStream(s.remote, started.Scan, s.scanHook)
	s.lastScan = st // leak inspection for tests
	s.remote.registerScan(started.Scan, st)
	defer st.close()
	// Open the window; the server pushes nothing before this grant.
	if err := st.credit(window); err != nil {
		return err
	}
	// Consumed bytes are returned in watermark batches rather than one
	// ScanCtl per segment: the window only needs topping up before the
	// server can stall on it, and a grant per quarter-window keeps at
	// least 3/4 of the budget open while cutting the reverse control
	// traffic (and its round trips) by the batching factor.
	owed := 0
	for {
		img, err := st.next()
		if err != nil || img == nil {
			return err
		}
		// The mapper's load of this segment is served from the pushed image,
		// with zero round trips. A segment it has cached already needs none:
		// that image is let go here.
		id := segID(img.Seg)
		if _, cached := s.mapper.Seg(id); !cached {
			s.fetch.hold(id, held{img: img})
		}
		if err := s.ScanSegment(img.Seg, fn); err != nil {
			return err
		}
		if owed += imageBytes(img); owed >= window/4 {
			if err := st.credit(owed); err != nil {
				return err
			}
			owed = 0
		}
	}
}

// SetScanBatchHook installs fn to run as each pushed batch arrives, with
// the batch's image count and byte size. Test and measurement hook.
func (s *Session) SetScanBatchHook(fn func(images, bytes int)) { s.scanHook = fn }
