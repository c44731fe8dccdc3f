// Package rpc implements the symmetric message protocol BeSS processes use
// to talk to each other (paper §3): clients call servers for data and
// locks, and servers call back into clients to revoke cached pages (the
// callback locking algorithm), so both ends of a connection can originate
// requests.
//
// Wire format: a stream of length-prefixed binary frames (see frame.go);
// each frame carries a request or a reply matched by id. A body is one
// message in the internal/proto codec: Call and Typed encode and decode it,
// CallRaw and a bare Handler move bytes that are already encoded.
//
// One hop, one buffer. Outbound, a sender sizes its frame's message before it
// takes the batch lock — an unencodable message fails there, with nothing
// queued — and then encodes it once, straight into the peer's pending batch:
// a Call's args and a Typed reply (a FetchSeg image, say) are never encoded
// anywhere else, and bytes already encoded (CallRaw, a bare Handler's reply,
// a stream frame) are copied into the batch once. The first sender to reach
// the socket writes the batch for everyone queued behind it — the same
// leader/follower pattern the WAL uses for group commit, applied to writes
// instead of fsyncs. The batch goes to the connection as it is; while it is
// on the socket senders fill the one spare, and the two swap (an idle peer
// keeps at most 2 x maxSpare).
// Inbound, a frame's body is allocated for that frame and belongs to whoever
// receives it — handler, stream handler or caller — to keep, view into and
// write to; nothing on the read side is recycled. Transports: TCP
// (cmd/bess-server) and net.Pipe for in-process deterministic tests.
//
// Besides request/reply, a peer carries one-way stream frames (SendStream /
// HandleStream): server-pushed scan batches and their credit/cancel flow
// control, matched by stream id instead of request id (DESIGN.md §6).
//
// The read loop and every request dispatch it starts belong to the peer's
// goleak.Group, which Close stops (DESIGN.md §4e).
package rpc

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bess/internal/goleak"
	"bess/internal/lockcheck"
	"bess/internal/proto"
)

// Errors returned by the peer.
var (
	ErrClosed    = errors.New("rpc: connection closed")
	ErrNoHandler = errors.New("rpc: no handler for method")
)

// Ranks of the peer's locks in the server's lock hierarchy
// (internal/server/lockorder.go). They rank below every server lock: sending
// or matching RPC traffic while holding server state locks is the
// latency/deadlock hazard the hierarchy exists to forbid.
const (
	rankPeerMu  lockcheck.Rank = 2
	rankPeerWmu lockcheck.Rank = 5
)

// RemoteError wraps an error string returned by the other side.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "rpc: remote: " + e.Msg }

// Handler serves one method: parse the request body, return the encoded
// reply body (nil for an empty reply). The body is the frame's own
// allocation and now the handler's: it may be retained and written to.
type Handler func(body []byte) ([]byte, error)

// Method serves one method as Handler does, but returns its reply as a
// message, which the peer encodes straight into its send batch: the message
// must not change once returned. Typed builds one over decoded messages.
type Method func(body []byte) (proto.Message, error)

// StreamHandler consumes one one-way stream frame. Stream handlers run
// synchronously on the read loop so frames of one stream arrive in order;
// they must hand off promptly and never block on traffic over the same
// peer. The body is the frame's own allocation and now the handler's.
type StreamHandler func(stream uint64, body []byte)

// Stats are cumulative wire counters. With write coalescing Flushes stays
// below FramesSent under concurrency: followers whose frame was carried to
// the socket by another sender's flush count as Coalesced.
type Stats struct {
	FramesSent int64
	Flushes    int64
	Coalesced  int64
}

// Peer is one end of a connection. Both sides may Call and Serve. Safe for
// concurrent use.
type Peer struct {
	conn io.ReadWriteCloser

	nextID atomic.Uint64 // request ids, assigned without locking

	// crcOut, when set, stamps every outbound frame with a CRC-32C trailer
	// (flagCRC). Set explicitly by the end that wants end-to-end wire
	// verification, or mirrored automatically when a checksummed frame
	// arrives — one side opting in upgrades both directions. Off by default:
	// loopback benches pay nothing.
	crcOut atomic.Bool

	// g owns the read loop and the request dispatches it starts; Close
	// stops it, so a peer closed mid-burst does not strand handlers running
	// against state the caller is about to tear down. The read loop being a
	// member is what makes that hold: a dispatch it starts while Close is
	// waiting is either refused or waited for.
	g goleak.Group

	// Write side: senders encode their frames into pending; the first to
	// arrive becomes the leader, swaps pending for the spare, and writes the
	// batch to the connection outside the lock while followers park on wcond
	// (mirrors wal.Log.Flush). A frame is in exactly one buffer between its
	// sender's body and the socket.
	wmu      lockcheck.Mutex
	wcond    *sync.Cond
	pending  []byte // guarded by wmu; frames encoded, not yet handed to a write
	spare    []byte // guarded by wmu; the last batch written, empty, at most maxSpare
	wseq     uint64 // guarded by wmu; frames appended
	wflushed uint64 // guarded by wmu; frames on the socket
	writing  bool   // guarded by wmu; a leader is on the socket
	werr     error  // guarded by wmu; sticky first write error
	frames   int64  // guarded by wmu
	flushes  int64  // guarded by wmu
	grouped  int64  // guarded by wmu

	mu       lockcheck.Mutex
	handlers map[string]Method        // guarded by mu
	streams  map[string]StreamHandler // guarded by mu
	calls    map[uint64]chan frame    // guarded by mu
	closed   bool                     // guarded by mu
	closeErr error                    // guarded by mu

	onClose func(error) // guarded by mu; runs once when the read loop exits

	// served is closed when inbound requests may be dispatched: at once on
	// a peer from NewPeer, at the first Serve on one from Listener.Accept.
	served     chan struct{}
	servedOnce sync.Once
}

// SetOnClose registers fn to run once when the peer shuts down, composing
// with (after) any previously registered hook. If the peer is already
// closed, fn runs immediately with the close error. Safe to call while the
// read loop is running — which is always, since NewPeer starts it.
func (p *Peer) SetOnClose(fn func(error)) {
	p.mu.Lock()
	if p.closed {
		err := p.closeErr
		p.mu.Unlock()
		fn(err)
		return
	}
	prev := p.onClose
	if prev == nil {
		p.onClose = fn
	} else {
		p.onClose = func(err error) { prev(err); fn(err) }
	}
	p.mu.Unlock()
}

// NewPeer wraps a connection and starts the read loop.
func NewPeer(conn io.ReadWriteCloser) *Peer {
	p := newPeer(conn)
	p.release()
	return p
}

// newPeer starts a peer that holds inbound requests until release.
func newPeer(conn io.ReadWriteCloser) *Peer {
	p := &Peer{
		conn:     conn,
		handlers: make(map[string]Method),
		calls:    make(map[uint64]chan frame),
		served:   make(chan struct{}),
	}
	p.mu.Init("Peer.mu", rankPeerMu)
	p.wmu.Init("Peer.wmu", rankPeerWmu)
	p.wcond = sync.NewCond(&p.wmu)
	p.g.Go("rpc.readLoop", p.readLoop)
	return p
}

// Serve installs a table of method handlers in one step. On a peer from
// Listener.Accept it also releases the requests that arrived before it: an
// accepted peer answers nothing until its first Serve, so a client that
// calls the moment it connects can never find half a handler table.
func (p *Peer) Serve(handlers map[string]Method) {
	p.mu.Lock()
	for method, h := range handlers {
		p.handlers[method] = h
	}
	p.mu.Unlock()
	p.release()
}

// Handle is Serve for a single method served over raw bytes.
func (p *Peer) Handle(method string, h Handler) {
	p.Serve(map[string]Method{method: func(body []byte) (proto.Message, error) {
		r, err := h(body)
		return &proto.Bytes{Data: r}, err
	}})
}

func (p *Peer) release() { p.servedOnce.Do(func() { close(p.served) }) }

// HandleStream registers a handler for one-way stream frames of method. A
// stream frame whose method has no handler is silently dropped — frames in
// flight after a cancel are normal, not an error.
func (p *Peer) HandleStream(method string, h StreamHandler) {
	p.mu.Lock()
	if p.streams == nil {
		p.streams = make(map[string]StreamHandler)
	}
	p.streams[method] = h
	p.mu.Unlock()
}

// SendStream sends a one-way stream frame: no reply is expected or matched.
// The bytes ride the same coalescing writer as requests and replies, so
// stream data interleaves with — and never starves — regular traffic.
func (p *Peer) SendStream(method string, stream uint64, body []byte) error {
	f := frame{id: stream, flags: flagStream, body: body}
	f.setMethod(method)
	return p.send(&f)
}

// setMethod names the method f calls: by its id, or inline if it has none.
func (f *frame) setMethod(method string) {
	if mid, ok := methodIDs[method]; ok {
		f.method = mid
	} else {
		f.flags |= flagNamed
		f.name = method
	}
}

// Typed adapts a function over decoded messages to a Method: the request
// body is decoded into a fresh A (a malformed or out-of-range body is
// refused before fn runs) and fn's reply is the reply body, encoded into the
// send batch (a reply that cannot be encoded goes back as an error).
func Typed[A, R any, PA interface {
	*A
	proto.Message
}, PR interface {
	*R
	proto.Message
}](fn func(*A) (*R, error)) Method {
	return func(body []byte) (proto.Message, error) {
		a := new(A)
		if err := proto.Decode(body, PA(a)); err != nil {
			return nil, err
		}
		r, err := fn(a)
		if err != nil {
			return nil, err
		}
		return PR(r), nil
	}
}

// CallRaw sends a request whose body is already encoded and returns the
// reply body, which is the reply frame's own allocation and now the caller's.
func (p *Peer) CallRaw(method string, body []byte) ([]byte, error) {
	return p.call(method, frame{body: body})
}

// call sends f as a request for method and waits for the reply body.
func (p *Peer) call(method string, f frame) ([]byte, error) {
	id := p.nextID.Add(1)
	ch := make(chan frame, 1)
	p.mu.Lock()
	if p.closed {
		err := p.closeErr
		p.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return nil, err
	}
	p.calls[id] = ch
	p.mu.Unlock()

	f.id = id
	f.setMethod(method)
	if err := p.send(&f); err != nil {
		p.dropCall(id)
		return nil, err
	}
	rf, ok := <-ch
	if !ok {
		return nil, ErrClosed
	}
	if rf.flags&flagError != 0 {
		return nil, &RemoteError{Msg: string(rf.body)}
	}
	return rf.body, nil
}

// Call sends args as the request body — encoded once, into the send batch —
// and decodes the reply body into reply; a nil reply ignores the body. args
// is not kept past the call.
func (p *Peer) Call(method string, args, reply proto.Message) error {
	var f frame
	if err := f.setMsg(args); err != nil {
		return fmt.Errorf("rpc: encode %s args: %w", method, err)
	}
	rb, err := p.call(method, f)
	if err != nil || reply == nil {
		return err
	}
	if err := proto.Decode(rb, reply); err != nil {
		return fmt.Errorf("rpc: decode %s reply: %w", method, err)
	}
	return nil
}

func (p *Peer) dropCall(id uint64) {
	p.mu.Lock()
	delete(p.calls, id)
	p.mu.Unlock()
}

// EnableChecksums turns on CRC-32C frame trailers for everything this peer
// sends. The other side verifies (the flag is self-describing) and mirrors,
// so calling this on one end at handshake time protects both directions.
func (p *Peer) EnableChecksums() { p.crcOut.Store(true) }

// send encodes f straight into the pending batch and returns once those
// bytes are on the socket — written either by this sender as leader or by
// another sender's write that covered them. A message is sized already
// (setMsg); one that changed since, and no longer encodes to that size, is
// taken back out of the batch and fails the send.
func (p *Peer) send(f *frame) error {
	if p.crcOut.Load() {
		f.flags |= flagCRC
	}
	n := f.wireLen()
	p.wmu.Lock()
	defer p.wmu.Unlock()
	if p.werr != nil {
		return p.werr
	}
	// Grow at most once per frame, by its whole size: a large frame must not
	// double its way up from a small batch.
	start := len(p.pending)
	if need := start + n; need > cap(p.pending) {
		p.pending = append(make([]byte, 0, max(need, 2*cap(p.pending))), p.pending...)
	}
	if p.pending = appendFrame(p.pending, f); len(p.pending) != start+n {
		p.pending = p.pending[:start]
		return fmt.Errorf("%w: message changed while being sent", proto.ErrBadMessage)
	}
	p.wseq++
	p.frames++
	return p.flushPending(p.wseq)
}

// maxSpare keeps one giant commit frame from pinning a buffer of its size
// for the life of the peer: a batch that grew past it is dropped after its
// write, not kept as the spare.
const maxSpare = 1 << 20

// flushPending blocks until every frame through seq is written. Called with
// p.wmu held; returns with it held (the lock is dropped around each socket
// write so other senders keep queueing — the leader carries them out on its
// next pass while they wait parked on wcond).
func (p *Peer) flushPending(seq uint64) error {
	p.wmu.AssertHeld()
	waited := false
	for {
		if p.werr != nil {
			return p.werr
		}
		if p.wflushed >= seq {
			if waited {
				p.grouped++
			}
			return nil
		}
		if !p.writing {
			break
		}
		waited = true
		p.wcond.Wait()
	}
	// Leader: write batches outside the lock until nothing is pending.
	// Frames appended while a batch is on the socket ride the next pass, so
	// their senders stay parked and count as coalesced — the leader drains
	// the queue for everyone instead of handing the socket back per frame.
	// The batch is the write buffer: it goes to the connection as it is,
	// while senders fill the spare, and becomes the spare once written.
	p.writing = true
	for p.werr == nil && len(p.pending) > 0 {
		buf := p.pending
		top := p.wseq
		p.pending, p.spare = p.spare, nil
		p.wmu.Unlock()
		n, err := p.conn.Write(buf)
		if err == nil && n < len(buf) {
			err = io.ErrShortWrite
		}
		p.wmu.Lock()
		if err != nil {
			// The stream is byte-oriented: a short write leaves the socket
			// unframeable, so the connection is done for — fail everyone.
			p.werr = err
		} else {
			p.wflushed = top
			p.flushes++
		}
		if cap(buf) <= maxSpare {
			p.spare = buf[:0]
		}
		p.wcond.Broadcast()
	}
	p.writing = false
	p.wcond.Broadcast()
	return p.werr
}

// WireStats reports cumulative write-side counters.
func (p *Peer) WireStats() Stats {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	return Stats{FramesSent: p.frames, Flushes: p.flushes, Coalesced: p.grouped}
}

// readLoop ends when the connection does: closing it is what stops it.
func (p *Peer) readLoop(<-chan struct{}) {
	br := bufio.NewReaderSize(p.conn, 64<<10)
	var err error
	for {
		var f frame
		if f, err = readFrame(br); err != nil {
			break
		}
		if f.flags&flagCRC != 0 {
			// The other side speaks checksums: mirror, so our replies and
			// calls are verified too.
			p.crcOut.Store(true)
		}
		if f.flags&flagStream != 0 {
			// Stream frames dispatch synchronously: per-stream ordering is
			// the point, and handlers are required to hand off promptly.
			p.mu.Lock()
			h := p.streams[f.name]
			p.mu.Unlock()
			if h != nil {
				h(f.id, f.body)
			}
			continue
		}
		if f.flags&flagReply != 0 {
			p.mu.Lock()
			ch, ok := p.calls[f.id]
			if ok {
				delete(p.calls, f.id)
			}
			p.mu.Unlock()
			if ok {
				ch <- f
			}
			continue
		}
		// Request: dispatch in its own goroutine so a handler that calls
		// back over the same peer cannot deadlock the loop. Refused means
		// Close is under way: the request is never dispatched.
		if !p.g.Go("rpc.dispatch", func(<-chan struct{}) { p.dispatch(f) }) {
			err = ErrClosed
			break
		}
	}
	p.shutdown(err)
}

func (p *Peer) dispatch(f frame) {
	<-p.served // an accepted peer's first Serve, or shutdown
	p.mu.Lock()
	h := p.handlers[f.name]
	p.mu.Unlock()
	reply := frame{id: f.id, flags: flagReply}
	if h == nil {
		name := f.name
		if name == "" {
			name = fmt.Sprintf("#%d", f.method)
		}
		reply.flags |= flagError
		reply.body = []byte(ErrNoHandler.Error() + ": " + name)
	} else {
		msg, err := h(f.body)
		if err == nil {
			err = reply.setMsg(msg)
		}
		if err != nil {
			reply.flags |= flagError
			reply.body = []byte(err.Error())
		}
	}
	if err := p.send(&reply); err != nil {
		// A peer that cannot carry a reply is broken for every caller in
		// both directions: shut it down so pending calls fail fast instead
		// of hanging until TCP notices.
		p.shutdown(err)
	}
}

// shutdown closes the peer for err, unless it is closed already, and returns
// what closing the connection returned.
func (p *Peer) shutdown(err error) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.closeErr = err
	for id, ch := range p.calls {
		close(ch)
		delete(p.calls, id)
	}
	onClose := p.onClose
	p.mu.Unlock()
	p.release() // requests still held get a closed peer, not a wait
	// Fail senders parked on the coalescing buffer and any future writes.
	p.wmu.Lock()
	if p.werr == nil {
		p.werr = ErrClosed
	}
	p.wcond.Broadcast()
	p.wmu.Unlock()
	cerr := p.conn.Close()
	if onClose != nil {
		onClose(err)
	}
	return cerr
}

// closeDrain bounds how long Close waits for the read loop and the in-flight
// request dispatches. Handlers hand off promptly by contract, and after
// shutdown their reply sends fail immediately, so the bound only guards
// against a handler stuck in user code.
const closeDrain = 2 * time.Second

// Close tears the connection down; pending and later calls fail with
// ErrClosed, recorded before the read loop the close wakes can record its own
// error. It then joins the read loop — so the close hooks have run — and the
// in-flight dispatches, bounded by closeDrain.
func (p *Peer) Close() error {
	err := p.shutdown(ErrClosed)
	p.g.StopWithin(closeDrain)
	return err
}

// Pipe returns two connected in-process peers.
func Pipe() (*Peer, *Peer) {
	c1, c2 := net.Pipe()
	return NewPeer(c1), NewPeer(c2)
}

// Dial connects to a TCP BeSS endpoint with the default Dialer: a bounded
// connect timeout and a few retries with jittered backoff (dial.go).
func Dial(addr string) (*Peer, error) {
	var d Dialer
	return d.Dial(addr)
}

// Listener accepts TCP peers.
type Listener struct {
	l net.Listener
}

// Listen opens a TCP listener.
func Listen(addr string) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Listener{l: l}, nil
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.l.Addr().String() }

// Accept waits for the next peer. The peer reads from the start but holds
// inbound requests until its first Serve (or Handle): the caller installs
// its handlers after Accept returns, and the client may already have sent.
func (l *Listener) Accept() (*Peer, error) {
	conn, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	return newPeer(conn), nil
}

// Close stops accepting.
func (l *Listener) Close() error { return l.l.Close() }
