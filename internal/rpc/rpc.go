// Package rpc implements the symmetric message protocol BeSS processes use
// to talk to each other (paper §3): clients call servers for data and
// locks, and servers call back into clients to revoke cached pages (the
// callback locking algorithm), so both ends of a connection can originate
// requests.
//
// Wire format: a stream of length-prefixed binary frames (see frame.go);
// each frame carries a request or a reply matched by id. A body is one
// message in the internal/proto codec: Call and Typed encode and decode it,
// CallRaw and a bare Handler move bytes that are already encoded. Call, Typed,
// SendStream and HandleStream take their method's descriptor from
// internal/proto's method table, which types its messages and gives its id.
//
// One hop, one buffer. Outbound, a sender sizes its frame's message before it
// takes the batch lock — an unencodable message fails there, with nothing
// queued — and then encodes it once, straight into the peer's pending batch:
// a Call's args and a Typed reply (a FetchSeg image, say) are never encoded
// anywhere else, and bytes already encoded (CallRaw, a bare Handler's reply,
// a stream frame) are copied into the batch once. A byte section of at least
// proto.MinRef bytes — a segment's data, a large body — is not copied at all:
// the batch names it (a proto.Ref) and the socket gets it from where it is,
// which is safe because send returns only once its frame is on the socket.
// The first sender to reach the socket writes the batch for everyone queued
// behind it — the same leader/follower pattern the WAL uses for group commit,
// applied to writes instead of fsyncs. The batch and the sections it names go
// to the connection in one write (net.Buffers); while they are on the socket
// senders fill the one spare, and the two swap (an idle peer keeps at most 2
// x maxSpare).
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

// Method is one entry of a peer's handler table: a method's name and the
// function serving it, whose reply message the peer encodes straight into
// its send batch: the message must not change once returned. The function may
// also return work to do after the reply (TypedThen).
type Method struct {
	name  string
	serve func(body []byte) (proto.Message, func(), error)
}

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
	BytesSent  int64
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
	pending  []byte      // guarded by wmu; frames encoded, not yet handed to a write
	refs     []proto.Ref // guarded by wmu; the sections pending leaves where they are
	spare    []byte      // guarded by wmu; the last batch written, empty, at most maxSpare
	spareRef []proto.Ref // guarded by wmu; the last batch's refs, empty
	iov      net.Buffers // the leader's, on the socket: a batch cut at its refs
	wseq     uint64      // guarded by wmu; frames appended
	wflushed uint64      // guarded by wmu; frames on the socket
	writing  bool        // guarded by wmu; a leader is on the socket
	werr     error       // guarded by wmu; sticky first write error
	frames   int64       // guarded by wmu
	bytes    int64       // guarded by wmu
	flushes  int64       // guarded by wmu
	grouped  int64       // guarded by wmu

	mu       lockcheck.Mutex
	handlers map[string]Method        // guarded by mu; by name
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
		streams:  make(map[string]StreamHandler),
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
func (p *Peer) Serve(handlers ...Method) {
	p.mu.Lock()
	for _, h := range handlers {
		p.handlers[h.name] = h
	}
	p.mu.Unlock()
	p.release()
}

// Handle is Serve for a single method served over raw bytes.
func (p *Peer) Handle(method string, h Handler) {
	p.Serve(Method{method, func(body []byte) (proto.Message, func(), error) {
		r, err := h(body)
		return &proto.Bytes{Data: r}, nil, err
	}})
}

func (p *Peer) release() { p.servedOnce.Do(func() { close(p.served) }) }

// HandleStream registers h for the one-way frames of stream s. A stream
// frame whose stream has no handler is silently dropped — frames in flight
// after a cancel are normal, not an error.
func HandleStream[M any](p *Peer, s proto.Stream[M], h StreamHandler) {
	p.mu.Lock()
	p.streams[s.Name] = h
	p.mu.Unlock()
}

// SendStream sends msg as one frame of stream s — encoded once, into the
// send batch — and expects no reply. The frame rides the same coalescing
// writer as requests and replies, so stream data interleaves with — and
// never starves — regular traffic. msg is not kept past the call.
func SendStream[M any, PM proto.Ptr[M]](p *Peer, s proto.Stream[M], stream uint64, msg *M) error {
	f := frame{id: stream, flags: flagStream}
	f.setMethod(s.Desc)
	if err := f.setMsg(PM(msg)); err != nil {
		return fmt.Errorf("rpc: encode %s: %w", s.Name, err)
	}
	return p.send(&f)
}

// setMethod names the method f calls: by its id, or inline if it has none.
func (f *frame) setMethod(d proto.Desc) {
	f.method, f.name = d.ID, d.Name
	if d.ID == 0 {
		f.flags |= flagNamed
	}
}

// Typed serves m with fn, over decoded messages: the request body is decoded
// into a fresh A (a malformed or out-of-range body is refused before fn runs)
// and fn's reply is the reply body, encoded into the send batch (a reply that
// cannot be encoded goes back as an error).
func Typed[A, R any, PA proto.Ptr[A], PR proto.Ptr[R]](m proto.Method[A, R], fn func(*A) (*R, error)) Method {
	return TypedThen[A, R, PA, PR](m, func(a *A) (*R, func(), error) {
		r, err := fn(a)
		return r, nil, err
	})
}

// TypedThen is Typed for a method whose work goes on past its answer: fn
// returns the reply and then, which the peer runs on the same dispatch
// goroutine once the reply is on the socket — or could not be sent. A
// non-nil then runs whatever the reply, which error included.
func TypedThen[A, R any, PA proto.Ptr[A], PR proto.Ptr[R]](m proto.Method[A, R], fn func(*A) (*R, func(), error)) Method {
	return Method{m.Name, func(body []byte) (proto.Message, func(), error) {
		a := new(A)
		if err := proto.Decode(body, PA(a)); err != nil {
			return nil, nil, err
		}
		r, then, err := fn(a)
		if err != nil {
			return nil, then, err
		}
		return PR(r), then, nil
	}}
}

// CallRaw sends a request whose body is already encoded, as a named frame,
// and returns the reply body, which is the reply frame's own allocation and
// now the caller's.
func (p *Peer) CallRaw(method string, body []byte) ([]byte, error) {
	return p.call(frame{flags: flagNamed, name: method, body: body})
}

// call sends f as a request and waits for the reply body.
func (p *Peer) call(f frame) ([]byte, error) {
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

// Call calls m over p: args is the request body — encoded once, into the
// send batch — and the reply body is decoded into reply. args is not kept
// past the call.
func Call[A, R any, PA proto.Ptr[A], PR proto.Ptr[R]](p *Peer, m proto.Method[A, R], args *A, reply *R) error {
	var f frame
	f.setMethod(m.Desc)
	if err := f.setMsg(PA(args)); err != nil {
		return fmt.Errorf("rpc: encode %s args: %w", m.Name, err)
	}
	rb, err := p.call(f)
	if err != nil {
		return err
	}
	if err := proto.Decode(rb, PR(reply)); err != nil {
		return fmt.Errorf("rpc: decode %s reply: %w", m.Name, err)
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

// send encodes f straight into the pending batch — its large sections as
// refs to where they are — and returns once those bytes are on the socket,
// written either by this sender as leader or by another sender's write that
// covered them: until then nothing may change the sections. A message is
// sized already (setMsg); one that changed since, and no longer encodes to
// that size, is taken back out of the batch and fails the send.
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
	// Grow at most once per frame, by what of it the batch holds: a large
	// frame must not double its way up from a small batch, nor make room for
	// the sections it leaves in place.
	start, nref := len(p.pending), len(p.refs)
	if need := start + n - f.inPlace(); need > cap(p.pending) {
		p.pending = append(make([]byte, 0, max(need, 2*cap(p.pending))), p.pending...)
	}
	if p.pending = appendFrameRefs(p.pending, &p.refs, f); len(p.pending)-start+refBytes(p.refs[nref:]) != n {
		p.pending, p.refs = p.pending[:start], p.refs[:nref]
		return fmt.Errorf("%w: message changed while being sent", proto.ErrBadMessage)
	}
	p.wseq++
	p.frames++
	p.bytes += int64(n)
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
		buf, refs := p.pending, p.refs
		top := p.wseq
		p.pending, p.spare = p.spare, nil
		p.refs, p.spareRef = p.spareRef, nil
		p.wmu.Unlock()
		err := p.write(buf, refs)
		clear(refs) // the senders' sections are theirs again
		p.wmu.Lock()
		p.spareRef = refs[:0]
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

// write hands the connection a batch and the sections its refs name, in one
// write: the batch alone, or — cut at its refs — as net.Buffers, which a TCP
// connection writes with one writev. Only the leader calls it.
func (p *Peer) write(buf []byte, refs []proto.Ref) error {
	want := len(buf) + refBytes(refs)
	var n int64
	var err error
	if len(refs) == 0 {
		var k int
		k, err = p.conn.Write(buf)
		n = int64(k)
	} else {
		iov, at := p.iov[:0], 0
		for _, r := range refs {
			if r.At > at {
				iov = append(iov, buf[at:r.At])
			}
			iov, at = append(iov, r.Data), r.At
		}
		if at < len(buf) {
			iov = append(iov, buf[at:])
		}
		p.iov = iov
		n, err = iov.WriteTo(p.conn)
		clear(p.iov[:cap(p.iov)])
	}
	if err == nil && n < int64(want) {
		err = io.ErrShortWrite
	}
	return err
}

// WireStats reports cumulative write-side counters.
func (p *Peer) WireStats() Stats {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	return Stats{FramesSent: p.frames, BytesSent: p.bytes, Flushes: p.flushes, Coalesced: p.grouped}
}

// readLoop ends when the connection does: closing it is what stops it.
func (p *Peer) readLoop(<-chan struct{}) {
	br := bufio.NewReaderSize(p.conn, 64<<10)
	dispatch := p.dispatch // one func value for the peer, not one per request
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
		// back over the same peer cannot deadlock the loop. The frame is the
		// goroutine's argument, not a closure's capture. Refused means Close
		// is under way: the request is never dispatched.
		if !goleak.GoWith(&p.g, "rpc.dispatch", dispatch, f) {
			err = ErrClosed
			break
		}
	}
	p.shutdown(err)
}

func (p *Peer) dispatch(f frame) {
	<-p.served // an accepted peer's first Serve, or shutdown
	p.mu.Lock()
	h, ok := p.handlers[f.name]
	p.mu.Unlock()
	reply := frame{id: f.id, flags: flagReply}
	var then func()
	if !ok {
		name := f.name
		if name == "" {
			name = fmt.Sprintf("#%d", f.method)
		}
		reply.flags |= flagError
		reply.body = []byte(ErrNoHandler.Error() + ": " + name)
	} else {
		var msg proto.Message
		var err error
		msg, then, err = h.serve(f.body)
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
	if then != nil {
		then()
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
