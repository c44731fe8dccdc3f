package baseline

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"bess/internal/goleak"
)

// GobPeer preserves the pre-E12 wire protocol as a comparison system: every
// frame is gob-encoded twice (the argument body is gob'd into Body, then
// the whole frame is gob'd onto the socket), every frame is an unbuffered
// connection write, and request ids come from a mutex. E12 measures the new
// binary framed protocol (internal/rpc) against this.
//
// Its goroutines have an owner like internal/rpc's: the read loop and the
// dispatches it starts belong to the peer's group, which Close stops.

// ErrGobClosed reports a call on a torn-down GobPeer.
var ErrGobClosed = errors.New("baseline: gob rpc connection closed")

type gobFrame struct {
	ID     uint64
	Reply  bool
	Method string
	Err    string
	Body   []byte
}

// GobHandler serves one method from the inner gob body.
type GobHandler func(body []byte) ([]byte, error)

// GobPeer is one end of a gob-framed connection.
type GobPeer struct {
	conn io.ReadWriteCloser

	wmu sync.Mutex
	enc *gob.Encoder // writes straight to conn: one syscall batch per frame

	mu       sync.Mutex
	handlers map[string]GobHandler
	pending  map[uint64]chan gobFrame
	nextID   uint64
	closed   bool

	g goleak.Group // the read loop and in-flight dispatches; stopped by Close
}

// NewGobPeer wraps a connection and starts the read loop.
func NewGobPeer(conn io.ReadWriteCloser) *GobPeer {
	p := &GobPeer{
		conn:     conn,
		enc:      gob.NewEncoder(conn),
		handlers: make(map[string]GobHandler),
		pending:  make(map[uint64]chan gobFrame),
	}
	p.g.Go("baseline.gobReadLoop", p.readLoop)
	return p
}

// Handle registers a method handler.
func (p *GobPeer) Handle(method string, h GobHandler) {
	p.mu.Lock()
	p.handlers[method] = h
	p.mu.Unlock()
}

// Call gob-encodes args into the frame body, sends, and gob-decodes the
// reply body into reply — the double encode the binary protocol removed.
func (p *GobPeer) Call(method string, args any, reply any) error {
	var body bytes.Buffer
	if args != nil {
		if err := gob.NewEncoder(&body).Encode(args); err != nil {
			return err
		}
	}
	ch := make(chan gobFrame, 1)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrGobClosed
	}
	p.nextID++
	id := p.nextID
	p.pending[id] = ch
	p.mu.Unlock()
	if err := p.send(&gobFrame{ID: id, Method: method, Body: body.Bytes()}); err != nil {
		p.mu.Lock()
		delete(p.pending, id)
		p.mu.Unlock()
		return err
	}
	rf, ok := <-ch
	if !ok {
		return ErrGobClosed
	}
	if rf.Err != "" {
		return errors.New("baseline: remote: " + rf.Err)
	}
	if reply != nil {
		return gob.NewDecoder(bytes.NewReader(rf.Body)).Decode(reply)
	}
	return nil
}

func (p *GobPeer) send(f *gobFrame) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	return p.enc.Encode(f)
}

func (p *GobPeer) readLoop(<-chan struct{}) {
	dec := gob.NewDecoder(p.conn)
	for {
		var f gobFrame
		if err := dec.Decode(&f); err != nil {
			break
		}
		if f.Reply {
			p.mu.Lock()
			ch, ok := p.pending[f.ID]
			if ok {
				delete(p.pending, f.ID)
			}
			p.mu.Unlock()
			if ok {
				ch <- f
			}
			continue
		}
		if !p.g.Go("baseline.gobDispatch", func(<-chan struct{}) { p.dispatch(f) }) {
			break
		}
	}
	p.shutdown()
}

func (p *GobPeer) dispatch(f gobFrame) {
	p.mu.Lock()
	h := p.handlers[f.Method]
	p.mu.Unlock()
	reply := gobFrame{ID: f.ID, Reply: true}
	if h == nil {
		reply.Err = fmt.Sprintf("no handler for %s", f.Method)
	} else if body, err := h(f.Body); err != nil {
		reply.Err = err.Error()
	} else {
		reply.Body = body
	}
	_ = p.send(&reply)
}

func (p *GobPeer) shutdown() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for id, ch := range p.pending {
		close(ch)
		delete(p.pending, id)
	}
	p.mu.Unlock()
	p.conn.Close()
}

// Close tears the connection down and drains in-flight dispatches. The
// drain cannot hang: the closed connection fails their reply sends fast.
func (p *GobPeer) Close() error {
	err := p.conn.Close()
	p.shutdown()
	p.g.Stop()
	return err
}

// GobListener accepts gob peers over TCP.
type GobListener struct{ l net.Listener }

// GobListen opens a TCP listener for the baseline protocol.
func GobListen(addr string) (*GobListener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &GobListener{l: l}, nil
}

// Addr returns the bound address.
func (l *GobListener) Addr() string { return l.l.Addr().String() }

// Accept waits for the next peer.
func (l *GobListener) Accept() (*GobPeer, error) {
	conn, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	return NewGobPeer(conn), nil
}

// Close stops accepting.
func (l *GobListener) Close() error { return l.l.Close() }

// GobDial connects to a baseline endpoint.
func GobDial(addr string) (*GobPeer, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewGobPeer(conn), nil
}
