package rpc

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"bess/internal/goleak"
	"bess/internal/lockcheck"
	"bess/internal/proto"
	"bess/internal/proto/prototest"
)

// sinkConn swallows writes and parks the read loop until Close.
type sinkConn struct{ closed chan struct{} }

func newSinkConn() *sinkConn { return &sinkConn{closed: make(chan struct{})} }

func (c *sinkConn) Read([]byte) (int, error)    { <-c.closed; return 0, ErrClosed }
func (c *sinkConn) Write(b []byte) (int, error) { return len(b), nil }
func (c *sinkConn) Close() error {
	select {
	case <-c.closed:
	default:
		close(c.closed)
	}
	return nil
}

// TestSendEncodesFrameOnce: a frame is encoded once, into a buffer grown once
// to the frame's size, and that buffer is what the connection is handed. With
// a scratch encode copied into a pending buffer — neither pooled above 1 MB —
// the same send allocated 2.00x the frame's size (measured at the parent
// commit with this test and this body; a small frame cost 1 alloc/op there).
func TestSendEncodesFrameOnce(t *testing.T) {
	const size = 8 << 20
	p := NewPeer(newSinkConn())
	defer p.Close()
	body := make([]byte, size)
	batch := func(data []byte) *proto.ScanBatch {
		return &proto.ScanBatch{Images: []proto.SegImage{{Data: data}}}
	}
	// Warm both batch buffers with a small frame each.
	small, big := batch(body[:64]), batch(body)
	for i := 0; i < 2; i++ {
		if err := SendStream(p, proto.StreamScanData, 1, small); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := SendStream(p, proto.StreamScanData, 1, big); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("one %d-byte frame: %d bytes allocated (%.2fx)", size, got, float64(got)/size)
	if got > size*5/4 {
		t.Fatalf("sending one %d-byte frame allocated %d bytes (%.2fx), want <= 1.25x", size, got, float64(got)/size)
	}
	// The giant batch is not kept: an idle peer holds at most 2 x maxSpare.
	p.wmu.Lock()
	held := cap(p.pending) + cap(p.spare)
	p.wmu.Unlock()
	if held > 2*maxSpare {
		t.Fatalf("idle peer retains %d bytes of send buffer, want <= %d", held, 2*maxSpare)
	}
}

// TestSendSmallFrameAllocs: steady-state, a small frame — bytes or a message —
// is encoded into a batch buffer that already has the room and written from
// it: no allocation.
func TestSendSmallFrameAllocs(t *testing.T) {
	if goleak.Enabled || lockcheck.Enabled {
		t.Skip("the runtime checkers allocate per lock acquisition")
	}
	p := NewPeer(newSinkConn())
	defer p.Close()
	body := make([]byte, 300)
	f := frame{id: 1, flags: flagStream, method: proto.StreamScanData.ID, body: body}
	var img proto.SegImage
	m := frame{id: 2, flags: flagReply}
	if err := m.setMsg(&img); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := p.send(&f); err != nil {
			t.Fatal(err)
		}
		if err := p.send(&m); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("send of a %d-byte frame and a message: %v allocs/op, want 0", len(body), n)
	}
}

// TestWireLenMatchesAppendFrame: send sizes the batch with wireLen, so it
// must be exactly what appendFrame writes, for every frame shape.
func TestWireLenMatchesAppendFrame(t *testing.T) {
	for _, f := range []frame{
		{id: 1, method: 13, body: make([]byte, 300)},
		{id: 2, flags: flagReply | flagError, body: []byte("boom")},
		{id: 3, flags: flagNamed, name: "SomeTestMethod", body: make([]byte, 64)},
		{id: 4, flags: flagStream | flagCRC, method: 34, body: make([]byte, 9)},
		{id: 5, flags: flagNamed | flagCRC, name: "echo"},
		{id: 6, flags: flagReply, msg: &proto.SegImage{Data: make([]byte, 77)}},
		{id: 7, flags: flagNamed | flagCRC, name: "echo", msg: &proto.LockArgs{}},
	} {
		if f.msg != nil {
			if err := f.setMsg(f.msg); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := len(appendFrame(nil, &f)), f.wireLen(); got != want {
			t.Errorf("frame %d: appendFrame wrote %d bytes, wireLen says %d", f.id, got, want)
		}
	}
}

// captureConn keeps what is written to it and parks the read loop until
// Close.
type captureConn struct {
	*sinkConn
	mu  sync.Mutex
	out bytes.Buffer
}

func newCaptureConn() *captureConn { return &captureConn{sinkConn: newSinkConn()} }

func (c *captureConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.out.Write(b)
}

// take returns what was written since the last take.
func (c *captureConn) take() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := bytes.Clone(c.out.Bytes())
	c.out.Reset()
	return b
}

// TestBatchEncodingIsEncode: every method's args and reply, sent through the
// batch — encoded straight into it — are the bytes of the same frame around
// proto.Encode's body, with and without the CRC trailer.
func TestBatchEncodingIsEncode(t *testing.T) {
	for _, crc := range []bool{false, true} {
		c := newCaptureConn()
		p := NewPeer(c)
		if crc {
			p.EnableChecksums()
		}
		for _, m := range prototest.Methods {
			for _, sample := range []struct {
				kind  string
				flags uint8
				msg   proto.Message
			}{{"args", 0, m.Args}, {"reply", flagReply, m.Reply}} {
				if sample.msg == nil {
					continue
				}
				t.Run(fmt.Sprintf("%s/%s/crc=%v", m.Name, sample.kind, crc), func(t *testing.T) {
					f := frame{id: 9, flags: sample.flags}
					if sample.flags&flagReply == 0 {
						f.setMethod(m.Desc)
					}
					if err := f.setMsg(sample.msg); err != nil {
						t.Fatal(err)
					}
					if err := p.send(&f); err != nil {
						t.Fatal(err)
					}
					body, err := proto.Encode(sample.msg)
					if err != nil {
						t.Fatal(err)
					}
					want := appendFrame(nil, &frame{id: 9, flags: f.flags, method: f.method, body: body})
					if got := c.take(); !bytes.Equal(got, want) {
						t.Fatalf("through the batch:\n got %x\nwant %x", got, want)
					}
				})
			}
		}
		p.Close()
	}
}

// resized is a message whose size is what n says when it is walked.
type resized struct{ n int }

func (m *resized) Fields(c *proto.Cursor) {
	for i := 0; i < m.n; i++ {
		var b uint8
		c.U8(&b)
	}
}

// TestSendTakesBackChangedMessage: a message that no longer encodes to the
// size it was sized at — changed by its sender in between — fails the send
// and leaves nothing of itself in the batch: the next frame is the next
// thing on the wire.
func TestSendTakesBackChangedMessage(t *testing.T) {
	c := newCaptureConn()
	p := NewPeer(c)
	defer p.Close()
	m := &resized{n: 3}
	f := frame{id: 1}
	f.setMethod(proto.MethodLock.Desc)
	if err := f.setMsg(m); err != nil {
		t.Fatal(err)
	}
	m.n = 5
	if err := p.send(&f); !errors.Is(err, proto.ErrBadMessage) {
		t.Fatalf("send of a message grown since sized = %v, want ErrBadMessage", err)
	}
	p.wmu.Lock()
	held := len(p.pending)
	p.wmu.Unlock()
	if held != 0 {
		t.Fatalf("the batch holds %d bytes of a refused frame", held)
	}
	g := frame{id: 2}
	g.setMethod(proto.MethodLock.Desc)
	if err := g.setMsg(m); err != nil {
		t.Fatal(err)
	}
	if err := p.send(&g); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(bytes.NewReader(c.take()))
	if got, err := readFrame(br, nil); err != nil || got.id != 2 || len(got.body) != 5 || br.Buffered() != 0 {
		t.Fatalf("on the wire: frame %d of %d bytes, %d bytes more, err %v; want frame 2 of 5 bytes alone", got.id, len(got.body), br.Buffered(), err)
	}
}
