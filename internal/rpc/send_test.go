package rpc

import (
	"runtime"
	"testing"

	"bess/internal/goleak"
	"bess/internal/lockcheck"
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
	// Warm the method lookup and both batch buffers with a small frame each.
	for i := 0; i < 2; i++ {
		if err := p.SendStream("ScanData", 1, body[:64]); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := p.SendStream("ScanData", 1, body); err != nil {
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

// TestSendSmallFrameAllocs: steady-state, a small frame is encoded into a
// batch buffer that already has the room and written from it — no allocation.
func TestSendSmallFrameAllocs(t *testing.T) {
	if goleak.Enabled || lockcheck.Enabled {
		t.Skip("the runtime checkers allocate per lock acquisition")
	}
	p := NewPeer(newSinkConn())
	defer p.Close()
	body := make([]byte, 300)
	f := frame{id: 1, flags: flagStream, method: methodIDs["ScanData"], body: body}
	if n := testing.AllocsPerRun(200, func() {
		if err := p.send(&f); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("send of a %d-byte frame: %v allocs/op, want 0", len(body), n)
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
	} {
		if got, want := len(appendFrame(nil, &f)), f.wireLen(); got != want {
			t.Errorf("frame %d: appendFrame wrote %d bytes, wireLen says %d", f.id, got, want)
		}
	}
}
