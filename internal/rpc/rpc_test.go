package rpc

import (
	"bufio"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bess/internal/goleak"
	"bess/internal/proto"
)

type echoArgs struct{ Msg string }
type echoReply struct{ Msg string }

func (m *echoArgs) Fields(c *proto.Cursor)  { c.String(&m.Msg) }
func (m *echoReply) Fields(c *proto.Cursor) { c.String(&m.Msg) }

func TestCallOverPipe(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	b.Serve(Typed(named("echo"), func(in *echoArgs) (*echoReply, error) {
		return &echoReply{Msg: "re: " + in.Msg}, nil
	}))
	var rep echoReply
	if err := Call(a, named("echo"), &echoArgs{Msg: "hi"}, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Msg != "re: hi" {
		t.Fatalf("reply = %q", rep.Msg)
	}
}

func TestRemoteError(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	b.Serve(Typed(named("boom"), func(in *echoArgs) (*echoReply, error) {
		return nil, errors.New("kapow")
	}))
	err := Call(a, named("boom"), &echoArgs{}, &echoReply{})
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "kapow" {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownMethod(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	err := Call(a, named("nope"), &echoArgs{}, &echoReply{})
	if err == nil || !strings.Contains(err.Error(), "no handler") {
		t.Fatalf("err = %v", err)
	}
}

// TestRetiredAndUnknownIDsAnswered: a request frame carrying a method id
// this build has no name for — a retired hole in the table, or an id past its
// end — gets the same prompt ErrNoHandler reply as an unregistered name, not
// silence.
func TestRetiredAndUnknownIDsAnswered(t *testing.T) {
	c, sc := net.Pipe()
	srv := NewPeer(sc)
	defer srv.Close()
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(c)
	for i, method := range []uint16{10, 11, 23, uint16(len(proto.Methods)), 0xFFFF} {
		if int(method) < len(proto.Methods) && proto.Methods[method].Name != "" {
			t.Fatalf("id %d is assigned to %q", method, proto.Methods[method].Name)
		}
		id := uint64(100 + i)
		// net.Pipe is unbuffered: the peer reads as this writes.
		if _, err := c.Write(appendFrame(nil, &frame{id: id, method: method, body: []byte("args")})); err != nil {
			t.Fatal(err)
		}
		rep, err := readFrame(br)
		if err != nil {
			t.Fatalf("id %d: no reply: %v", method, err)
		}
		if rep.id != id || rep.flags&(flagReply|flagError) != flagReply|flagError || !strings.Contains(string(rep.body), ErrNoHandler.Error()) {
			t.Fatalf("id %d: reply %+v (%q), want an error reply naming %v", method, rep, rep.body, ErrNoHandler)
		}
	}
}

func TestBidirectionalCalls(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	a.Serve(Typed(named("client-side"), func(in *echoArgs) (*echoReply, error) {
		return &echoReply{Msg: "from-a"}, nil
	}))
	// b's handler calls back into a over the same connection — the callback
	// locking pattern.
	b.Serve(Typed(named("server-side"), func(in *echoArgs) (*echoReply, error) {
		var rep echoReply
		if err := Call(b, named("client-side"), &echoArgs{}, &rep); err != nil {
			return nil, err
		}
		return &echoReply{Msg: "server saw " + rep.Msg}, nil
	}))
	var rep echoReply
	if err := Call(a, named("server-side"), &echoArgs{}, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Msg != "server saw from-a" {
		t.Fatalf("reply = %q", rep.Msg)
	}
}

func TestConcurrentCalls(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	b.Serve(Typed(named("echo"), func(in *echoArgs) (*echoReply, error) {
		return &echoReply{Msg: in.Msg}, nil
	}))
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var rep echoReply
			msg := strings.Repeat("x", i+1)
			if err := Call(a, named("echo"), &echoArgs{Msg: msg}, &rep); err != nil {
				errs <- err
				return
			}
			if rep.Msg != msg {
				errs <- errors.New("reply mismatch: " + rep.Msg)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCloseFailsPendingAndFutureCalls is the mid-call close regression: a
// peer closed while calls are in flight must fail every pending call with
// ErrClosed — promptly, not by deadlocking until some transport timeout —
// and future calls must fail the same way.
func TestCloseFailsPendingAndFutureCalls(t *testing.T) {
	// After the deferred release unblocks the handlers, every tracked rpc
	// goroutine on both peers must wind down (Cleanup runs after defers).
	t.Cleanup(func() { goleak.Check(t, "rpc.") })
	a, b := Pipe()
	release := make(chan struct{})
	b.Serve(Typed(named("slow"), func(in *echoArgs) (*echoReply, error) {
		<-release
		return &echoReply{}, nil
	}))
	defer close(release)
	const pending = 8
	done := make(chan error, pending)
	for i := 0; i < pending; i++ {
		go func() { done <- Call(a, named("slow"), &echoArgs{}, &echoReply{}) }()
	}
	time.Sleep(20 * time.Millisecond)
	a.Close()
	for i := 0; i < pending; i++ {
		select {
		case err := <-done:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("pending call err = %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("pending call deadlocked after close")
		}
	}
	if err := Call(a, named("echo"), &echoArgs{}, &echoReply{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after close err = %v, want ErrClosed", err)
	}
}

// closeAfterPeer is a connection whose first Close returns only once the peer
// over it has shut down: the read loop, woken by the close, always gets to
// the peer's shutdown before Close goes on.
type closeAfterPeer struct {
	net.Conn
	peer    *Peer
	closing atomic.Bool
}

func (c *closeAfterPeer) Close() error {
	err := c.Conn.Close()
	if c.closing.CompareAndSwap(false, true) {
		shut := make(chan struct{})
		c.peer.SetOnClose(func(error) { close(shut) })
		<-shut
	}
	return err
}

// TestCloseRecordsErrClosedFirst: the read loop that closing the connection
// wakes must not record its read error as the reason the peer is closed —
// every call after Close fails with ErrClosed, however the two race.
func TestCloseRecordsErrClosedFirst(t *testing.T) {
	c1, c2 := net.Pipe()
	conn := &closeAfterPeer{Conn: c1}
	a, b := NewPeer(conn), NewPeer(c2)
	conn.peer = a
	defer b.Close()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := Call(a, named("echo"), &echoArgs{}, &echoReply{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after close err = %v, want ErrClosed", err)
	}
}

// TestCloseMidBurstDrainsDispatch closes a peer while a burst of requests
// is still executing in its per-frame dispatch goroutines. Close must wait
// for every in-flight handler (the WaitGroup drain), so no dispatch
// goroutine outlives the peer, and it must finish well inside the drain
// budget once the handlers return.
func TestCloseMidBurstDrainsDispatch(t *testing.T) {
	a, b := Pipe()
	var entered, exited atomic.Int32
	release := make(chan struct{})
	b.Serve(Typed(named("slow"), func(in *echoArgs) (*echoReply, error) {
		entered.Add(1)
		<-release
		exited.Add(1)
		return &echoReply{}, nil
	}))
	const burst = 16
	done := make(chan error, burst)
	for i := 0; i < burst; i++ {
		go func() { done <- Call(a, named("slow"), &echoArgs{}, &echoReply{}) }()
	}
	deadline := time.Now().Add(5 * time.Second)
	for entered.Load() != burst {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d handlers entered", entered.Load(), burst)
		}
		time.Sleep(time.Millisecond)
	}
	// Release the handlers while Close is (most likely) already draining,
	// so the drain really overlaps live dispatches.
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	start := time.Now()
	b.Close()
	drainTime := time.Since(start)
	if got := exited.Load(); got != burst {
		t.Fatalf("Close returned with %d/%d dispatch handlers still running", burst-got, burst)
	}
	if drainTime >= closeDrain {
		t.Fatalf("Close took %v, exhausted the %v dispatch drain budget", drainTime, closeDrain)
	}
	a.Close()
	for i := 0; i < burst; i++ {
		<-done
	}
	goleak.Check(t, "rpc.")
}

// TestConcurrentRawCalls hammers CallRaw from many goroutines and then
// checks the coalescing counters: all frames arrive intact, and the write
// path flushed fewer times than it sent frames (followers rode a leader's
// flush at least part of the time).
func TestConcurrentRawCalls(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	b.Handle("sum", func(body []byte) ([]byte, error) {
		var s byte
		for _, x := range body {
			s += x
		}
		return []byte{s}, nil
	})
	const callers, perCaller = 16, 50
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := make([]byte, i+1)
			var want byte
			for j := range body {
				body[j] = byte(i + j)
				want += body[j]
			}
			for k := 0; k < perCaller; k++ {
				rep, err := a.CallRaw("sum", body)
				if err != nil {
					errs <- err
					return
				}
				if len(rep) != 1 || rep[0] != want {
					errs <- errors.New("bad sum reply")
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := a.WireStats()
	if st.FramesSent != callers*perCaller {
		t.Fatalf("frames sent = %d, want %d", st.FramesSent, callers*perCaller)
	}
	if st.Flushes <= 0 || st.Flushes > st.FramesSent {
		t.Fatalf("flushes = %d out of %d frames", st.Flushes, st.FramesSent)
	}
	// net.Pipe writes block until the reader drains them, so with 16 callers
	// the leader is guaranteed to pick up parked followers on its next pass:
	// coalescing must engage here, deterministically, even on one CPU.
	if st.Flushes >= st.FramesSent {
		t.Fatalf("flushes = %d for %d frames: no batching", st.Flushes, st.FramesSent)
	}
	if st.Coalesced == 0 {
		t.Fatalf("no coalesced frames under %d concurrent callers", callers)
	}
}

// TestReplySendFailureShutsDown: when a handler's reply cannot be sent, the
// peer must shut down (failing everything) instead of leaving the caller
// hanging forever.
func TestReplySendFailureShutsDown(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	started := make(chan struct{})
	b.Handle("wedge", func(body []byte) ([]byte, error) {
		close(started)
		// Kill the transport under b before it sends the reply.
		time.Sleep(10 * time.Millisecond)
		b.conn.Close()
		return []byte("late"), nil
	})
	closed := make(chan struct{})
	b.SetOnClose(func(error) { close(closed) })
	_, err := a.CallRaw("wedge", nil)
	if err == nil {
		t.Fatal("call succeeded over a dead transport")
	}
	<-started
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("peer did not shut down after reply send failure")
	}
}

func TestOnClose(t *testing.T) {
	a, b := Pipe()
	fired := make(chan struct{})
	b.SetOnClose(func(error) { close(fired) })
	a.Close()
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("OnClose never fired")
	}
}

func TestTCPTransport(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		p, err := l.Accept()
		if err != nil {
			return
		}
		p.Serve(Typed(named("echo"), func(in *echoArgs) (*echoReply, error) {
			return &echoReply{Msg: "tcp " + in.Msg}, nil
		}))
	}()
	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The handler registers asynchronously after accept; the accepted peer
	// holds the request until then.
	var rep echoReply
	if err := Call(c, named("echo"), &echoArgs{Msg: "net"}, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Msg != "tcp net" {
		t.Fatalf("reply = %q", rep.Msg)
	}
}

// TestAcceptHoldsRequestsUntilServe is the accept/serve race regression: a
// request already in the socket buffer when Accept returns — and for as long
// as the server takes to install its handlers — is answered, never refused
// with "no handler for method".
func TestAcceptHoldsRequestsUntilServe(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := Dial(l.Addr()) // completes in the kernel's backlog, before Accept
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	var rep echoReply
	go func() { done <- Call(c, named("echo"), &echoArgs{Msg: "early"}, &rep) }()
	for c.WireStats().Flushes == 0 { // the request is on the socket
		time.Sleep(time.Millisecond)
	}
	p, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Give a read loop that dispatches before Serve every chance to refuse.
	time.Sleep(50 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("call finished before any handler was installed: %v", err)
	default:
	}
	p.Serve(Typed(named("echo"), func(in *echoArgs) (*echoReply, error) {
		return &echoReply{Msg: "re: " + in.Msg}, nil
	}))
	if err := <-done; err != nil || rep.Msg != "re: early" {
		t.Fatalf("reply = %q, err = %v", rep.Msg, err)
	}
}
