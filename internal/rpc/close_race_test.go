package rpc

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"bess/internal/fault"
	"bess/internal/goleak"
)

// heldConn holds each Read that got data until release is closed, and says
// when it has one (got) and when the connection was closed (closed): the
// test's handle on the instant between the read loop's readFrame and its
// dispatch.
type heldConn struct {
	net.Conn
	got, closed, release chan struct{}
	gotOnce, closedOnce  atomic.Bool
}

func (c *heldConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.gotOnce.CompareAndSwap(false, true) {
		close(c.got)
		<-c.release
	}
	return n, err
}

func (c *heldConn) Close() error {
	if c.closedOnce.CompareAndSwap(false, true) {
		close(c.closed)
	}
	return c.Conn.Close()
}

// TestRequestReadBesideClose: a request frame the read loop has in hand when
// Close runs is either dispatched and joined, or never dispatched — its
// handler cannot start after Close returned, against state the caller is by
// then tearing down. The read loop is a member of the group Close stops, so
// Close waits for it and its dispatch is refused. Before that, Close waited
// only for dispatches already counted: it saw none, returned, and the handler
// ran afterwards (this test failed by observing exactly that).
func TestRequestReadBesideClose(t *testing.T) {
	cc, sc := net.Pipe()
	held := &heldConn{Conn: sc, got: make(chan struct{}), closed: make(chan struct{}), release: make(chan struct{})}
	// The fault layer's event clock says when the read loop is parked in its
	// first Read, so the request is the data that Read returns with.
	clock := fault.WrapConn(held, fault.ConnPlan{})
	srv := NewPeer(clock)
	cli := NewPeer(cc)
	defer cli.Close()
	for clock.Ops() == 0 {
		time.Sleep(100 * time.Microsecond)
	}

	var closeReturned, ranAfterClose atomic.Bool
	ran := make(chan struct{}, 1)
	srv.Handle("echo", func(body []byte) ([]byte, error) {
		ranAfterClose.Store(closeReturned.Load())
		ran <- struct{}{}
		return body, nil
	})
	callDone := make(chan error, 1)
	go func() {
		_, err := cli.CallRaw("echo", []byte("in flight"))
		callDone <- err
	}()
	<-held.got // the read loop has the frame's bytes and is held short of readFrame's return

	closeDone := make(chan struct{})
	go func() {
		srv.Close()
		closeReturned.Store(true)
		close(closeDone)
	}()
	<-held.closed // Close is under way
	select {
	case <-closeDone: // it did not wait for the read loop
	case <-time.After(50 * time.Millisecond): // it is waiting for it
	}
	close(held.release)

	select {
	case <-closeDone:
	case <-time.After(closeDrain + 3*time.Second):
		t.Fatal("Close did not return")
	}
	select {
	case <-ran:
		if ranAfterClose.Load() {
			t.Fatal("handler started after Close returned: the request was dispatched, not joined")
		}
	case <-time.After(100 * time.Millisecond):
		// never dispatched
	}
	if err := <-callDone; err == nil {
		t.Fatal("call answered although its peer closed before dispatching it")
	}
	goleak.Check(t, "rpc.")
}
