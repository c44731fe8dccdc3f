package rpc_test

import (
	"net"
	"strings"
	"testing"
	"time"

	"bess/internal/fault"
	"bess/internal/rpc"
)

// echoServer serves "echo" on a loopback listener and returns its address.
func echoServer(t *testing.T) string {
	t.Helper()
	l, err := rpc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			p, err := l.Accept()
			if err != nil {
				return
			}
			p.Handle("echo", func(body []byte) ([]byte, error) { return body, nil })
		}
	}()
	return l.Addr()
}

// faultPeer dials addr raw and wraps the client side of the connection.
func faultPeer(t *testing.T, addr string, plan fault.ConnPlan) *rpc.Peer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	p := rpc.NewPeer(fault.WrapConn(conn, plan))
	t.Cleanup(func() { p.Close() })
	return p
}

// TestRPCOverDelayedConn: a slow link delays calls but does not break the
// protocol.
func TestRPCOverDelayedConn(t *testing.T) {
	addr := echoServer(t)
	const d = 5 * time.Millisecond
	p := faultPeer(t, addr, fault.ConnPlan{ReadDelay: d, WriteDelay: d})
	start := time.Now()
	b, err := p.CallRaw("echo", []byte("slow"))
	if err != nil || string(b) != "slow" {
		t.Fatalf("call over slow link: %q, %v", b, err)
	}
	// The read loop pays its delay while parked waiting for frames, so only
	// the write delay is guaranteed to extend the round trip.
	if el := time.Since(start); el < d {
		t.Fatalf("round trip took %v, want >= the write delay (%v)", el, d)
	}
}

// TestRPCOverDroppingConn: when the connection dies mid-conversation,
// in-flight and subsequent calls fail promptly instead of hanging.
func TestRPCOverDroppingConn(t *testing.T) {
	addr := echoServer(t)
	p := faultPeer(t, addr, fault.ConnPlan{DropAfterOps: 3})

	// Burn ops until the drop fires, bounded by the plan.
	var lastErr error
	for i := 0; i < 10; i++ {
		done := make(chan error, 1)
		go func() {
			_, err := p.CallRaw("echo", []byte("x"))
			done <- err
		}()
		select {
		case lastErr = <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("call hung on a dropped connection")
		}
		if lastErr != nil {
			break
		}
	}
	if lastErr == nil {
		t.Fatal("no call failed although the connection dropped")
	}
}

// TestRPCOverShortWriteConn: a torn frame kills the stream; the caller gets
// an error (not a corrupted reply) and the peer shuts down cleanly.
func TestRPCOverShortWriteConn(t *testing.T) {
	addr := echoServer(t)
	// Let the first call through, then tear a frame mid-write.
	p := faultPeer(t, addr, fault.ConnPlan{ShortWriteAfter: 40})

	if b, err := p.CallRaw("echo", []byte("a")); err != nil || string(b) != "a" {
		t.Fatalf("first call: %q, %v", b, err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := p.CallRaw("echo", []byte(strings.Repeat("b", 64)))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("call over a torn stream succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call hung after short write")
	}
	// Close after the tear must not hang or panic; the connection is already
	// dead, so the error (already-closed) is immaterial.
	p.Close()
}

// crcPipe builds a connected peer pair with the client side's writes going
// through a fault.Conn.
func crcPipe(t *testing.T, plan fault.ConnPlan) (cli, srv *rpc.Peer) {
	t.Helper()
	cc, sc := net.Pipe()
	cli = rpc.NewPeer(fault.WrapConn(cc, plan))
	srv = rpc.NewPeer(sc)
	srv.Handle("echo", func(body []byte) ([]byte, error) { return body, nil })
	t.Cleanup(func() { cli.Close(); srv.Close() })
	return cli, srv
}

// TestChecksumMirroring: one side opting in upgrades the connection in both
// directions — the receiver of a checksummed frame mirrors the setting.
func TestChecksumMirroring(t *testing.T) {
	cli, srv := crcPipe(t, fault.ConnPlan{})
	cli.EnableChecksums()
	if rpc.CRCOut(srv) {
		t.Fatal("server opted in before seeing a checksummed frame")
	}
	body := []byte("mirror me")
	got, err := cli.CallRaw("echo", body)
	if err != nil || string(got) != string(body) {
		t.Fatalf("checksummed call: %q, %v", got, err)
	}
	if !rpc.CRCOut(srv) {
		t.Fatal("server did not mirror the checksum setting")
	}
}

// TestChecksumDetectsWireFlip: a flipped payload byte in flight must kill
// the exchange with ErrFrameChecksum — and the same flip without checksums
// is served back as silent garbage, which is exactly why the trailer
// exists.
func TestChecksumDetectsWireFlip(t *testing.T) {
	// Byte 22 (1-based) of the write stream: inside the request payload
	// (15 header + 2 name length + 4 name, then the body).
	const flipAt = 22

	cli, srv := crcPipe(t, fault.ConnPlan{FlipByteAt: flipAt})
	cli.EnableChecksums()
	srvErr := make(chan error, 1)
	srv.SetOnClose(func(err error) { srvErr <- err })
	if _, err := cli.CallRaw("echo", []byte("precious payload")); err == nil {
		t.Fatal("corrupted call succeeded")
	}
	select {
	case err := <-srvErr:
		if !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("server shut down with %v, want a checksum error", err)
		}
	case <-time.After(time.Second):
		t.Fatal("server never detected the corrupt frame")
	}

	// Control: without the trailer the flip sails through undetected.
	cli2, _ := crcPipe(t, fault.ConnPlan{FlipByteAt: flipAt})
	body := []byte("precious payload")
	got, err := cli2.CallRaw("echo", body)
	if err != nil {
		t.Fatalf("uncorrupted-looking call failed: %v", err)
	}
	if string(got) == string(body) {
		t.Fatal("flip never fired")
	}
}
