package rpc

import (
	"sync"
	"testing"
	"time"

	"bess/internal/proto"
)

// TestStreamFramesOrderedPerStream checks that stream frames dispatch
// synchronously in arrival order, keyed by stream id, while regular calls
// keep working on the same connection.
func TestStreamFramesOrderedPerStream(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	var mu sync.Mutex
	got := make(map[uint64][]uint32)
	done := make(chan struct{}, 1)
	HandleStream(b, proto.StreamScanData, func(stream uint64, body []byte) {
		sb, err := proto.DecodeScanBatch(body)
		if err != nil {
			t.Errorf("stream %d: %v", stream, err)
			return
		}
		mu.Lock()
		got[stream] = append(got[stream], sb.Seq)
		n := len(got[1]) + len(got[2])
		mu.Unlock()
		if n == 8 {
			done <- struct{}{}
		}
	})
	b.Handle("echo", func(body []byte) ([]byte, error) { return body, nil })

	for i := uint32(0); i < 4; i++ {
		for _, stream := range []uint64{1, 2} {
			if err := SendStream(a, proto.StreamScanData, stream, &proto.ScanBatch{Seq: i}); err != nil {
				t.Fatalf("SendStream: %v", err)
			}
		}
		// A regular call in between must not disturb stream delivery.
		if _, err := a.CallRaw("echo", []byte("x")); err != nil {
			t.Fatalf("CallRaw: %v", err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stream frames not delivered")
	}
	mu.Lock()
	defer mu.Unlock()
	for _, stream := range []uint64{1, 2} {
		seqs := got[stream]
		if len(seqs) != 4 {
			t.Fatalf("stream %d got %d frames, want 4", stream, len(seqs))
		}
		for i, s := range seqs {
			if s != uint32(i) {
				t.Fatalf("stream %d out of order: %v", stream, seqs)
			}
		}
	}
}

// TestStreamUnknownMethodDropped checks that stream frames with no handler
// vanish without wedging the connection (late frames after a cancel).
func TestStreamUnknownMethodDropped(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	b.Handle("echo", func(body []byte) ([]byte, error) { return body, nil })

	if err := SendStream(a, proto.StreamScanData, 9, &proto.ScanBatch{Err: "orphan"}); err != nil {
		t.Fatalf("SendStream: %v", err)
	}
	if err := SendStream(a, proto.Stream[proto.ScanBatch]{Desc: proto.Desc{Name: "NoSuchStream"}}, 9, &proto.ScanBatch{Err: "named orphan"}); err != nil {
		t.Fatalf("SendStream named: %v", err)
	}
	rb, err := a.CallRaw("echo", []byte("still alive"))
	if err != nil || string(rb) != "still alive" {
		t.Fatalf("call after orphan stream frames: %q, %v", rb, err)
	}
}

// TestStreamSendAfterClose checks SendStream fails cleanly on a dead peer.
func TestStreamSendAfterClose(t *testing.T) {
	a, b := Pipe()
	b.Close()
	a.Close()
	if err := SendStream(a, proto.StreamScanData, 1, &proto.ScanBatch{}); err == nil {
		t.Fatal("SendStream on closed peer succeeded")
	}
}
