package rpc

import (
	"testing"

	"bess/internal/proto"
)

// Allocation budgets for the frame header codec (DESIGN.md §4f): encode
// appends onto the caller's buffer and parse fills a stack frame — neither
// may allocate on the valid-input path.

func TestAppendFrameAllocs(t *testing.T) {
	f := frame{id: 42, method: 13, body: make([]byte, 300)}
	named := frame{id: 43, flags: flagNamed, name: "SomeTestMethod", body: make([]byte, 64)}
	// A message is encoded in place, as a Call's args or a Typed reply are.
	img := &proto.SegImage{Slotted: make([]byte, 128), Data: make([]byte, 512)}
	msg := frame{id: 44, flags: flagReply | flagCRC}
	if err := msg.setMsg(img); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 2048)
	if n := testing.AllocsPerRun(200, func() {
		buf = appendFrame(buf[:0], &f)
		buf = appendFrame(buf, &named)
		buf = appendFrame(buf, &msg)
	}); n != 0 {
		t.Fatalf("appendFrame: %v allocs/op into a sized buffer, want 0", n)
	}
}

func TestParseHeaderAllocs(t *testing.T) {
	enc := appendFrame(nil, &frame{id: 7, method: 13, body: make([]byte, 99)})
	var hdr [frameHdrLen]byte
	copy(hdr[:], enc)
	var fSink frame
	var lenSink int
	if n := testing.AllocsPerRun(200, func() {
		f, plen, err := parseHeader(&hdr)
		if err != nil {
			t.Fatal(err)
		}
		fSink, lenSink = f, plen
	}); n != 0 {
		t.Fatalf("parseHeader: %v allocs/op on a valid header, want 0", n)
	}
	if fSink.id != 7 || lenSink != 99 {
		t.Fatalf("parsed id=%d plen=%d, want 7/99", fSink.id, lenSink)
	}
}
