package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzFrameDecode holds the frame parser, readFrame, to its contract on
// arbitrary bytes: no panic, lengths past maxPayload refused before they are
// allocated, and canonical encoding — any input that decodes re-encodes to
// exactly the bytes read and decodes again to the same frame.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendFrame(nil, &frame{id: 1, method: 13}))
	f.Add(appendFrame(nil, &frame{id: 0x0102030405060708, method: 17, body: []byte("body")}))
	f.Add(appendFrame(nil, &frame{id: 2, flags: flagNamed, name: "echo", body: []byte("hi")}))
	f.Add(appendFrame(nil, &frame{id: 3, flags: flagReply | flagError, body: []byte("boom")}))
	read := func(b []byte) (frame, error) { return readFrame(bufio.NewReader(bytes.NewReader(b)), nil) }
	f.Fuzz(func(t *testing.T, b []byte) {
		// readFrame sizes a body by its header before reading it, as a
		// connection must: keep to lengths the input could back, and those
		// past maxPayload, which it refuses unallocated.
		if len(b) >= frameHdrLen {
			if plen := binary.BigEndian.Uint32(b[11:15]); plen <= maxPayload && int(plen) > len(b) {
				return
			}
		}
		fr, err := read(b)
		if err != nil {
			return
		}
		re := appendFrame(nil, &fr)
		if len(re) > len(b) || !bytes.Equal(re, b[:len(re)]) {
			t.Fatalf("not canonical:\n in %#v\nout %#v", b, re)
		}
		fr2, err := read(re)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if fr2.id != fr.id || fr2.flags != fr.flags || fr2.method != fr.method ||
			fr2.name != fr.name || !bytes.Equal(fr2.body, fr.body) {
			t.Fatalf("re-decode mismatch: %+v vs %+v", fr, fr2)
		}
	})
}
