package rpc

import (
	"bytes"
	"testing"
)

// FuzzFrameDecode holds the frame parser to its contract on arbitrary
// bytes: no panic, no huge allocation (lengths are checked before use), and
// canonical encoding — any input that decodes re-encodes to exactly the
// consumed bytes and decodes again to the same frame.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendFrame(nil, &frame{id: 1, method: 13}))
	f.Add(appendFrame(nil, &frame{id: 0x0102030405060708, method: 17, body: []byte("body")}))
	f.Add(appendFrame(nil, &frame{id: 2, flags: flagNamed, name: "echo", body: []byte("hi")}))
	f.Add(appendFrame(nil, &frame{id: 3, flags: flagReply | flagError, body: []byte("boom")}))
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, n, err := decodeFrame(b)
		if err != nil {
			return
		}
		if n < frameHdrLen || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		re := appendFrame(nil, &fr)
		if !bytes.Equal(re, b[:n]) {
			t.Fatalf("not canonical:\n in %#v\nout %#v", b[:n], re)
		}
		fr2, n2, err := decodeFrame(re)
		if err != nil || n2 != len(re) {
			t.Fatalf("re-decode: n=%d err=%v", n2, err)
		}
		if fr2.id != fr.id || fr2.flags != fr.flags || fr2.method != fr.method ||
			fr2.name != fr.name || !bytes.Equal(fr2.body, fr.body) {
			t.Fatalf("re-decode mismatch: %+v vs %+v", fr, fr2)
		}
	})
}
