package wal

import (
	"bytes"
	"reflect"
	"testing"

	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/proto/prototest"
)

// catalogBody is a catalog record's body as the server writes it: an encoded
// proto.CatalogOp (the add-segment kind).
func catalogBody(t testing.TB) []byte {
	b, err := proto.Encode(prototest.CatalogOps[proto.CatAddSegment])
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzWALDecodeRecord drives the record decoder with arbitrary bytes — the
// exact situation recovery faces when a torn or scribbled log tail happens
// to pass the length probe. Properties: never panic, and any input that
// decodes must re-encode and decode to the identical record (the decoder
// accepts nothing the encoder cannot reproduce).
func FuzzWALDecodeRecord(f *testing.F) {
	seed := []*Record{
		{Type: TCommit, Tx: 7, PrevLSN: 1234},
		{Type: TPrepare, Tx: 9, PrevLSN: 88},
		{Type: TUpdate, Tx: 1, PrevLSN: 8, Page: page.ID{Area: 3, Page: 42}, Off: 128,
			Before: []byte("before-img"), After: []byte("after-img")},
		{Type: TAbort, Tx: 2, PrevLSN: 16},
		// testdata's seed-checkpoint is one as earlier builds wrote it, with a
		// list of two transactions the decoder skips.
		{Type: TCheckpoint, DirtyPages: []CkptPage{{Page: page.ID{Area: 1, Page: 2}, RecLSN: 64}}},
		{Type: TCatalog, Body: catalogBody(f)},
		{Type: TCatalog}, // an empty body is the server's to reject, not the log's
		// An update with its undo half at its own offset, and one with a zero
		// before-image: the flagged-length encoding.
		{Type: TUpdate, Tx: 3, Page: page.ID{Area: 1, Page: 9}, After: bytes.Repeat([]byte{0x5C}, page.Size),
			UndoOff: 1200, Before: []byte("what-changed")},
		{Type: TUpdate, Tx: 3, Page: page.ID{Area: 1, Page: 9}, After: bytes.Repeat([]byte{0x5C}, page.Size),
			Before: make([]byte, page.Size)},
		{Type: TEnd, Tx: 3},
	}
	for _, r := range seed {
		f.Add(r.appendTo(nil))
	}
	enc := seed[2].appendTo(nil)
	f.Add(enc[:20])                       // truncated mid-record
	f.Add(bytes.Repeat([]byte{0xA5}, 32)) // garbage that passes the length gate
	// Redo-only records: an anchor, a byte range, an all-zero after-image;
	// then the range cut inside its offset word and inside its image.
	shipped := []*Record{
		{Type: TRedo, Tx: 5, PrevLSN: 40, Page: page.ID{Area: 2, Page: 11}, After: bytes.Repeat([]byte{0x7E}, page.Size)},
		{Type: TRedo, Tx: 5, PrevLSN: 96, Page: page.ID{Area: 2, Page: 11}, Off: 900, After: []byte("shipped range")},
		{Type: TRedo, Tx: 6, Page: page.ID{Area: 2, Page: 12}, Off: 64, After: make([]byte, 512)},
	}
	for _, r := range shipped {
		f.Add(r.appendTo(nil))
	}
	enc = shipped[1].appendTo(nil)
	f.Add(enc[:31])
	f.Add(enc[:len(enc)-3])

	f.Fuzz(func(t *testing.T, b []byte) {
		rec, err := decodeRecord(b)
		if err != nil {
			return // rejected is fine; panicking is not
		}
		out := rec.appendTo(nil)
		if len(out) != rec.encodedLen() {
			t.Fatalf("encodedLen %d, encoded %d bytes (input %x)", rec.encodedLen(), len(out), b)
		}
		rec2, err := decodeRecord(out)
		if err != nil {
			t.Fatalf("re-decoding our own encoding failed: %v (input %x)", err, b)
		}
		if !reflect.DeepEqual(rec, rec2) {
			t.Fatalf("round trip diverged:\n in: %+v\nout: %+v\nraw: %x", rec, rec2, b)
		}
	})
}
