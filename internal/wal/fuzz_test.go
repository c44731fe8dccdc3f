package wal

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
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

// fuzzLSN is where FuzzWALDecodeRecord's bodies stand: far enough into a log
// for every seed's references to be behind it.
const fuzzLSN page.LSN = 1 << 20

// decodeSeeds are record bodies as the decoder meets them at fuzzLSN: every
// record type, the shapes of page list — a page in runs among them — cuts of
// them, and lists encode never writes.
func decodeSeeds(t testing.TB) [][]byte {
	pid := page.ID{Area: 2, Page: 11}
	seed := []*Record{
		{Type: TCommit, Tx: 7, PrevLSN: 1234}, // a decided commit: no page changes
		{Type: TPrepare, Tx: 9, PrevLSN: 88, Changes: []Change{{Page: pid, Off: 900, After: []byte("prepared range")}}},
		{Type: TUpdate, Tx: 1, PrevLSN: 8, Page: page.ID{Area: 3, Page: 42}, Off: 128,
			Before: []byte("before-img"), After: []byte("after-img")},
		{Type: TAbort, Tx: 2, PrevLSN: 16},
		// testdata's seed-checkpoint is one of two pages; this one's recLSN is
		// a long way back.
		{Type: TCheckpoint, DirtyPages: []CkptPage{{Page: page.ID{Area: 1, Page: 2}, RecLSN: 64}}},
		{Type: TCatalog, Body: catalogBody(t)},
		{Type: TCatalog}, // an empty body is the server's to reject, not the log's
		// An update with its undo half at its own offset, and one with a zero
		// before-image: the flagged-length encoding.
		{Type: TUpdate, Tx: 3, Page: page.ID{Area: 1, Page: 9}, After: bytes.Repeat([]byte{0x5C}, page.Size),
			UndoOff: 1200, Before: []byte("what-changed")},
		{Type: TUpdate, Tx: 3, Page: page.ID{Area: 1, Page: 9}, After: bytes.Repeat([]byte{0x5C}, page.Size),
			Before: make([]byte, page.Size)},
	}
	var out [][]byte
	for _, r := range seed {
		out = append(out, r.appendTo(nil, fuzzLSN))
	}
	enc := seed[2].appendTo(nil, fuzzLSN)
	out = append(out,
		enc[:len(enc)/2],               // truncated mid-record
		bytes.Repeat([]byte{0xA5}, 32)) // garbage that passes the length gate
	// Page lists: a commit of three changes — an anchor, a byte range, an
	// all-zero range; a spill; a rollback record and an abort re-anchoring two
	// pages. Then the
	// commit cut inside its second change's offset and inside its image,
	// and with a count larger than its body can hold.
	shipped := []*Record{
		{Type: TCommit, Tx: 5, PrevLSN: 40, Changes: []Change{
			{Page: pid, After: bytes.Repeat([]byte{0x7E}, page.Size)},
			{Page: page.ID{Area: 2, Page: 12}, Off: 900, After: []byte("shipped range")},
			{Page: page.ID{Area: 2, Page: 13}, Off: 64, After: make([]byte, 512)},
		}},
		{Type: TRedo, Tx: 6, Changes: []Change{{Page: pid, Off: 64, After: []byte("spilled")}, {Page: page.ID{Area: 4, Page: 1}, After: []byte{1}}}},
		{Type: TRollback, Tx: 6, PrevLSN: 80, Changes: []Change{{Page: page.ID{Area: 4, Page: 2}, After: bytes.Repeat([]byte{0x22}, page.Size)}}},
		{Type: TAbort, Tx: 6, PrevLSN: 96, Changes: []Change{
			{Page: pid, After: bytes.Repeat([]byte{0x11}, page.Size)},
			{Page: page.ID{Area: 4, Page: 1}, After: make([]byte, page.Size)},
		}},
		// A page in runs — a continuation, an all-zero run kept as its length
		// and an empty one after the first — then a page of one empty run.
		{Type: TCommit, Tx: 8, PrevLSN: 24, Changes: []Change{
			{Page: pid, After: []byte{1}}, {Page: pid, Off: 16, After: []byte("the object's bytes")},
			{Page: pid, Off: 2048, After: make([]byte, 128)}, {Page: pid, Off: 3000},
			{Page: page.ID{Area: 2, Page: 12}, Off: 64},
		}},
	}
	for _, r := range shipped {
		out = append(out, r.appendTo(nil, fuzzLSN))
	}
	enc = shipped[0].appendTo(nil, fuzzLSN)
	rangeEnd := len(enc) - 2 - 3 // the zero range's image length, page, offset and area
	n := len(shipped[0].Changes[1].After)
	hdr := 1 + txSize(5) + uvarintLen(back(fuzzLSN, 40)) // the count follows
	overcount := binary.AppendUvarint(append([]byte(nil), enc[:hdr]...), uint64(len(enc)))
	out = append(out, enc[:rangeEnd-n-2], enc[:rangeEnd-3], append(overcount, enc[hdr+1:]...))
	// A continuation first in its list, and a page named twice in a row.
	return append(out, []byte{byte(TCommit), 1, 0, 0, 1, 1, 2, 0x5A},
		[]byte{byte(TCommit), 1, 0, 0, 2, 4, 11, 0, 2, 0x5A, 4, 11, 5, 2, 0x5A})
}

// FuzzWALDecodeRecord drives the record decoder with arbitrary bytes — the
// exact situation recovery faces when a torn or scribbled log tail happens
// to pass the length probe. Properties: never panic, and any input that
// decodes must re-encode and decode to the identical record (the decoder
// accepts nothing the encoder cannot reproduce).
func FuzzWALDecodeRecord(f *testing.F) {
	for _, b := range decodeSeeds(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, err := decodeRecord(b, fuzzLSN)
		if err != nil {
			return // rejected is fine; panicking is not
		}
		out := rec.appendTo(nil, fuzzLSN)
		if len(out) != rec.encodedLen(fuzzLSN) {
			t.Fatalf("encodedLen %d, encoded %d bytes (input %x)", rec.encodedLen(fuzzLSN), len(out), b)
		}
		rec2, err := decodeRecord(out, fuzzLSN)
		if err != nil {
			t.Fatalf("re-decoding our own encoding failed: %v (input %x)", err, b)
		}
		if !reflect.DeepEqual(rec, rec2) {
			t.Fatalf("round trip diverged:\n in: %+v\nout: %+v\nraw: %x", rec, rec2, b)
		}
	})
}

// walFrame is the frame of the record at at in img, read from the format's
// layout: where its body starts and ends, and whether the CRC checks out. A
// length the log does not take is no frame.
func walFrame(img []byte, at int) (body, end int, ok bool) {
	if at+crcSize >= len(img) {
		return 0, 0, false
	}
	v, k := binary.Uvarint(img[at+crcSize : min(len(img), at+crcSize+binary.MaxVarintLen32)])
	if k <= 0 || v < minBody || v > maxBody || at+crcSize+k+int(v) > len(img) {
		return 0, 0, false
	}
	body, end = at+crcSize+k, at+crcSize+k+int(v)
	return body, end, page.Checksum(img[at+crcSize:end]) == binary.BigEndian.Uint32(img[at:])
}

// FuzzWALOpen opens arbitrary bytes behind this build's header as a log — the
// scan for its end, the dead-tail cut and its look past the break — and walks
// what it recovered with Iterate and Verify. Properties: never panic; never
// allocate more than a small multiple of the image, however large a length
// the bytes claim; the records handed on are the CRC-valid frames from the
// first LSN on, each where the last ended, and the walk stops at the first
// frame that fails its CRC (or does not decode).
func FuzzWALOpen(f *testing.F) {
	// A real log, cut at every byte of its last record. It is small — an
	// all-zero anchor, not a stored one — so that the engine's minimizing of
	// what it finds stays quick.
	l := NewMem()
	pid := page.ID{Area: 1, Page: 7}
	a, _ := l.Append(&Record{Type: TRedo, Tx: 1, Changes: []Change{{Page: pid, After: make([]byte, page.Size)}}})
	c, _ := l.Append(&Record{Type: TCommit, Tx: 1, PrevLSN: a, Changes: []Change{{Page: pid, Off: 640, After: bytes.Repeat([]byte{0xAB}, 64)}}})
	l.Append(&Record{Type: TCatalog, Body: catalogBody(f)})
	l.Append(&Record{Type: TCheckpoint, DirtyPages: []CkptPage{{Page: pid, RecLSN: a}, {Page: page.ID{Area: 2, Page: 9}, RecLSN: c}}})
	l.Append(&Record{Type: TCommit, Tx: 3})
	r, _ := l.Append(&Record{Type: TRollback, Tx: 2, Changes: []Change{{Page: page.ID{Area: 1, Page: 8}, After: make([]byte, page.Size)}}})
	l.Append(&Record{Type: TAbort, Tx: 2, PrevLSN: r, Changes: []Change{{Page: pid, After: make([]byte, page.Size)}}})
	last, _ := l.Append(&Record{Type: TCommit, Tx: 4, Changes: []Change{{Page: pid, Off: 9, After: []byte{0}}, {Page: pid, Off: 100, After: []byte("the last record of the log")}}})
	if err := l.Flush(0); err != nil {
		f.Fatal(err)
	}
	img := l.DurableBytes()
	for cut := int(last); cut <= len(img); cut++ {
		f.Add(img[len(logMagic):cut])
	}
	// The decoder's seeds, each framed as a log's first record.
	for _, body := range decodeSeeds(f) {
		framed := append(binary.AppendUvarint(nil, uint64(len(body))), body...)
		f.Add(append(binary.BigEndian.AppendUint32(nil, page.Checksum(framed)), framed...))
	}

	var ms runtime.MemStats
	f.Fuzz(func(t *testing.T, tail []byte) {
		img := append(append([]byte(nil), logMagic...), tail...)
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		l, err := OpenMemFrom(img)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		var lsns []page.LSN
		if err := l.Iterate(0, func(lsn page.LSN, _ *Record) error {
			lsns = append(lsns, lsn)
			return nil
		}); err != nil {
			t.Fatalf("iterate: %v", err)
		}
		st, verr := l.Verify()
		runtime.ReadMemStats(&ms)
		if grown := ms.TotalAlloc - before; grown > uint64(64*len(img)+1<<20) {
			t.Fatalf("opening and walking a %d-byte log allocated %d bytes", len(img), grown)
		}
		if verr == nil && st.Records != len(lsns) {
			t.Fatalf("Verify counted %d records, Iterate handed on %d", st.Records, len(lsns))
		}

		at := int(firstLSN)
		for _, lsn := range lsns {
			_, end, ok := walFrame(img, at)
			if int(lsn) != at || !ok {
				t.Fatalf("record handed on at %d; the frame at %d checks out: %v", lsn, at, ok)
			}
			at = end
		}
		if body, end, ok := walFrame(img, at); ok {
			if _, err := decodeRecord(img[body:end], page.LSN(at)); err == nil {
				t.Fatalf("the walk stopped at %d, before a record that checks out and decodes", at)
			}
		}
		if l.NextLSN() != page.LSN(at) {
			t.Fatalf("the log ends at %d, the walk at %d", l.NextLSN(), at)
		}
	})
}
