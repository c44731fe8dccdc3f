package server

import (
	"bytes"
	"testing"

	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/segment"
)

// runBytes reads n pages at start of area aid straight off the area.
func runBytes(t *testing.T, s *Server, aid page.AreaID, start page.No, n uint32) []byte {
	t.Helper()
	b := make([]byte, int(n)*page.Size)
	if err := s.lookupArea(uint32(aid)).ReadRun(start, b); err != nil {
		t.Fatal(err)
	}
	return b
}

// fetchHeader is key's current header as a fetch sees it.
func fetchHeader(t *testing.T, s *Server, key proto.SegKey) segment.Header {
	t.Helper()
	sl, ov, data, err := s.FetchSeg(0, key)
	if err != nil {
		t.Fatal(err)
	}
	return decodeSeg(t, sl, ov, data).Hdr
}

// TestRelocationPadsTheGrantedRun: a data section that grows is moved into a
// fresh run, which the area may grant larger than the header asked for. The
// shipped section is shorter than that run: the server zero-pads it, logs the
// whole run, and the header's checksum covers the padded run — so the run
// verifies, and reads, from its first fetch.
func TestRelocationPadsTheGrantedRun(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	key := commitOne(t, s, db, []byte("moved"))
	was := fetchHeader(t, s, key)

	sl, ov, data, err := s.FetchSeg(0, key)
	if err != nil {
		t.Fatal(err)
	}
	dec := decodeSeg(t, sl, ov, data)
	asked := int(was.DataPages) + 1
	if err := dec.ResizeData(asked); err != nil {
		t.Fatal(err)
	}
	for i := page.Size; i < len(dec.Data); i++ {
		dec.Data[i] = byte(i)
	}
	shipped := append([]byte(nil), dec.Data...)
	commitImage(t, s, proto.SegImage{Seg: key, Slotted: dec.EncodeSlotted(), Data: dec.Data})

	h := fetchHeader(t, s, key)
	if h.DataStart == was.DataStart || int(h.DataPages) <= asked {
		t.Fatalf("data run at %d (%d pages) after asking for %d pages: want a fresh run granted larger than asked",
			h.DataStart, h.DataPages, asked)
	}
	run := runBytes(t, s, h.DataArea, h.DataStart, h.DataPages)
	if !bytes.Equal(run[:len(shipped)], shipped) || !bytes.Equal(run[len(shipped):], make([]byte, len(run)-len(shipped))) {
		t.Fatal("the granted run is not the shipped section followed by zeros")
	}
	if h.CRCFlags&segment.CRCData == 0 || h.DataCRC != page.Checksum(run) {
		t.Fatalf("data checksum %#x (flags %#x), want %#x over the whole padded run", h.DataCRC, h.CRCFlags, page.Checksum(run))
	}
	if got, err := fetchObject(t, s, key); err != nil || string(got) != "moved" {
		t.Fatalf("object after the move: %q, %v", got, err)
	}
}

// TestOverflowChecksumCarried: a commit that ships no overflow leaves the
// segment's overflow run as it was, so its checksum is the one the server
// already holds for it — not whatever the shipped header claims.
func TestOverflowChecksumCarried(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	key := commitOne(t, s, db, []byte("first"))

	grown := overwriteImage(t, s, key, []byte("grown"))
	dec := decodeSeg(t, grown.Slotted, grown.Overflow, grown.Data)
	dec.EnsureOverflow(2)
	copy(dec.Overflow[100:], "overflow bytes")
	grown.Slotted, grown.Overflow = dec.EncodeSlotted(), dec.Overflow
	commitImage(t, s, grown)
	was := fetchHeader(t, s, key)
	if was.OverPages == 0 || was.CRCFlags&segment.CRCOver == 0 {
		t.Fatalf("overflow of %d pages, flags %#x: want a checksummed run", was.OverPages, was.CRCFlags)
	}

	next := overwriteImage(t, s, key, []byte("again"))
	dec = decodeSeg(t, next.Slotted, nil, next.Data)
	dec.Hdr.OverCRC ^= 0xFFFF // a claim the server must not take
	commitImage(t, s, proto.SegImage{Seg: key, Slotted: dec.EncodeSlotted(), Data: next.Data})

	h := fetchHeader(t, s, key)
	run := runBytes(t, s, h.OverArea, h.OverStart, h.OverPages)
	if h.OverStart != was.OverStart || h.CRCFlags&segment.CRCOver == 0 || h.OverCRC != was.OverCRC || h.OverCRC != page.Checksum(run) {
		t.Fatalf("overflow at %d, checksum %#x (flags %#x): want the run at %d and its checksum %#x carried",
			h.OverStart, h.OverCRC, h.CRCFlags, was.OverStart, was.OverCRC)
	}
	if got, err := fetchObject(t, s, key); err != nil || string(got) != "again" {
		t.Fatalf("object after the commit: %q, %v", got, err)
	}
}

// TestDataChecksumClearedWithoutOne: a segment whose header carries no data
// checksum — its slotted run written raw (WriteRun), as an image from before
// section checksums would be — keeps none through a commit that ships no
// data. The server vouches only for bytes it received or a checksum it held:
// the shipped header's claim for a run it never saw is dropped.
func TestDataChecksumClearedWithoutOne(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	key := commitOne(t, s, db, []byte("bare"))

	sl, ov, _, err := s.FetchSeg(0, key)
	if err != nil {
		t.Fatal(err)
	}
	bare := decodeSeg(t, sl, ov, nil)
	bare.Hdr.CRCFlags &^= segment.CRCData
	if err := s.WriteRun(db, key.Area, key.Start, bare.EncodeSlots()); err != nil {
		t.Fatal(err)
	}
	if h := fetchHeader(t, s, key); h.CRCFlags&segment.CRCData != 0 {
		t.Fatal("the raw header still carries a data checksum")
	}

	claim := decodeSeg(t, bare.EncodeSlots(), nil, nil)
	claim.Hdr.DataCRC, claim.Hdr.CRCFlags = 0x1234, claim.Hdr.CRCFlags|segment.CRCData
	commitImage(t, s, proto.SegImage{Seg: key, Slotted: claim.EncodeSlots()})

	if h := fetchHeader(t, s, key); h.CRCFlags&segment.CRCData != 0 {
		t.Fatalf("data checksum %#x set by a commit that shipped no data over a run that had none", h.DataCRC)
	}
	if got, err := fetchObject(t, s, key); err != nil || string(got) != "bare" {
		t.Fatalf("object after the commit: %q, %v", got, err)
	}
}
