package segment

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"bess/internal/page"
)

// FuzzSegmentHeaderParse drives DecodeSlotted with arbitrary bytes. It must
// never panic, and any image it accepts must survive a re-encode/re-decode
// with identical header and slots (reserved bytes are zeroed on encode, so
// the comparison is on the decoded form, not the raw bytes). A second
// property builds a live segment from input-derived geometry and checks
// decode(encode(s)) preserves header and slot array exactly.
func FuzzSegmentHeaderParse(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("garbage, far too short to be a slotted segment"))
	f.Add(New(1, 1, 1, 2, 64).EncodeSlotted())
	multi := New(9, 3, 2, 5, 128)
	if _, err := multi.AllocSlot(KindSmall, 4, 24, 0); err != nil {
		f.Fatal(err)
	}
	if _, err := multi.AllocSlot(KindLarge, 2, 70000, 16); err != nil {
		f.Fatal(err)
	}
	f.Add(multi.EncodeSlotted())
	corrupt := New(1, 1, 1, 2, 64).EncodeSlotted()
	corrupt[20] ^= 0xFF // breaks the checksum
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, wire []byte) {
		if s, err := DecodeSlotted(wire); err == nil {
			s2, err := DecodeSlotted(s.EncodeSlotted())
			if err != nil {
				t.Fatalf("re-decode of accepted image failed: %v", err)
			}
			if s.Hdr != s2.Hdr || !reflect.DeepEqual(s.Slots, s2.Slots) {
				t.Fatalf("re-decode mismatch:\n%+v\n%+v", s, s2)
			}
		}

		// Structured roundtrip from input-derived geometry.
		geom := func(i int) byte {
			if i < len(wire) {
				return wire[i]
			}
			return 0
		}
		slottedPages := int(geom(0)%4) + 1
		s := New(uint32(geom(1)), slottedPages, int(geom(2)%3)+1,
			page.AreaID(geom(3)), page.No(geom(4)))
		// Allocate (and sometimes free) slots driven by the input bytes.
		for i, b := range wire {
			if i > 256 {
				break
			}
			if b%5 == 0 && i > 0 {
				s.FreeSlot(int(b) % len(s.Slots)) // may fail on a free slot; fine
				continue
			}
			if _, err := s.AllocSlot(Kind(b%4)+1, TypeID(b), uint32(b)*13, uint64(i)); err != nil {
				break // segment full
			}
		}
		s2, err := DecodeSlotted(s.EncodeSlotted())
		if err != nil {
			t.Fatalf("roundtrip decode failed: %v", err)
		}
		if s.Hdr != s2.Hdr || !reflect.DeepEqual(s.Slots, s2.Slots) {
			t.Fatalf("roundtrip mismatch:\nhdr %+v vs %+v", s.Hdr, s2.Hdr)
		}
	})
}

// FuzzVerifyPage is the detection property behind the whole corruption
// story: every byte of an encoded slotted image is covered by some CRC
// (header, stored-CRC word, or slot region), so ANY single-byte change must
// fail DecodeSlotted — a corruption that verifies clean is a silent wrong
// read. The same property is checked for the raw page.Verify primitive and
// for the data-section checksum.
func FuzzVerifyPage(f *testing.F) {
	f.Add(uint32(0), byte(0x01))           // magic
	f.Add(uint32(10), byte(0x40))          // header field
	f.Add(uint32(125), byte(0xFF))         // the stored header CRC itself
	f.Add(uint32(HeaderSize), byte(0x80))  // first slot byte
	f.Add(uint32(page.Size-1), byte(0xA5)) // last byte of the image
	f.Add(uint32(73), byte(0x02))          // the stored slot-region CRC

	f.Fuzz(func(t *testing.T, off uint32, xor byte) {
		if xor == 0 {
			xor = 1 // a zero XOR is not a corruption
		}
		s := New(7, 1, 1, 2, 64)
		if _, err := s.AllocSlot(KindSmall, 3, 40, 9); err != nil {
			t.Fatal(err)
		}
		s.Data = bytes.Repeat([]byte{0xD7}, int(s.Hdr.DataPages)*page.Size)
		img := bytes.Clone(s.EncodeSlotted()) // the segment keeps the original
		pos := int(off) % len(img)
		img[pos] ^= xor
		if _, err := DecodeSlotted(img); err == nil {
			t.Fatalf("corrupt image (byte %d ^= %#02x) decoded clean", pos, xor)
		}

		// page.Verify on an arbitrary region: clean bytes pass, any change
		// fails with the sentinel identity intact.
		region := bytes.Repeat([]byte{xor}, 256)
		crc := page.Checksum(region)
		if err := page.Verify(region, crc, "fuzz", ErrChecksum); err != nil {
			t.Fatalf("clean region failed verification: %v", err)
		}
		region[pos%len(region)] ^= xor
		if err := page.Verify(region, crc, "fuzz", ErrChecksum); err == nil {
			t.Fatalf("corrupt region (byte %d ^= %#02x) verified clean", pos%len(region), xor)
		} else if !errors.Is(err, ErrChecksum) {
			t.Fatalf("verification error %v lost ErrChecksum identity", err)
		}

		// Data-section coverage: the CRC travels in the (clean) header.
		clean, err := DecodeSlotted(s.EncodeSlotted())
		if err != nil {
			t.Fatal(err)
		}
		data := append([]byte(nil), s.Data...)
		data[pos%len(data)] ^= xor
		if err := clean.VerifyData(data); err == nil {
			t.Fatalf("corrupt data section (byte %d ^= %#02x) verified clean", pos%len(data), xor)
		}
	})
}
