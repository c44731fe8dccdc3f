package proto

import "testing"

// Allocation budgets for the hot codecs (DESIGN.md §4f): the append-style
// encoders allocate nothing when the destination has capacity, and the
// decoders allocate the message and nothing else — byte fields are views of
// the input.

func testImage() SegImage {
	return SegImage{
		Seg:      SegKey{Area: 3, Start: 64},
		Slotted:  make([]byte, 256),
		Overflow: make([]byte, 64),
		Data:     make([]byte, 512),
	}
}

func TestAppendSegImageAllocs(t *testing.T) {
	img := testImage()
	buf := make([]byte, 0, segImageSize(&img))
	if n := testing.AllocsPerRun(200, func() {
		buf = AppendSegImage(buf[:0], &img)
	}); n != 0 {
		t.Fatalf("AppendSegImage: %v allocs/op into a sized buffer, want 0", n)
	}
}

func TestEncodeSegImageAllocs(t *testing.T) {
	img := testImage()
	var sink []byte
	if n := testing.AllocsPerRun(200, func() {
		sink = EncodeSegImage(&img)
	}); n != 1 {
		t.Fatalf("EncodeSegImage: %v allocs/op, want exactly the one reply buffer", n)
	}
	_ = sink
}

func TestDecodeSegImageAllocs(t *testing.T) {
	img := testImage()
	enc := EncodeSegImage(&img)
	var sink *SegImage
	if n := testing.AllocsPerRun(200, func() {
		s, err := DecodeSegImage(enc)
		if err != nil {
			t.Fatal(err)
		}
		sink = s
	}); n > 1 {
		t.Fatalf("DecodeSegImage: %v allocs/op, budget is 1 (the struct; sections are views)", n)
	}
	_ = sink
}

func TestAppendScanBatchAllocs(t *testing.T) {
	imgs := []SegImage{testImage(), testImage(), testImage()}
	sb := ScanBatch{Seq: 9, Images: imgs}
	need := 4 + 1 + 4 + 4
	for i := range imgs {
		need += 4 + segImageSize(&imgs[i])
	}
	buf := make([]byte, 0, need)
	if n := testing.AllocsPerRun(200, func() {
		buf = AppendScanBatch(buf[:0], &sb)
	}); n != 0 {
		t.Fatalf("AppendScanBatch: %v allocs/op into a sized buffer, want 0 (images encode in place)", n)
	}
	// The wire form must match the per-image EncodeSegImage sections the
	// decoder expects.
	dec, err := DecodeScanBatch(buf)
	if err != nil {
		t.Fatalf("DecodeScanBatch after in-place encode: %v", err)
	}
	if len(dec.Images) != len(imgs) || dec.Seq != sb.Seq {
		t.Fatalf("round trip mismatch: got %d images seq %d", len(dec.Images), dec.Seq)
	}
}

func TestDecodeScanBatchAllocs(t *testing.T) {
	sb := ScanBatch{Seq: 9, Images: []SegImage{testImage(), testImage(), testImage()}}
	enc := AppendScanBatch(nil, &sb)
	var sink *ScanBatch
	if n := testing.AllocsPerRun(200, func() {
		dec, err := DecodeScanBatch(enc)
		if err != nil {
			t.Fatal(err)
		}
		sink = dec
	}); n != 2 {
		t.Fatalf("DecodeScanBatch: %v allocs/op, budget is 2 (the batch and its image slice; sections are views)", n)
	}
	_ = sink
}
