package segment

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"bess/internal/page"
)

func newTestSeg() *Seg { return New(1, 2, 4, 9, 100) }

func TestSlotGeometry(t *testing.T) {
	if SlotCapacity(0) != 0 {
		t.Fatal("capacity of 0 pages")
	}
	if SlotCapacity(1) != SlotsFirstPage {
		t.Fatal("capacity of 1 page")
	}
	if SlotCapacity(3) != SlotsFirstPage+2*SlotsPerPage {
		t.Fatal("capacity of 3 pages")
	}
	// Position of the first slot on each page.
	if p, off := SlotPos(0); p != 0 || off != HeaderSize {
		t.Fatalf("SlotPos(0) = %d,%d", p, off)
	}
	if p, off := SlotPos(SlotsFirstPage); p != 1 || off != 0 {
		t.Fatalf("SlotPos(first of page 1) = %d,%d", p, off)
	}
}

func TestSlotOffsetRoundTrip(t *testing.T) {
	f := func(raw uint16) bool {
		i := int(raw) % SlotCapacity(4)
		got, err := SlotIndexForOffset(SlotByteOffset(i))
		return err == nil && got == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := SlotIndexForOffset(HeaderSize + 1); err == nil {
		t.Fatal("misaligned offset accepted")
	}
	if _, err := SlotIndexForOffset(3); err == nil {
		t.Fatal("offset inside header accepted")
	}
}

func TestCreateReadObject(t *testing.T) {
	s := newTestSeg()
	data := []byte("an object body")
	i, err := s.CreateObject(7, data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.ObjectBytes(i)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("ObjectBytes = %q", got)
	}
	if s.Slots[i].Type != 7 || s.Slots[i].Kind != KindSmall {
		t.Fatalf("slot = %+v", s.Slots[i])
	}
	if s.Hdr.NObjects != 1 {
		t.Fatalf("NObjects = %d", s.Hdr.NObjects)
	}
}

func TestObjectBytesAliasesData(t *testing.T) {
	s := newTestSeg()
	i, _ := s.CreateObject(1, []byte("mutate me"))
	b, _ := s.ObjectBytes(i)
	b[0] = 'M'
	b2, _ := s.ObjectBytes(i)
	if b2[0] != 'M' {
		t.Fatal("ObjectBytes does not alias the data segment")
	}
}

func TestUpdateInPlace(t *testing.T) {
	s := newTestSeg()
	i, _ := s.CreateObject(1, []byte("aaaa"))
	if err := s.UpdateObject(i, []byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	b, _ := s.ObjectBytes(i)
	if string(b) != "bbbb" {
		t.Fatalf("after update: %q", b)
	}
	if err := s.UpdateObject(i, []byte("toolong")); err != ErrSizeChange {
		t.Fatalf("size change: %v", err)
	}
}

func TestResizeObjectMovesButSlotStays(t *testing.T) {
	s := newTestSeg()
	i, _ := s.CreateObject(1, []byte("short"))
	_, _ = s.CreateObject(1, []byte("blocker so resize must move"))
	oldOff := s.Slots[i].DataOff
	big := bytes.Repeat([]byte("x"), 100)
	if err := s.ResizeObject(i, big); err != nil {
		t.Fatal(err)
	}
	if s.Slots[i].DataOff == oldOff {
		t.Fatal("expected object to move")
	}
	b, _ := s.ObjectBytes(i)
	if !bytes.Equal(b, big) {
		t.Fatal("content after resize")
	}
	// Shrink in place.
	if err := s.ResizeObject(i, []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	b, _ = s.ObjectBytes(i)
	if string(b) != "tiny" {
		t.Fatalf("after shrink: %q", b)
	}
}

func TestDeleteAndSlotReuseBumpsUnique(t *testing.T) {
	s := newTestSeg()
	i, _ := s.CreateObject(1, []byte("doomed"))
	u0 := s.Slots[i].Unique
	if err := s.DeleteObject(i); err != nil {
		t.Fatal(err)
	}
	if s.Live(i) {
		t.Fatal("slot live after delete")
	}
	if err := s.CheckSlot(i, u0); err != ErrBadSlot {
		t.Fatalf("CheckSlot on free slot: %v", err)
	}
	j, _ := s.CreateObject(2, []byte("recycled"))
	if j != i {
		t.Fatalf("expected LIFO slot reuse, got %d want %d", j, i)
	}
	if s.Slots[j].Unique != u0+1 {
		t.Fatalf("uniquifier = %d, want %d", s.Slots[j].Unique, u0+1)
	}
	if err := s.CheckSlot(j, u0); err != ErrStaleSlot {
		t.Fatalf("stale reference: %v", err)
	}
	if err := s.CheckSlot(j, u0+1); err != nil {
		t.Fatalf("fresh reference: %v", err)
	}
}

func TestCompactReclaimsAndPreservesObjects(t *testing.T) {
	s := newTestSeg()
	var keep []int
	contents := map[int][]byte{}
	for k := 0; k < 40; k++ {
		body := bytes.Repeat([]byte{byte(k + 1)}, 50+k)
		i, err := s.CreateObject(1, body)
		if err != nil {
			t.Fatal(err)
		}
		if k%2 == 0 {
			keep = append(keep, i)
			contents[i] = body
		} else {
			defer func() {}()
		}
	}
	for i := range s.Slots {
		if s.Live(i) && contents[i] == nil {
			if err := s.DeleteObject(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	garbage := s.Hdr.DataGarbage
	if garbage == 0 {
		t.Fatal("expected garbage after deletes")
	}
	usedBefore := s.Hdr.DataUsed
	moved := s.Compact()
	if moved == 0 {
		t.Fatal("Compact moved nothing")
	}
	if s.Hdr.DataGarbage != 0 {
		t.Fatalf("garbage after compact = %d", s.Hdr.DataGarbage)
	}
	if s.Hdr.DataUsed >= usedBefore {
		t.Fatalf("DataUsed %d -> %d", usedBefore, s.Hdr.DataUsed)
	}
	for _, i := range keep {
		b, err := s.ObjectBytes(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, contents[i]) {
			t.Fatalf("object %d corrupted by compact", i)
		}
	}
}

func TestCreateTriggersCompact(t *testing.T) {
	s := New(1, 1, 1, 9, 100) // one data page = 4096 bytes
	a, err := s.CreateObject(1, bytes.Repeat([]byte("a"), 2000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateObject(1, bytes.Repeat([]byte("b"), 2000)); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteObject(a); err != nil {
		t.Fatal(err)
	}
	// Tail space is short but compaction frees enough.
	if _, err := s.CreateObject(1, bytes.Repeat([]byte("c"), 1500)); err != nil {
		t.Fatal(err)
	}
	// And a genuinely oversized object still fails.
	if _, err := s.CreateObject(1, bytes.Repeat([]byte("d"), 5000)); err != ErrDataFull {
		t.Fatalf("oversized: %v", err)
	}
}

func TestResizeData(t *testing.T) {
	s := newTestSeg()
	i, _ := s.CreateObject(1, bytes.Repeat([]byte("z"), 3000))
	if err := s.ResizeData(8); err != nil {
		t.Fatal(err)
	}
	if len(s.Data) != 8*page.Size {
		t.Fatalf("data len %d", len(s.Data))
	}
	b, _ := s.ObjectBytes(i)
	if len(b) != 3000 || b[0] != 'z' {
		t.Fatal("object lost on grow")
	}
	if err := s.ResizeData(1); err != nil {
		t.Fatal(err)
	}
	b, _ = s.ObjectBytes(i)
	if len(b) != 3000 || b[2999] != 'z' {
		t.Fatal("object lost on shrink")
	}
	// Shrinking below live data fails.
	if err := s.ResizeData(0); err != ErrDataFull {
		t.Fatalf("shrink to 0: %v", err)
	}
}

func TestForwardObject(t *testing.T) {
	s := newTestSeg()
	payload := []byte("encoded-oid!") // 12 bytes like an OID
	i, err := s.CreateForward(payload)
	if err != nil {
		t.Fatal(err)
	}
	if s.Slots[i].Kind != KindForward {
		t.Fatalf("kind = %v", s.Slots[i].Kind)
	}
	b, _ := s.ObjectBytes(i)
	if !bytes.Equal(b, payload) {
		t.Fatal("forward payload")
	}
}

func TestOverflowDescriptors(t *testing.T) {
	s := newTestSeg()
	if _, err := s.CreateDescriptor(KindLarge, 1, 50000, []byte("desc")); err != ErrOverflowOff {
		t.Fatalf("descriptor without overflow: %v", err)
	}
	s.EnsureOverflow(1)
	i, err := s.CreateDescriptor(KindLarge, 1, 50000, []byte("descriptor-bytes"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Descriptor(i, 16)
	if err != nil {
		t.Fatal(err)
	}
	if string(d) != "descriptor-bytes" {
		t.Fatalf("descriptor = %q", d)
	}
	if _, err := s.ObjectBytes(i); err != ErrNotSmall {
		t.Fatalf("ObjectBytes on large: %v", err)
	}
	if _, err := s.Descriptor(i, page.Size*2); err != ErrOverflowOff {
		t.Fatalf("oversized descriptor read: %v", err)
	}
	// EnsureOverflow never shrinks.
	s.EnsureOverflow(0)
	if s.Hdr.OverPages != 1 {
		t.Fatal("overflow shrank")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := newTestSeg()
	s.EnsureOverflow(1)
	var made []int
	for k := 0; k < 25; k++ {
		i, err := s.CreateObject(TypeID(k%3+1), bytes.Repeat([]byte{byte(k)}, 10+k*3))
		if err != nil {
			t.Fatal(err)
		}
		made = append(made, i)
	}
	s.DeleteObject(made[5])
	s.CreateDescriptor(KindVeryLarge, 2, 1<<20, []byte("tree-root"))

	img := s.EncodeSlotted()
	if len(img) != 2*page.Size {
		t.Fatalf("image size %d", len(img))
	}
	got, err := DecodeSlotted(img)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hdr != s.Hdr {
		t.Fatalf("header mismatch:\n got %+v\nwant %+v", got.Hdr, s.Hdr)
	}
	for i := range s.Slots {
		if got.Slots[i] != s.Slots[i] {
			t.Fatalf("slot %d mismatch: %+v vs %+v", i, got.Slots[i], s.Slots[i])
		}
	}
}

// slottedOps is a fixed history that changes slots every way there is: fresh
// allocation, free, reuse of a freed slot, shrink in place, growth that moves
// the object, a descriptor slot, and a compaction that moves most objects.
// after runs following every step.
func slottedOps(t *testing.T, s *Seg, after func(step string)) {
	t.Helper()
	must := func(step string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		after(step)
	}
	var made []int
	for k := 0; k < 40; k++ {
		i, err := s.CreateObject(TypeID(k%3+1), bytes.Repeat([]byte{byte(k)}, 10+k*7))
		must("create", err)
		made = append(made, i)
	}
	for _, k := range []int{3, 17, 4, 30} {
		must("delete", s.DeleteObject(made[k]))
	}
	_, err := s.CreateObject(9, []byte("reuses the slot freed last"))
	must("create in a freed slot", err)
	must("shrink", s.ResizeObject(made[20], []byte("short")))
	must("grow", s.ResizeObject(made[5], bytes.Repeat([]byte{0xEE}, 900)))
	s.EnsureOverflow(1)
	_, err = s.CreateDescriptor(KindVeryLarge, 2, 1<<20, []byte("tree-root"))
	must("descriptor", err)
	if s.Compact() == 0 {
		t.Fatal("compaction moved nothing")
	}
	after("compact")
	must("free", s.FreeSlot(made[0]))
}

// TestSlottedImageFollowsEveryChange pins the kept image to the Slots array
// without trusting the code that keeps it: after every change the image a
// segment has been keeping since before the first one decodes to the array
// slot for slot, and equals, byte for byte, the encoding of a segment that
// keeps no image yet and so encodes every slot from scratch.
func TestSlottedImageFollowsEveryChange(t *testing.T) {
	s := newTestSeg()
	kept := s.EncodeSlots()
	slottedOps(t, s, func(step string) {
		img := s.EncodeSlots()
		if &img[0] != &kept[0] {
			t.Fatalf("%s: the segment encoded into a second image", step)
		}
		dec, err := DecodeSlotted(img)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		for i := range s.Slots {
			if dec.Slots[i] != s.Slots[i] {
				t.Fatalf("%s: slot %d is %+v in the kept image, %+v in the segment", step, i, dec.Slots[i], s.Slots[i])
			}
		}
		scratch := &Seg{Hdr: s.Hdr, Slots: s.Slots}
		if !bytes.Equal(img, scratch.EncodeSlots()) {
			t.Fatalf("%s: the kept image differs from an encoding from scratch", step)
		}
	})
}

// TestSlottedImageGolden: the image a commit ships for a given segment is, to
// the byte, the one the encoder produced before segments kept their image —
// the checksum is of that encoder's output for this history — whether the
// image was kept through the history or is built at the end.
func TestSlottedImageGolden(t *testing.T) {
	const golden = 0xb6b25dab // page.Checksum of EncodeSlotted() after slottedOps, as PR 25 encoded it
	for _, keep := range []bool{true, false} {
		s := newTestSeg()
		if keep {
			s.EncodeSlots()
		}
		slottedOps(t, s, func(string) {})
		if got := page.Checksum(s.EncodeSlotted()); got != golden {
			t.Errorf("kept through the history: %v: image checksum %#x, want %#x", keep, got, golden)
		}
	}
}

// TestFormatIsNewEncoded: Format is New's image — what a server writes and a
// creator builds — and it verifies against the zero data section it never
// builds, for every data size a segment can have.
func TestFormatIsNewEncoded(t *testing.T) {
	for _, n := range []int{0, 1, 4, 126, page.PerExtent} {
		sl := Format(1, 2, n, 9, 100)
		if want := New(1, 2, n, 9, 100); !bytes.Equal(sl, want.EncodeSlotted()) {
			t.Fatalf("%d data pages: Format is not the encoding of New", n)
		}
		if dec, err := DecodeSlotted(sl); err != nil || dec.VerifyData(make([]byte, n*page.Size)) != nil {
			t.Fatalf("%d data pages: a formatted segment does not verify: %v", n, err)
		}
	}
}

// TestEmptyIsFormatDecoded: Empty's segment is what decoding Format's image
// gives, header and slots, with that image kept and nothing changed yet; its
// encodings are the image, unchanged.
func TestEmptyIsFormatDecoded(t *testing.T) {
	for _, n := range []int{0, 1, 126, page.PerExtent} {
		for _, slotted := range []int{1, 3} {
			seg, img := Empty(1, slotted, n, 9, 100)
			dec, err := DecodeSlotted(Format(1, slotted, n, 9, 100))
			if err != nil {
				t.Fatal(err)
			}
			if seg.Hdr != dec.Hdr || !slices.Equal(seg.Slots, dec.Slots) || seg.Data != nil || seg.Overflow != nil {
				t.Fatalf("%d+%d pages: Empty is not Format's image decoded:\n%+v\n%+v", slotted, n, seg.Hdr, dec.Hdr)
			}
			if lo, hi := seg.ChangedSlots(); lo != hi {
				t.Fatalf("%d+%d pages: an empty segment has changed slots [%d, %d)", slotted, n, lo, hi)
			}
			want := bytes.Clone(img)
			if got := seg.EncodeSlotted(); &got[0] != &img[0] || !bytes.Equal(got, want) {
				t.Fatalf("%d+%d pages: the encoding is not the kept image, unchanged", slotted, n)
			}
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	s := newTestSeg()
	img := s.EncodeSlotted()
	img[4] ^= 0xFF // flip a header byte
	if _, err := DecodeSlotted(img); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt header: %v", err)
	}
	img[4] ^= 0xFF
	img[0] = 0
	if _, err := DecodeSlotted(img); err != ErrBadMagic {
		t.Fatalf("bad magic: %v", err)
	}
	if _, err := DecodeSlotted(img[:100]); err != ErrBadMagic {
		t.Fatalf("short image: %v", err)
	}
}

func TestSlotExhaustion(t *testing.T) {
	s := New(1, 1, 64, 9, 100)
	n := SlotCapacity(1)
	for k := 0; k < n; k++ {
		if _, err := s.CreateObject(1, []byte{1}); err != nil {
			t.Fatalf("create %d/%d: %v", k, n, err)
		}
	}
	if _, err := s.CreateObject(1, []byte{1}); err != ErrNoSlot {
		t.Fatalf("exhausted: %v", err)
	}
}

func TestBadSlotOperations(t *testing.T) {
	s := newTestSeg()
	if _, err := s.ObjectBytes(-1); err != ErrBadSlot {
		t.Fatal("negative index")
	}
	if _, err := s.ObjectBytes(len(s.Slots)); err != ErrBadSlot {
		t.Fatal("out of range index")
	}
	if err := s.DeleteObject(3); err != ErrBadSlot {
		t.Fatal("delete free slot")
	}
	if err := s.FreeSlot(3); err != ErrBadSlot {
		t.Fatal("free free slot")
	}
	if _, err := s.AllocSlot(KindFree, 0, 0, 0); err != ErrBadSlot {
		t.Fatal("alloc of KindFree")
	}
}

// Property: random create/update/delete/compact keeps a model map consistent.
func TestQuickModelConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(1, 2, 8, 1, 10)
		model := map[int][]byte{}
		for op := 0; op < 300; op++ {
			switch rng.Intn(5) {
			case 0, 1: // create
				body := make([]byte, 1+rng.Intn(200))
				rng.Read(body)
				i, err := s.CreateObject(1, body)
				if err != nil {
					continue
				}
				model[i] = append([]byte(nil), body...)
			case 2: // delete
				for i := range model {
					if err := s.DeleteObject(i); err != nil {
						return false
					}
					delete(model, i)
					break
				}
			case 3: // resize
				for i := range model {
					body := make([]byte, 1+rng.Intn(300))
					rng.Read(body)
					if err := s.ResizeObject(i, body); err != nil {
						break
					}
					model[i] = append([]byte(nil), body...)
					break
				}
			case 4:
				s.Compact()
			}
		}
		for i, want := range model {
			got, err := s.ObjectBytes(i)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return int(s.Hdr.NObjects) == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindFree: "free", KindSmall: "small", KindLarge: "large",
		KindVeryLarge: "very-large", KindForward: "forward",
	} {
		if k.String() != want {
			t.Fatalf("%d.String() = %q", k, k.String())
		}
	}
}

// TestLargeDescRoundTrip: a descriptor encodes to its fixed size and back;
// one cut short is refused, and so, by name, is one an older build wrote,
// which named a bare run of some pages where the content segment is now.
func TestLargeDescRoundTrip(t *testing.T) {
	d := LargeDesc{Area: 3, Start: 1 << 40, Stored: 2*page.Size - 1, CRC: 0xDEADBEEF}
	b := d.Encode()
	if len(b) != LargeDescSize {
		t.Fatalf("encoded %d bytes, want %d", len(b), LargeDescSize)
	}
	if got, err := DecodeLargeDesc(b); err != nil || got != d {
		t.Fatalf("round trip: %+v, %v", got, err)
	}
	if _, err := DecodeLargeDesc(b[:LargeDescSize-1]); !errors.Is(err, ErrOverflowOff) {
		t.Fatalf("a short descriptor: %v", err)
	}
	old := binary.BigEndian.AppendUint32(append([]byte(nil), b[:12]...), 2) // its run's pages
	if _, err := DecodeLargeDesc(append(old, b[16:]...)); !errors.Is(err, ErrOldLargeDesc) {
		t.Fatalf("an older build's descriptor: %v, want ErrOldLargeDesc", err)
	}
}
