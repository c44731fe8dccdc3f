// Package segment implements BeSS object segments (paper §2.1, Figure 1).
//
// An object segment has two basic parts: the slotted segment — a fixed-size
// header plus an array of slots, one per object, holding the object headers —
// and the data segment, which holds the actual variable-size objects. An
// optional overflow segment holds additional control information such as
// large-object descriptors.
//
// Slots (and therefore object headers) are never relocated once allocated;
// data segments may be resized, compacted, or moved without affecting the
// validity of object references, because a reference names the slot, and the
// slot's DP field is re-pointed at the object's current location.
package segment

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"bess/internal/lockcheck"
	"bess/internal/page"
)

// Layout constants.
const (
	// HeaderSize is the byte size of the slotted-segment header, stored at
	// the start of the slotted segment's first page.
	HeaderSize = 128
	// SlotSize is the on-disk size of one slot (object header).
	SlotSize = 24
	// SlotsFirstPage is the number of slots on the slotted segment's first
	// page (after the header).
	SlotsFirstPage = (page.Size - HeaderSize) / SlotSize
	// SlotsPerPage is the number of slots on each subsequent page.
	SlotsPerPage = page.Size / SlotSize
	// MaxTransparentLarge is the largest fixed-size object accessed
	// transparently through a reserved address range (paper: "currently, up
	// to 64KB"). Bigger objects use the very-large-object class interface.
	MaxTransparentLarge = 64 << 10

	segMagic = 0xBE555E61
)

// Section-checksum validity bits (Header.CRCFlags). A section's CRC field is
// meaningful only when its bit is set; images written before checksums
// existed carry zero flags and decode (but never verify) as before.
const (
	CRCSlots uint8 = 1 << 0 // SlotCRC covers the slotted image past the header
	CRCData  uint8 = 1 << 1 // DataCRC covers the full data segment
	CRCOver  uint8 = 1 << 2 // OverCRC covers the full overflow segment
)

// Errors returned by the segment layer.
var (
	ErrBadMagic    = errors.New("segment: bad magic")
	ErrChecksum    = errors.New("segment: header checksum mismatch")
	ErrNoSlot      = errors.New("segment: no free slot")
	ErrBadSlot     = errors.New("segment: slot index out of range or free")
	ErrStaleSlot   = errors.New("segment: slot uniquifier mismatch (dangling reference)")
	ErrDataFull    = errors.New("segment: data segment full")
	ErrSizeChange  = errors.New("segment: in-place update must preserve size")
	ErrNotSmall    = errors.New("segment: operation requires a small object slot")
	ErrOverflowOff = errors.New("segment: overflow offset out of range")
	// ErrOldLargeDesc refuses a large-object descriptor an older build wrote,
	// which named a bare run where the content now is a segment of its own.
	ErrOldLargeDesc = errors.New("segment: large-object descriptor written by an older build")
)

// Kind classifies what a slot's object header describes.
type Kind uint8

// Slot kinds.
const (
	KindFree      Kind = iota // unallocated slot
	KindSmall                 // object stored inline in the data segment
	KindLarge                 // fixed-size large object (≤64KB), descriptor in overflow
	KindVeryLarge             // byte-range large object, tree root in overflow
	KindForward               // forward object: payload is the OID of an object in another database
)

// String names the slot kind.
func (k Kind) String() string {
	switch k {
	case KindFree:
		return "free"
	case KindSmall:
		return "small"
	case KindLarge:
		return "large"
	case KindVeryLarge:
		return "very-large"
	case KindForward:
		return "forward"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// TypeID names a registered type descriptor.
type TypeID uint32

// Slot is one object header (Figure 1): the TP field is the type descriptor
// id, DP is the object's location, plus size and bookkeeping. On disk DP is
// an offset; in memory the swizzle layer re-points it at the object's
// virtual address with two arithmetic operations.
type Slot struct {
	Kind    Kind
	Unique  uint16 // bumped on every reuse of this slot (OID uniquifier)
	Type    TypeID
	Size    uint32 // object size in bytes
	DataOff uint64 // offset in data segment (Small/Forward) or overflow segment (Large/VeryLarge)
}

// Header is the slotted-segment header (Figure 1): bookkeeping for the
// object segment, including where its data and overflow segments live.
type Header struct {
	FileID       uint32 // the BeSS file this object segment belongs to
	SlottedPages uint32 // pages in the slotted segment (including header page)
	NSlots       uint32 // total slots
	NObjects     uint32 // live objects
	DataArea     page.AreaID
	DataStart    page.No // first page of the data segment
	DataPages    uint32
	DataUsed     uint32 // bump-allocation high water mark in the data segment
	DataGarbage  uint32 // bytes freed below the high water mark (reclaimed by Compact)
	OverArea     page.AreaID
	OverStart    page.No
	OverPages    uint32
	OverUsed     uint32
	FreeSlotHead int32 // head of the free-slot list, -1 if none

	// Section checksums (CRC-32C), written into the reserved header bytes by
	// EncodeSlotted and verified on decode / fault-in. CRCFlags says which
	// fields are valid — a pre-checksum image decodes with all bits clear.
	CRCFlags uint8
	SlotCRC  uint32 // slotted image past the 128-byte header
	DataCRC  uint32 // data segment bytes
	OverCRC  uint32 // overflow segment bytes
}

// Seg is the in-memory image of an object segment: decoded header, slot
// array, and the raw bytes of the data and overflow segments. It corresponds
// to the paper's "segment handle" run-time structure. Seg is not safe for
// concurrent use; callers latch.
type Seg struct {
	Hdr      Header
	Slots    []Slot
	Data     []byte // data segment bytes, len == DataPages*page.Size
	Overflow []byte // overflow segment bytes, len == OverPages*page.Size

	// img is the encoded slotted image, kept from the first time it is asked
	// for (EncodeSlots). Its slot bytes are current at all times — every
	// method that changes a slot writes the slot through (putSlot); a caller
	// that assigns into Slots directly is not followed — and its header and
	// checksums as of the last EncodeSlots.
	img []byte
	// dirtyLo and dirtyHi bound the slots changed since the last
	// ChangedSlots (putSlot); an empty range is none.
	dirtyLo, dirtyHi int
}

// putSlot writes slot i through to the kept image, if there is one, and
// counts it changed.
func (s *Seg) putSlot(i int) {
	if s.img != nil {
		encodeSlot(s.img[SlotByteOffset(i):], &s.Slots[i])
	}
	if s.dirtyLo == s.dirtyHi {
		s.dirtyLo, s.dirtyHi = i, i+1
	} else {
		s.dirtyLo, s.dirtyHi = min(s.dirtyLo, i), max(s.dirtyHi, i+1)
	}
}

// ChangedSlots returns the range [lo, hi) of the slots that changed since it
// was last called (every slot a method wrote, and maybe some between them)
// and starts the next range empty: what a caller that derives something of
// each slot must bring up to date (swizzle.Mapper.TrustedSlotUpdate).
func (s *Seg) ChangedSlots() (lo, hi int) {
	lo, hi = s.dirtyLo, s.dirtyHi
	s.dirtyLo, s.dirtyHi = 0, 0
	return lo, hi
}

// SlotCapacity returns the number of slots a slotted segment of n pages holds.
func SlotCapacity(n int) int {
	if n <= 0 {
		return 0
	}
	return SlotsFirstPage + (n-1)*SlotsPerPage
}

// SlotPos returns the (page, byte offset within slotted segment) of slot i.
func SlotPos(i int) (pageIdx, byteOff int) {
	if i < SlotsFirstPage {
		return 0, HeaderSize + i*SlotSize
	}
	i -= SlotsFirstPage
	return 1 + i/SlotsPerPage, (i % SlotsPerPage) * SlotSize
}

// SlotByteOffset returns slot i's byte offset from the start of the slotted
// segment; this is the quantity embedded in OIDs and in swizzled addresses.
func SlotByteOffset(i int) uint64 {
	p, off := SlotPos(i)
	return uint64(p)*page.Size + uint64(off)
}

// SlotIndexForOffset inverts SlotByteOffset.
func SlotIndexForOffset(off uint64) (int, error) {
	p := int(off / page.Size)
	b := int(off % page.Size)
	if p == 0 {
		if b < HeaderSize || (b-HeaderSize)%SlotSize != 0 {
			return 0, ErrBadSlot
		}
		return (b - HeaderSize) / SlotSize, nil
	}
	if b%SlotSize != 0 {
		return 0, ErrBadSlot
	}
	return SlotsFirstPage + (p-1)*SlotsPerPage + b/SlotSize, nil
}

// New creates an empty object segment with the given slotted capacity and
// data segment geometry. Overflow starts absent (OverPages 0) and is added
// on demand by the file layer.
func New(fileID uint32, slottedPages, dataPages int, dataArea page.AreaID, dataStart page.No) *Seg {
	s := empty(fileID, slottedPages, dataPages, dataArea, dataStart)
	s.Data = make([]byte, dataPages*page.Size)
	return s
}

// empty is New without the data section.
func empty(fileID uint32, slottedPages, dataPages int, dataArea page.AreaID, dataStart page.No) *Seg {
	n := SlotCapacity(slottedPages)
	s := &Seg{
		Hdr: Header{
			FileID:       fileID,
			SlottedPages: uint32(slottedPages),
			NSlots:       uint32(n),
			DataArea:     dataArea,
			DataStart:    dataStart,
			DataPages:    uint32(dataPages),
			FreeSlotHead: 0,
		},
		Slots: make([]Slot, n),
	}
	// Chain the free list through DataOff.
	for i := 0; i < n; i++ {
		if i == n-1 {
			s.Slots[i].DataOff = uint64(0xFFFFFFFF)
		} else {
			s.Slots[i].DataOff = uint64(i + 1)
		}
	}
	if n == 0 {
		s.Hdr.FreeSlotHead = -1
	}
	return s
}

// Empty returns an empty object segment of the given geometry as a server
// formats it and its creator maps it: decoded — no data or overflow section
// attached — and its slotted image, encoded once and kept by the segment
// (EncodeSlots), with every section checksum set. The data section is
// dataPages zero pages: its checksum comes from page.ZeroChecksum, and no
// data is built. Nothing of the segment has changed yet (ChangedSlots).
func Empty(fileID uint32, slottedPages, dataPages int, dataArea page.AreaID, dataStart page.No) (*Seg, []byte) {
	s := empty(fileID, slottedPages, dataPages, dataArea, dataStart)
	// As EncodeSlotted sets them over New's zeroed data and absent overflow.
	s.Hdr.DataCRC, s.Hdr.OverCRC = page.ZeroChecksum(dataPages), page.ZeroChecksum(0)
	s.Hdr.CRCFlags = CRCData | CRCOver
	img := s.EncodeSlots()
	s.dirtyLo, s.dirtyHi = 0, 0
	return s, img
}

// Format returns Empty's slotted image: what a server writes when it creates
// the segment, and — the geometry being all it depends on — what the
// creating client maps instead of fetching it back.
func Format(fileID uint32, slottedPages, dataPages int, dataArea page.AreaID, dataStart page.No) []byte {
	_, img := Empty(fileID, slottedPages, dataPages, dataArea, dataStart)
	return img
}

// AllocSlot takes a slot off the free list and initializes it.
func (s *Seg) AllocSlot(kind Kind, typ TypeID, size uint32, dataOff uint64) (int, error) {
	if kind == KindFree {
		return 0, ErrBadSlot
	}
	i := int(s.Hdr.FreeSlotHead)
	if i < 0 {
		return 0, ErrNoSlot
	}
	sl := &s.Slots[i]
	if next := uint32(sl.DataOff); next == 0xFFFFFFFF {
		s.Hdr.FreeSlotHead = -1
	} else {
		s.Hdr.FreeSlotHead = int32(next)
	}
	sl.Kind = kind
	sl.Type = typ
	sl.Size = size
	sl.DataOff = dataOff
	s.Hdr.NObjects++
	s.putSlot(i)
	return i, nil
}

// FreeSlot returns slot i to the free list, bumping its uniquifier so stale
// OIDs to the recycled slot are detectable (paper §2.1).
func (s *Seg) FreeSlot(i int) error {
	if i < 0 || i >= len(s.Slots) || s.Slots[i].Kind == KindFree {
		return ErrBadSlot
	}
	sl := &s.Slots[i]
	sl.Kind = KindFree
	sl.Unique++
	sl.Type = 0
	sl.Size = 0
	if s.Hdr.FreeSlotHead < 0 {
		sl.DataOff = uint64(0xFFFFFFFF)
	} else {
		sl.DataOff = uint64(uint32(s.Hdr.FreeSlotHead))
	}
	s.Hdr.FreeSlotHead = int32(i)
	s.Hdr.NObjects--
	s.putSlot(i)
	return nil
}

// Live reports whether slot i holds a live object header.
func (s *Seg) Live(i int) bool {
	return i >= 0 && i < len(s.Slots) && s.Slots[i].Kind != KindFree
}

// CheckSlot validates a reference to slot i with uniquifier u.
func (s *Seg) CheckSlot(i int, u uint16) error {
	if !s.Live(i) {
		return ErrBadSlot
	}
	if s.Slots[i].Unique != u {
		return ErrStaleSlot
	}
	return nil
}

// dataFree returns the free bytes at the data segment's tail.
func (s *Seg) dataFree() int { return len(s.Data) - int(s.Hdr.DataUsed) }

// align8 rounds n up to a multiple of 8 so object starts (and thus the
// 8-byte reference fields inside them) stay aligned.
func align8(n int) int { return (n + 7) &^ 7 }

// CreateObject allocates space in the data segment and a slot, copies data
// in, and returns the slot index. Compact is tried before reporting the data
// segment full.
func (s *Seg) CreateObject(typ TypeID, data []byte) (int, error) {
	return s.createKind(KindSmall, typ, data)
}

// CreateForward stores a forward object: a small payload (an encoded OID of
// an object in another database) that inter-database references point to
// (paper §2.1).
func (s *Seg) CreateForward(payload []byte) (int, error) {
	return s.createKind(KindForward, 0, payload)
}

func (s *Seg) createKind(kind Kind, typ TypeID, data []byte) (int, error) {
	need := align8(len(data))
	if s.dataFree() < need {
		s.Compact()
	}
	if s.dataFree() < need {
		return 0, ErrDataFull
	}
	off := uint64(s.Hdr.DataUsed)
	i, err := s.AllocSlot(kind, typ, uint32(len(data)), off)
	if err != nil {
		return 0, err
	}
	copy(s.Data[off:], data)
	s.Hdr.DataUsed += uint32(need)
	return i, nil
}

// CreateDescriptor stores a descriptor blob for a Large or VeryLarge object
// in the overflow segment, allocating a slot whose DataOff points at it.
// The caller must have sized the overflow segment (EnsureOverflow).
func (s *Seg) CreateDescriptor(kind Kind, typ TypeID, objectSize uint32, desc []byte) (int, error) {
	if kind != KindLarge && kind != KindVeryLarge {
		return 0, ErrBadSlot
	}
	need := align8(len(desc))
	if int(s.Hdr.OverUsed)+need > len(s.Overflow) {
		return 0, ErrOverflowOff
	}
	off := uint64(s.Hdr.OverUsed)
	i, err := s.AllocSlot(kind, typ, objectSize, off)
	if err != nil {
		return 0, err
	}
	copy(s.Overflow[off:], desc)
	s.Hdr.OverUsed += uint32(need)
	return i, nil
}

// Descriptor returns the n-byte descriptor blob of slot i in the overflow
// segment. The returned slice aliases the segment; trusted code only.
func (s *Seg) Descriptor(i, n int) ([]byte, error) {
	if !s.Live(i) {
		return nil, ErrBadSlot
	}
	sl := s.Slots[i]
	if sl.Kind != KindLarge && sl.Kind != KindVeryLarge {
		return nil, ErrNotSmall
	}
	off := int(sl.DataOff)
	if off+n > len(s.Overflow) {
		return nil, ErrOverflowOff
	}
	return s.Overflow[off : off+n], nil
}

// EnsureOverflow grows (never shrinks) the in-memory overflow segment to at
// least n pages. The file layer persists the new geometry.
func (s *Seg) EnsureOverflow(nPages int) {
	if int(s.Hdr.OverPages) >= nPages {
		return
	}
	grown := make([]byte, nPages*page.Size)
	copy(grown, s.Overflow)
	s.Overflow = grown
	s.Hdr.OverPages = uint32(nPages)
}

// LargeDescSize is the encoded size of a LargeDesc.
const LargeDescSize = 24

// largeDescTag marks a LargeDesc that names a content segment; where it
// stands, an older build's descriptor held its run's page count.
const largeDescTag = 0x4C4F4232 // "LOB2"

// LargeDesc is a transparent large object's descriptor, the overflow blob of
// its KindLarge slot: the segment, created with the object, whose data
// section holds the object's stored bytes, and their count and CRC-32C.
// Stored may differ from the slot's logical object size when a flush-side
// hook (compression) transformed the content; the checksum covers exactly
// the stored bytes, so a read checks them against the descriptor before any
// fetch-side hook runs.
type LargeDesc struct {
	Area   page.AreaID
	Start  page.No // the content segment's slotted run
	Stored uint32
	CRC    uint32
}

// Encode returns d's LargeDescSize bytes.
func (d LargeDesc) Encode() []byte {
	be := binary.BigEndian
	b := be.AppendUint32(make([]byte, 0, LargeDescSize), uint32(d.Area))
	b = be.AppendUint64(b, uint64(d.Start))
	b = be.AppendUint32(b, largeDescTag)
	b = be.AppendUint32(b, d.Stored)
	return be.AppendUint32(b, d.CRC)
}

// DecodeLargeDesc parses the LargeDescSize bytes at the head of b. A
// descriptor an older build wrote is ErrOldLargeDesc.
func DecodeLargeDesc(b []byte) (LargeDesc, error) {
	if len(b) < LargeDescSize {
		return LargeDesc{}, ErrOverflowOff
	}
	be := binary.BigEndian
	if be.Uint32(b[12:]) != largeDescTag {
		return LargeDesc{}, ErrOldLargeDesc
	}
	return LargeDesc{
		Area:   page.AreaID(be.Uint32(b)),
		Start:  page.No(be.Uint64(b[4:])),
		Stored: be.Uint32(b[16:]),
		CRC:    be.Uint32(b[20:]),
	}, nil
}

// ObjectBytes returns the live bytes of small/forward object i. The slice
// aliases the data segment — this is the paper's "manipulated directly on
// the segment on which they reside, without in-memory copying".
func (s *Seg) ObjectBytes(i int) ([]byte, error) {
	if !s.Live(i) {
		return nil, ErrBadSlot
	}
	sl := s.Slots[i]
	if sl.Kind != KindSmall && sl.Kind != KindForward {
		return nil, ErrNotSmall
	}
	return s.Data[sl.DataOff : sl.DataOff+uint64(sl.Size)], nil
}

// UpdateObject overwrites object i in place; the new data must be the same
// size (resizing is ResizeObject).
func (s *Seg) UpdateObject(i int, data []byte) error {
	b, err := s.ObjectBytes(i)
	if err != nil {
		return err
	}
	if len(data) != len(b) {
		return ErrSizeChange
	}
	copy(b, data)
	return nil
}

// ResizeObject replaces object i's bytes with data of a possibly different
// size. The object may move within the data segment; its slot (and hence all
// references to it) is unchanged.
func (s *Seg) ResizeObject(i int, data []byte) error {
	if !s.Live(i) {
		return ErrBadSlot
	}
	sl := &s.Slots[i]
	if sl.Kind != KindSmall && sl.Kind != KindForward {
		return ErrNotSmall
	}
	oldNeed := align8(int(sl.Size))
	newNeed := align8(len(data))
	if newNeed <= oldNeed {
		copy(s.Data[sl.DataOff:], data)
		sl.Size = uint32(len(data))
		s.Hdr.DataGarbage += uint32(oldNeed - newNeed)
		s.putSlot(i)
		return nil
	}
	if s.dataFree() < newNeed {
		s.Compact()
		if s.dataFree() < newNeed {
			return ErrDataFull
		}
	}
	off := uint64(s.Hdr.DataUsed)
	copy(s.Data[off:], data)
	s.Hdr.DataUsed += uint32(newNeed)
	s.Hdr.DataGarbage += uint32(oldNeed)
	sl.DataOff = off
	sl.Size = uint32(len(data))
	s.putSlot(i)
	return nil
}

// DeleteObject frees object i: its data bytes become garbage (reclaimed by
// Compact) and its slot returns to the free list with a bumped uniquifier.
func (s *Seg) DeleteObject(i int) error {
	if !s.Live(i) {
		return ErrBadSlot
	}
	sl := s.Slots[i]
	if sl.Kind == KindSmall || sl.Kind == KindForward {
		s.Hdr.DataGarbage += uint32(align8(int(sl.Size)))
	}
	return s.FreeSlot(i)
}

// Compact slides live objects down over garbage, updating each slot's
// DataOff. References are unaffected because they name slots, not data
// offsets — the reorganization property of §2.1. Returns the number of
// objects moved.
func (s *Seg) Compact() int {
	if s.Hdr.DataGarbage == 0 {
		return 0
	}
	// Collect live small/forward slots ordered by DataOff.
	var order []int
	for i := range s.Slots {
		sl := s.Slots[i]
		if sl.Kind == KindSmall || sl.Kind == KindForward {
			order = append(order, i)
		}
	}
	// Insertion sort by DataOff (segments hold at most a few hundred slots).
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && s.Slots[order[j]].DataOff < s.Slots[order[j-1]].DataOff; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	moved := 0
	used := uint32(0)
	for _, i := range order {
		sl := &s.Slots[i]
		need := uint32(align8(int(sl.Size)))
		if sl.DataOff != uint64(used) {
			copy(s.Data[used:used+sl.Size], s.Data[sl.DataOff:sl.DataOff+uint64(sl.Size)])
			sl.DataOff = uint64(used)
			s.putSlot(i)
			moved++
		}
		used += need
	}
	s.Hdr.DataUsed = used
	s.Hdr.DataGarbage = 0
	return moved
}

// ResizeData grows or shrinks the data segment to nPages. Shrinking compacts
// first and fails if live data does not fit.
func (s *Seg) ResizeData(nPages int) error {
	newLen := nPages * page.Size
	if newLen < int(s.Hdr.DataUsed) {
		s.Compact()
		if newLen < int(s.Hdr.DataUsed) {
			return ErrDataFull
		}
	}
	grown := make([]byte, newLen)
	copy(grown, s.Data[:min(len(s.Data), newLen)])
	s.Data = grown
	s.Hdr.DataPages = uint32(nPages)
	return nil
}

// MoveData records a new home for the data segment (relocation across areas
// or within one). The physical copy is performed by the file layer; slots
// are untouched because DataOff is relative to the data segment start.
func (s *Seg) MoveData(area page.AreaID, start page.No) {
	s.Hdr.DataArea = area
	s.Hdr.DataStart = start
}

// LiveSlots returns the indices of live slots in ascending order.
func (s *Seg) LiveSlots() []int {
	var out []int
	for i := range s.Slots {
		if s.Slots[i].Kind != KindFree {
			out = append(out, i)
		}
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// --- Persistent encoding ---

// EncodeSlotted serializes the header and slot array into SlottedPages pages.
// Section checksums are refreshed as a side effect: the slot-region CRC is
// always recomputed from this image, and the data/overflow CRCs are
// recomputed when the section bytes are attached at their full on-disk size
// (carried forward from the last decode otherwise, so a commit that ships no
// data bytes keeps the data segment verifiable). The result is EncodeSlots'.
func (s *Seg) EncodeSlotted() []byte {
	if len(s.Data) == int(s.Hdr.DataPages)*page.Size {
		s.Hdr.DataCRC = page.Checksum(s.Data)
		s.Hdr.CRCFlags |= CRCData
	}
	if len(s.Overflow) == int(s.Hdr.OverPages)*page.Size {
		s.Hdr.OverCRC = page.Checksum(s.Overflow)
		s.Hdr.CRCFlags |= CRCOver
	}
	return s.EncodeSlots()
}

// EncodeSlots is EncodeSlotted without the walk over the attached sections:
// the header carries the data and overflow checksums it already had, the
// header and slot-region checksums are computed as always. It returns the
// segment's one slotted image, which it keeps: valid until the segment next
// changes, current again after the next call. The slots in it are current
// already (putSlot), so a call costs the header and two checksums of the
// slotted pages — what a client wants that maps this very image and brings it
// up to date after every slot change (swizzle.Mapper.TrustedSlotUpdate).
//
// TestEncodeSlotsAllocs pins its allocation budget.
func (s *Seg) EncodeSlots() []byte {
	s.Hdr.CRCFlags |= CRCSlots
	if s.img == nil {
		s.img = make([]byte, int(s.Hdr.SlottedPages)*page.Size) // once per segment
		for i := range s.Slots {
			s.putSlot(i)
		}
	}
	buf, h := s.img, s.Hdr
	binary.BigEndian.PutUint32(buf[0:4], segMagic)
	binary.BigEndian.PutUint32(buf[4:8], h.FileID)
	binary.BigEndian.PutUint32(buf[8:12], h.SlottedPages)
	binary.BigEndian.PutUint32(buf[12:16], h.NSlots)
	binary.BigEndian.PutUint32(buf[16:20], h.NObjects)
	binary.BigEndian.PutUint32(buf[20:24], uint32(h.DataArea))
	binary.BigEndian.PutUint64(buf[24:32], uint64(h.DataStart))
	binary.BigEndian.PutUint32(buf[32:36], h.DataPages)
	binary.BigEndian.PutUint32(buf[36:40], h.DataUsed)
	binary.BigEndian.PutUint32(buf[40:44], h.DataGarbage)
	binary.BigEndian.PutUint32(buf[44:48], uint32(h.OverArea))
	binary.BigEndian.PutUint64(buf[48:56], uint64(h.OverStart))
	binary.BigEndian.PutUint32(buf[56:60], h.OverPages)
	binary.BigEndian.PutUint32(buf[60:64], h.OverUsed)
	binary.BigEndian.PutUint32(buf[64:68], uint32(h.FreeSlotHead))
	// buf[68:88] section checksums; buf[88:124] reserved.
	buf[68] = h.CRCFlags
	binary.BigEndian.PutUint32(buf[76:80], h.DataCRC)
	binary.BigEndian.PutUint32(buf[80:84], h.OverCRC)
	if lockcheck.Enabled {
		// An invariants build checks the kept slots against the Slots array.
		var want [SlotSize]byte
		for i := range s.Slots {
			encodeSlot(want[:], &s.Slots[i])
			if off := SlotByteOffset(i); !bytes.Equal(buf[off:off+SlotSize], want[:]) {
				panic(fmt.Sprintf("segment: slot %d changed behind the kept slotted image", i))
			}
		}
	}
	// The slot-region CRC goes in last: it covers every slotted byte past
	// the header, so with the header's own checksum below the whole slotted
	// image is protected.
	s.Hdr.SlotCRC = page.Checksum(buf[HeaderSize:])
	binary.BigEndian.PutUint32(buf[72:76], s.Hdr.SlotCRC)
	// Header checksum over the first page minus the checksum field.
	binary.BigEndian.PutUint32(buf[124:128], page.Checksum(buf[0:124]))
	return buf
}

// DecodeSlotted parses pages produced by EncodeSlotted.
func DecodeSlotted(buf []byte) (*Seg, error) {
	if len(buf) < page.Size {
		return nil, ErrBadMagic
	}
	if binary.BigEndian.Uint32(buf[0:4]) != segMagic {
		return nil, ErrBadMagic
	}
	if want, got := binary.BigEndian.Uint32(buf[124:128]), page.Checksum(buf[0:124]); want != got {
		return nil, &page.CorruptError{
			Section: "header", Off: 0, Len: HeaderSize,
			Want: want, Got: got, Err: ErrChecksum,
		}
	}
	var h Header
	h.FileID = binary.BigEndian.Uint32(buf[4:8])
	h.SlottedPages = binary.BigEndian.Uint32(buf[8:12])
	h.NSlots = binary.BigEndian.Uint32(buf[12:16])
	h.NObjects = binary.BigEndian.Uint32(buf[16:20])
	h.DataArea = page.AreaID(binary.BigEndian.Uint32(buf[20:24]))
	h.DataStart = page.No(binary.BigEndian.Uint64(buf[24:32]))
	h.DataPages = binary.BigEndian.Uint32(buf[32:36])
	h.DataUsed = binary.BigEndian.Uint32(buf[36:40])
	h.DataGarbage = binary.BigEndian.Uint32(buf[40:44])
	h.OverArea = page.AreaID(binary.BigEndian.Uint32(buf[44:48]))
	h.OverStart = page.No(binary.BigEndian.Uint64(buf[48:56]))
	h.OverPages = binary.BigEndian.Uint32(buf[56:60])
	h.OverUsed = binary.BigEndian.Uint32(buf[60:64])
	h.FreeSlotHead = int32(binary.BigEndian.Uint32(buf[64:68]))
	h.CRCFlags = buf[68]
	h.SlotCRC = binary.BigEndian.Uint32(buf[72:76])
	h.DataCRC = binary.BigEndian.Uint32(buf[76:80])
	h.OverCRC = binary.BigEndian.Uint32(buf[80:84])
	if int(h.SlottedPages)*page.Size != len(buf) {
		return nil, fmt.Errorf("segment: slotted image is %d bytes, header says %d pages", len(buf), h.SlottedPages)
	}
	if int(h.NSlots) != SlotCapacity(int(h.SlottedPages)) {
		return nil, fmt.Errorf("segment: slot count %d inconsistent with %d pages", h.NSlots, h.SlottedPages)
	}
	if h.CRCFlags&CRCSlots != 0 {
		// The decoder does not know which area the image came from; callers
		// with that identity annotate the CorruptError they get back.
		if err := page.Verify(buf[HeaderSize:], h.SlotCRC, "slotted", ErrChecksum); err != nil {
			err.(*page.CorruptError).Off = HeaderSize
			return nil, err
		}
	}
	s := &Seg{Hdr: h, Slots: make([]Slot, h.NSlots)}
	for i := range s.Slots {
		p, off := SlotPos(i)
		decodeSlot(buf[p*page.Size+off:], &s.Slots[i])
	}
	return s, nil
}

func encodeSlot(b []byte, sl *Slot) {
	b[0] = byte(sl.Kind)
	b[1] = 0
	binary.BigEndian.PutUint16(b[2:4], sl.Unique)
	binary.BigEndian.PutUint32(b[4:8], uint32(sl.Type))
	binary.BigEndian.PutUint32(b[8:12], sl.Size)
	binary.BigEndian.PutUint64(b[12:20], sl.DataOff)
	// b[20:24] reserved.
}

func decodeSlot(b []byte, sl *Slot) {
	sl.Kind = Kind(b[0])
	sl.Unique = binary.BigEndian.Uint16(b[2:4])
	sl.Type = TypeID(binary.BigEndian.Uint32(b[4:8]))
	sl.Size = binary.BigEndian.Uint32(b[8:12])
	sl.DataOff = binary.BigEndian.Uint64(b[12:20])
}

// VerifyData checks data (the full data-segment bytes) against the header's
// recorded section checksum. Images written before checksums existed have no
// recorded CRC and verify vacuously.
func (s *Seg) VerifyData(data []byte) error {
	if s.Hdr.CRCFlags&CRCData == 0 {
		return nil
	}
	if err := page.Verify(data, s.Hdr.DataCRC, "data", ErrChecksum); err != nil {
		ce := err.(*page.CorruptError)
		ce.Area, ce.Page = s.Hdr.DataArea, s.Hdr.DataStart
		return err
	}
	return nil
}

// VerifyOverflow checks ov (the full overflow-segment bytes) against the
// header's recorded section checksum.
func (s *Seg) VerifyOverflow(ov []byte) error {
	if s.Hdr.CRCFlags&CRCOver == 0 {
		return nil
	}
	if err := page.Verify(ov, s.Hdr.OverCRC, "overflow", ErrChecksum); err != nil {
		ce := err.(*page.CorruptError)
		ce.Area, ce.Page = s.Hdr.OverArea, s.Hdr.OverStart
		return err
	}
	return nil
}

// VerifySections checks the attached Data and Overflow byte slices; the
// slotted section was already verified by DecodeSlotted. Sections not
// attached at their full on-disk size are skipped (nothing to check yet).
func (s *Seg) VerifySections() error {
	if len(s.Data) == int(s.Hdr.DataPages)*page.Size {
		if err := s.VerifyData(s.Data); err != nil {
			return err
		}
	}
	if len(s.Overflow) == int(s.Hdr.OverPages)*page.Size {
		return s.VerifyOverflow(s.Overflow)
	}
	return nil
}
