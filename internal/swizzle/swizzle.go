// Package swizzle implements the BeSS fast object reference mechanism
// (paper §2.1): inter-object references are virtual-memory pointers to the
// headers (slots) of referenced objects, established lazily by three waves
// of faulting over a simulated address space.
//
// Wave 1: when a reference into segment X is first seen, an address range
// for X's *slotted* segment is reserved and access-protected — nothing is
// fetched and no memory is consumed (the "less greedy" reservation).
//
// Wave 2: the first access to X's slotted range faults; the slotted segment
// is fetched, mapped write-protected (§2.2), an address range is reserved
// for X's *data* segment, and every slot's DP field is adjusted to point at
// the reserved data address — "just two arithmetic operations" per slot.
//
// Wave 3: the first access through a DP faults; the data segment is fetched
// and mapped, and every reference inside the fetched objects is swizzled:
// targets get wave-1 reservations and the persistent reference bytes are
// replaced by the virtual address of the target slot.
package swizzle

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"bess/internal/hooks"
	"bess/internal/lockcheck"
	"bess/internal/page"
	"bess/internal/segment"
	"bess/internal/vmem"
)

// SegID identifies an object segment by the location of its slotted segment,
// which is never relocated (paper §2.1).
type SegID struct {
	Area  page.AreaID
	Start page.No
}

// String renders the id as area:page.
func (id SegID) String() string { return fmt.Sprintf("%d:%d", id.Area, id.Start) }

// PRef is a persistent (on-disk) reference: 48-bit header offset within the
// database, tagged in bit 63 to distinguish it from a swizzled virtual
// address. PRef 0 is the nil reference in both forms.
type PRef uint64

// unswizzledTag marks the persistent form of a reference field.
const unswizzledTag = uint64(1) << 63

// HeaderOffset packs (area, slotted segment start page, slot index) into the
// 48-bit "offset of the object's header within the database" carried by OIDs
// and persistent references: 16 bits of area, 32 bits of byte offset.
func HeaderOffset(id SegID, slot int) uint64 {
	return uint64(id.Area)<<32 | uint64(id.Start)*page.Size + segment.SlotByteOffset(slot)
}

// SplitHeaderOffset recovers the area and the byte offset within the area.
func SplitHeaderOffset(off uint64) (area page.AreaID, byteOff uint64) {
	return page.AreaID(off >> 32), off & 0xFFFFFFFF
}

// MakePRef builds the tagged persistent reference for a header offset.
func MakePRef(headerOff uint64) PRef {
	if headerOff == 0 {
		return 0
	}
	return PRef(headerOff | unswizzledTag)
}

// IsSwizzled reports whether the raw 8-byte field value is a virtual address
// (true) or a tagged persistent reference / nil (false for nil).
func IsSwizzled(raw uint64) bool { return raw != 0 && raw&unswizzledTag == 0 }

// Fetcher supplies segment images and resolves header offsets. The cache /
// server layers implement it.
type Fetcher interface {
	// SlottedPages returns the size in pages of id's slotted segment, so a
	// wave-1 reservation can be made without fetching anything.
	SlottedPages(id SegID) (int, error)
	// FetchSlotted returns the decoded slotted segment (header + slots +
	// overflow image).
	FetchSlotted(id SegID) (*segment.Seg, error)
	// FetchData returns the data segment bytes for seg
	// (len = DataPages*page.Size).
	FetchData(id SegID, seg *segment.Seg) ([]byte, error)
	// Resolve maps a 48-bit header offset to its segment and slot index.
	Resolve(headerOff uint64) (SegID, int, error)
}

// Errors returned by the mapper.
var (
	ErrUnknownAddr   = errors.New("swizzle: address does not name a mapped segment")
	ErrNotSlotAddr   = errors.New("swizzle: address is not an object header")
	ErrProtected     = errors.New("swizzle: write to protected control structure denied")
	ErrNoType        = errors.New("swizzle: object type not registered")
	ErrBadField      = errors.New("swizzle: reference field out of object bounds")
	ErrLargeSpan     = errors.New("swizzle: operation exceeds large object size")
	ErrNotLarge      = errors.New("swizzle: slot is not a transparent large object")
	ErrAlreadyMapped = errors.New("swizzle: segment already mapped")
)

// segState tracks how far a segment has progressed through the waves.
type segState uint8

const (
	stReserved   segState = iota // wave 1 done: slotted range reserved
	stSlotted                    // wave 2 done: slotted loaded, data range reserved
	stDataMapped                 // wave 3 done: data fetched and swizzled
)

// mseg is the per-segment mapping state ("segment handle" in Figure 1).
type mseg struct {
	id           SegID
	state        segState
	slottedBase  vmem.Addr
	slottedPages int
	seg          *segment.Seg
	dataBase     vmem.Addr // reserved at wave 2
	dataPages    int
	// dp[i] is slot i's in-memory DP: the virtual address of the object's
	// data. It mirrors what the paper stores in the mapped slot itself.
	dp []vmem.Addr
	// large[i] is the reserved range for a KindLarge slot's object, held
	// until the slot holds another object or none (releaseLarge) or the
	// segment unloads.
	large     map[int]largeRange
	dirtyData bool
}

// largeRange is a large object's reserved range: its first frame's address
// and how many frames it was reserved with.
type largeRange struct {
	base vmem.Addr
	n    int
}

// Stats counts wave activity for one Mapper.
type Stats struct {
	Wave1Reservations int64 // slotted ranges reserved
	Wave2SlottedLoads int64 // slotted segments fetched + data ranges reserved
	Wave3DataLoads    int64 // data segments fetched
	RefsSwizzled      int64 // reference fields converted to virtual addresses
	DPFixups          int64 // slot DP adjustments (two arithmetic ops each)
	DeniedWrites      int64 // user writes to protected control structures
}

// Mapper manages one process' view of the database: a vmem.Space plus the
// per-segment wave state. It is not safe for concurrent use (in BeSS each
// process faults on its own address space); the client layer serializes.
type Mapper struct {
	space *vmem.Space
	fetch Fetcher
	types *segment.Registry

	// bySeg holds every segment a reference has been seen into. An entry and
	// its slotted reservation last as long as the mapper: a dropped segment
	// goes back to wave 1 (DropSeg), so an address swizzled into it stays a
	// reserved address that faults the segment back in.
	bySeg   map[SegID]*mseg
	byFrame map[int64]*mseg // frames of slotted + data + large ranges
	// loaded is the part of bySeg past wave 1 — the copies the mapper holds.
	// What runs per transaction (DirtySegs, MappedDataRanges, CachedSegs)
	// walks this, not every reservation the session ever made.
	loaded map[SegID]*mseg

	// hk holds the §2.4 hooks the process registers; the data hooks run where
	// a large object's content is built (the session) and read (loadLarge).
	hk *hooks.Registry

	stats Stats
}

// NewMapper wires a mapper to a space, a fetcher, and a type registry, and
// installs the fault handler (the BeSS "interrupt handler").
func NewMapper(space *vmem.Space, fetch Fetcher, types *segment.Registry) *Mapper {
	m := &Mapper{
		space:   space,
		fetch:   fetch,
		types:   types,
		bySeg:   make(map[SegID]*mseg),
		byFrame: make(map[int64]*mseg),
		loaded:  make(map[SegID]*mseg),
		hk:      hooks.NewRegistry(),
	}
	space.SetHandler(m.handleFault)
	return m
}

// Hooks returns the mapper's hook registry.
func (m *Mapper) Hooks() *hooks.Registry { return m.hk }

// Space returns the underlying address space.
func (m *Mapper) Space() *vmem.Space { return m.space }

// Stats returns a copy of the wave counters.
func (m *Mapper) Stats() Stats { return m.stats }

// --- Wave 1 ---

// ReserveSeg performs wave 1 for id: reserve (but do not fetch) its slotted
// range. Idempotent.
func (m *Mapper) ReserveSeg(id SegID) (*mseg, error) {
	if ms, ok := m.bySeg[id]; ok {
		return ms, nil
	}
	n, err := m.fetch.SlottedPages(id)
	if err != nil {
		return nil, err
	}
	base, err := m.space.Reserve(n)
	if err != nil {
		return nil, err
	}
	ms := &mseg{id: id, state: stReserved, slottedBase: base, slottedPages: n}
	m.bySeg[id] = ms
	for i := 0; i < n; i++ {
		m.byFrame[base.Frame()+int64(i)] = ms
	}
	m.stats.Wave1Reservations++
	return ms, nil
}

// SwizzleRef converts a persistent reference into the virtual address of the
// target slot, reserving the target's slotted segment if needed (wave 1).
func (m *Mapper) SwizzleRef(p PRef) (vmem.Addr, error) {
	if p == 0 {
		return vmem.NilAddr, nil
	}
	headerOff := uint64(p) &^ unswizzledTag
	id, slot, err := m.fetch.Resolve(headerOff)
	if err != nil {
		return vmem.NilAddr, err
	}
	ms, err := m.ReserveSeg(id)
	if err != nil {
		return vmem.NilAddr, err
	}
	m.stats.RefsSwizzled++
	return ms.slottedBase + vmem.Addr(segment.SlotByteOffset(slot)), nil
}

// UnswizzleAddr converts a slot virtual address back to its persistent form.
// The address of a slot in a segment since dropped converts like any other:
// the reservation it points into outlives the cached copy.
func (m *Mapper) UnswizzleAddr(a vmem.Addr) (PRef, error) {
	if a == vmem.NilAddr {
		return 0, nil
	}
	ms, ok := m.byFrame[a.Frame()]
	if !ok {
		return 0, ErrUnknownAddr
	}
	if !m.inSlottedRange(ms, a.Frame()) {
		return 0, ErrNotSlotAddr
	}
	slot, err := segment.SlotIndexForOffset(uint64(a - ms.slottedBase))
	if err != nil {
		return 0, ErrNotSlotAddr
	}
	return MakePRef(HeaderOffset(ms.id, slot)), nil
}

// AddrOfSlot returns the virtual address of (id, slot), reserving as needed.
func (m *Mapper) AddrOfSlot(id SegID, slot int) (vmem.Addr, error) {
	ms, err := m.ReserveSeg(id)
	if err != nil {
		return vmem.NilAddr, err
	}
	return ms.slottedBase + vmem.Addr(segment.SlotByteOffset(slot)), nil
}

// --- Fault handling (waves 2 and 3) ---

// HandleFault is the mapper's fault policy. It is installed on the space by
// NewMapper; layers that need their own policy for some faults (the detect
// package grants+records data write faults) install a composite handler
// that delegates the rest here.
func (m *Mapper) HandleFault(f vmem.Fault) error { return m.handleFault(f) }

// FrameKind classifies a virtual frame for composite fault handlers.
type FrameKind uint8

// Frame kinds.
const (
	FrameUnknown FrameKind = iota
	FrameSlotted           // write-protected control structures
	FrameData              // data segment pages
	FrameLarge             // transparent large-object range
)

// FrameInfo reports which segment and which kind of range a frame belongs
// to, plus the page index within that range.
func (m *Mapper) FrameInfo(frame int64) (id SegID, kind FrameKind, pageIdx int, ok bool) {
	ms, found := m.byFrame[frame]
	if !found {
		return SegID{}, FrameUnknown, 0, false
	}
	switch {
	case m.inSlottedRange(ms, frame):
		return ms.id, FrameSlotted, int(frame - ms.slottedBase.Frame()), true
	case m.inDataRange(ms, frame):
		return ms.id, FrameData, int(frame - ms.dataBase.Frame()), true
	default:
		if slot, isLarge := m.largeSlotForFrame(ms, frame); isLarge {
			return ms.id, FrameLarge, int(frame - ms.large[slot].base.Frame()), true
		}
		return ms.id, FrameUnknown, 0, true
	}
}

func (m *Mapper) handleFault(f vmem.Fault) error {
	ms, ok := m.byFrame[f.Frame]
	if !ok {
		return ErrUnknownAddr
	}
	switch f.Kind {
	case vmem.FaultNoBacking:
		// Which range does the frame fall in?
		if m.inSlottedRange(ms, f.Frame) {
			return m.loadSlotted(ms)
		}
		if m.inDataRange(ms, f.Frame) {
			return m.loadData(ms)
		}
		if slot, ok := m.largeSlotForFrame(ms, f.Frame); ok {
			return m.loadLarge(ms, slot)
		}
		return ErrUnknownAddr
	case vmem.FaultProtWrite:
		if m.inSlottedRange(ms, f.Frame) {
			// §2.2: ordinary user code cannot modify the slotted segment.
			m.stats.DeniedWrites++
			return ErrProtected
		}
		// Data-page write faults belong to the update-detection layer; the
		// mapper has no policy of its own, so deny. The detect package
		// installs a composite handler that grants access and records the
		// update before the mapper ever sees the fault.
		m.stats.DeniedWrites++
		return ErrProtected
	default:
		return fmt.Errorf("swizzle: unhandled fault %v at %#x", f.Kind, uint64(f.Addr))
	}
}

func (m *Mapper) inSlottedRange(ms *mseg, frame int64) bool {
	b := ms.slottedBase.Frame()
	return frame >= b && frame < b+int64(ms.slottedPages)
}

func (m *Mapper) inDataRange(ms *mseg, frame int64) bool {
	if ms.state < stSlotted {
		return false
	}
	b := ms.dataBase.Frame()
	return frame >= b && frame < b+int64(ms.dataPages)
}

func (m *Mapper) largeSlotForFrame(ms *mseg, frame int64) (int, bool) {
	for slot, r := range ms.large {
		if frame >= r.base.Frame() && frame < r.base.Frame()+int64(r.n) {
			return slot, true
		}
	}
	return 0, false
}

func framesFor(n int) int { return (n + page.Size - 1) / page.Size }

// loadSlotted is wave 2: fetch the slotted segment, map it write-protected,
// reserve the data range, and fix every DP. A failure after the fetch takes
// back all of it (unload), so the segment is in wave 1 again and a retry
// starts from the fetch.
func (m *Mapper) loadSlotted(ms *mseg) error {
	if ms.state >= stSlotted {
		return nil
	}
	seg, err := m.fetch.FetchSlotted(ms.id)
	if err != nil {
		return err
	}
	if err := m.mapSlotted(ms, seg); err != nil {
		return errors.Join(err, m.unload(ms))
	}
	ms.state = stSlotted
	m.loaded[ms.id] = ms
	m.stats.Wave2SlottedLoads++
	return nil
}

// mapSlotted does wave 2's work on seg, the fetched slotted segment, keeping
// in ms everything it reserves and maps, so that unload can take it back.
func (m *Mapper) mapSlotted(ms *mseg, seg *segment.Seg) error {
	ms.seg = seg
	ms.dataPages = int(seg.Hdr.DataPages)
	if ms.dataPages == 0 {
		ms.dataPages = 1 // always reserve something so DPs are valid addresses
	}
	dataBase, err := m.space.Reserve(ms.dataPages)
	if err != nil {
		return err
	}
	ms.dataBase = dataBase
	for i := 0; i < ms.dataPages; i++ {
		m.byFrame[dataBase.Frame()+int64(i)] = ms
	}
	// Map the segment's slotted image write-protected: readable, not writable
	// (§2.2). The mapping aliases it, so a trusted update of the segment is
	// an update of the mapped pages (TrustedSlotUpdate).
	img := seg.EncodeSlotted()
	for i := 0; i < ms.slottedPages && i < int(seg.Hdr.SlottedPages); i++ {
		fr := img[i*page.Size : (i+1)*page.Size]
		if err := m.space.Map(ms.slottedBase+vmem.Addr(i*page.Size), fr, vmem.ProtRead); err != nil {
			return err
		}
	}
	// Fix the DP of every live slot: dataBase + DataOff — the paper's "two
	// arithmetic operations". Transparent large objects instead get their
	// own reserved, access-protected range big enough for the whole object.
	ms.dp = make([]vmem.Addr, len(seg.Slots))
	ms.large = make(map[int]largeRange)
	for i := range seg.Slots {
		sl := &seg.Slots[i]
		switch sl.Kind {
		case segment.KindSmall, segment.KindForward:
			ms.dp[i] = ms.dataBase + vmem.Addr(sl.DataOff)
			m.stats.DPFixups++
		case segment.KindLarge:
			if err := m.reserveLarge(ms, i); err != nil {
				return err
			}
			m.stats.DPFixups++
		}
	}
	return nil
}

// loadData is wave 3: fetch the data segment, map it, and swizzle every
// reference in every object present.
func (m *Mapper) loadData(ms *mseg) error {
	if ms.state >= stDataMapped {
		return nil
	}
	data, err := m.fetch.FetchData(ms.id, ms.seg)
	if err != nil {
		return err
	}
	if len(data) < ms.dataPages*page.Size {
		grown := make([]byte, ms.dataPages*page.Size)
		copy(grown, data)
		data = grown
	}
	ms.seg.Data = data
	// Swizzle references before the pages become visible.
	if err := m.swizzleDataRefs(ms); err != nil {
		return err
	}
	for i := 0; i < ms.dataPages; i++ {
		fr := data[i*page.Size : (i+1)*page.Size]
		if err := m.space.Map(ms.dataBase+vmem.Addr(i*page.Size), fr, vmem.ProtRead); err != nil {
			return err
		}
	}
	ms.state = stDataMapped
	m.stats.Wave3DataLoads++
	return nil
}

// swizzleDataRefs walks the type descriptor of every object in the fetched
// data segment and swizzles each reference (wave 3 → triggers wave 1 for
// the targets).
func (m *Mapper) swizzleDataRefs(ms *mseg) error {
	for _, i := range ms.seg.LiveSlots() {
		sl := ms.seg.Slots[i]
		if sl.Kind != segment.KindSmall {
			continue
		}
		td := m.types.Lookup(sl.Type)
		if td == nil {
			continue // typeless blob: no references to fix
		}
		obj := ms.seg.Data[sl.DataOff : sl.DataOff+uint64(sl.Size)]
		for _, off := range td.RefOffsets {
			if off+segment.RefSize > len(obj) {
				return ErrBadField
			}
			raw := binary.BigEndian.Uint64(obj[off:])
			if raw == 0 || IsSwizzled(raw) {
				continue
			}
			a, err := m.SwizzleRef(PRef(raw))
			if err != nil {
				return err
			}
			binary.BigEndian.PutUint64(obj[off:], uint64(a))
		}
	}
	return nil
}

// reserveLarge reserves the access-protected range of slot, a large object of
// the loaded segment ms, and points its DP there; the range of an object the
// slot held before goes. A slot whose descriptor is not inside the segment's
// overflow section is refused: nothing could fetch the object.
func (m *Mapper) reserveLarge(ms *mseg, slot int) error {
	if _, err := ms.seg.Descriptor(slot, segment.LargeDescSize); err != nil {
		return err
	}
	if err := m.releaseLarge(ms, slot); err != nil {
		return err
	}
	n := max(framesFor(int(ms.seg.Slots[slot].Size)), 1)
	base, err := m.space.Reserve(n)
	if err != nil {
		return err
	}
	ms.large[slot], ms.dp[slot] = largeRange{base, n}, base
	for f := 0; f < n; f++ {
		m.byFrame[base.Frame()+int64(f)] = ms
	}
	return nil
}

// releaseLarge gives back the range reserved for slot's large object, mapped
// frames and all, if it has one.
func (m *Mapper) releaseLarge(ms *mseg, slot int) error {
	r, ok := ms.large[slot]
	if !ok {
		return nil
	}
	delete(ms.large, slot)
	for f := 0; f < r.n; f++ {
		delete(m.byFrame, r.base.Frame()+int64(f))
	}
	return m.space.Release(r.base, r.n)
}

// loadLarge populates a transparent large object's reserved range: "the
// actual object data may be fetched from the network in one step" (§2.1).
// The descriptor names the segment whose data section holds the object's
// stored bytes, a copy the mapper keeps like any other; the bytes are checked
// against the descriptor, and the fetch-side hooks (§2.4: decompression) turn
// them back into the object, whose size they must restore.
func (m *Mapper) loadLarge(ms *mseg, slot int) error {
	if _, mapped, _ := m.space.ProtOf(ms.large[slot].base); mapped {
		return nil
	}
	b, err := ms.seg.Descriptor(slot, segment.LargeDescSize)
	if err != nil {
		return err
	}
	d, err := segment.DecodeLargeDesc(b)
	if err != nil {
		return err
	}
	cid := SegID{Area: d.Area, Start: d.Start}
	if err := m.EnsureData(cid); err != nil {
		return err
	}
	stored := m.bySeg[cid].seg.Data
	if int(d.Stored) > len(stored) {
		return segment.ErrOverflowOff
	}
	content := bytes.Clone(stored[:d.Stored]) // the hooks may rewrite it in place
	if err := page.Verify(content, d.CRC, "large", segment.ErrChecksum); err != nil {
		return err
	}
	if err := m.hk.FireData(hooks.EvObjectFetch, ms.id, &content); err != nil {
		return err
	}
	if size := int(ms.seg.Slots[slot].Size); len(content) != size {
		return fmt.Errorf("swizzle: fetch hooks produced %d bytes, object is %d", len(content), size)
	}
	return m.mapLarge(ms, slot, content)
}

// MapLarge reserves the range of slot, a large object just created in the
// loaded segment id, and maps content into it: the creator reads the object
// from its own copy, with no fetch.
func (m *Mapper) MapLarge(id SegID, slot int, content []byte) error {
	ms, ok := m.bySeg[id]
	if !ok || ms.state < stSlotted {
		return ErrUnknownAddr
	}
	if err := m.reserveLarge(ms, slot); err != nil {
		return err
	}
	return m.mapLarge(ms, slot, content)
}

// mapLarge maps content, read-only, into slot's reserved range.
func (m *Mapper) mapLarge(ms *mseg, slot int, content []byte) error {
	base := ms.large[slot].base
	n := framesFor(int(ms.seg.Slots[slot].Size))
	padded := make([]byte, n*page.Size)
	copy(padded, content)
	for i := 0; i < n; i++ {
		if err := m.space.Map(base+vmem.Addr(i*page.Size), padded[i*page.Size:(i+1)*page.Size], vmem.ProtRead); err != nil {
			return err
		}
	}
	return nil
}

// --- Object access ---

// Object is a dereferenced handle: the in-memory face of one object header.
type Object struct {
	m    *Mapper
	ms   *mseg
	Slot int
	Addr vmem.Addr // virtual address of the slot (the reference value)
	DP   vmem.Addr // virtual address of the object's data
	Size int
	Type segment.TypeID
	Kind segment.Kind
}

// Deref resolves a reference (a slot virtual address), triggering waves as
// needed, and returns the object handle. This is the hot path the paper
// optimizes: after the first access it is a map lookup plus two additions.
func (m *Mapper) Deref(ref vmem.Addr) (*Object, error) {
	if ref == vmem.NilAddr {
		return nil, ErrUnknownAddr
	}
	ms, ok := m.byFrame[ref.Frame()]
	if !ok {
		return nil, ErrUnknownAddr
	}
	if !m.inSlottedRange(ms, ref.Frame()) {
		return nil, ErrNotSlotAddr
	}
	if ms.state < stSlotted {
		// Touch the slot address: faults, wave 2 runs.
		if err := m.space.Touch(ref, false); err != nil {
			return nil, err
		}
	}
	rel := uint64(ref - ms.slottedBase)
	slot, err := segment.SlotIndexForOffset(rel)
	if err != nil {
		return nil, ErrNotSlotAddr
	}
	if slot >= len(ms.seg.Slots) || !ms.seg.Live(slot) {
		return nil, segment.ErrBadSlot
	}
	sl := ms.seg.Slots[slot]
	return &Object{
		m: m, ms: ms, Slot: slot, Addr: ref,
		DP:   ms.dp[slot],
		Size: int(sl.Size),
		Type: sl.Type,
		Kind: sl.Kind,
	}, nil
}

// Read copies n bytes at byte offset off of the object into buf, faulting
// the data segment in (wave 3) on first access.
func (o *Object) Read(off int, buf []byte) error {
	if off < 0 || off+len(buf) > o.Size {
		return ErrBadField
	}
	return o.m.space.ReadRange(o.DP+vmem.Addr(off), buf)
}

// Write copies buf into the object at byte offset off, subject to the
// space's write protection: the first write faults and the installed
// update-detection policy decides (grant + record, or deny).
func (o *Object) Write(off int, buf []byte) error {
	if off < 0 || off+len(buf) > o.Size {
		return ErrBadField
	}
	if err := o.m.space.WriteRange(o.DP+vmem.Addr(off), buf); err != nil {
		return err
	}
	o.ms.dirtyData = true
	return nil
}

// Bytes returns the object's bytes in place (trusted; no protection checks).
// The data segment is faulted in if needed.
func (o *Object) Bytes() ([]byte, error) {
	if err := o.m.space.Touch(o.DP, false); err != nil {
		return nil, err
	}
	if o.Kind == segment.KindLarge {
		buf := make([]byte, o.Size)
		if err := o.m.space.ReadRange(o.DP, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	return o.ms.seg.Data[o.ms.seg.Slots[o.Slot].DataOff : o.ms.seg.Slots[o.Slot].DataOff+uint64(o.Size)], nil
}

// RefField returns the swizzled reference stored at field byte offset off.
// Reading it faults the data in; the stored value is a slot virtual address
// ready for another Deref — pointer-chasing is two Derefs and no table
// lookups, the paper's headline property.
func (o *Object) RefField(off int) (vmem.Addr, error) {
	var b [segment.RefSize]byte
	if err := o.Read(off, b[:]); err != nil {
		return vmem.NilAddr, err
	}
	raw := binary.BigEndian.Uint64(b[:])
	if raw != 0 && !IsSwizzled(raw) {
		// Lazily swizzle a field written in persistent form.
		a, err := o.m.SwizzleRef(PRef(raw))
		if err != nil {
			return vmem.NilAddr, err
		}
		return a, nil
	}
	return vmem.Addr(raw), nil
}

// SetRefField stores a reference (slot virtual address) at field offset off.
func (o *Object) SetRefField(off int, target vmem.Addr) error {
	var b [segment.RefSize]byte
	binary.BigEndian.PutUint64(b[:], uint64(target))
	return o.Write(off, b[:])
}

// --- Maintenance: flush, relocation, and release ---

// DirtySegs returns the ids of segments whose data has been written through
// this mapper.
func (m *Mapper) DirtySegs() []SegID {
	var out []SegID
	for id, ms := range m.loaded {
		if ms.dirtyData {
			out = append(out, id)
		}
	}
	return out
}

// UnswizzledData returns the segment's data with every reference field in
// persistent form, ready to be written to disk — nil when the data part is
// not mapped: there is none of it here to write. When no live object's type
// has a reference field there is nothing to convert, and it is the live data
// section itself, lent: the caller reads it and lets go of it before the
// segment next changes (a commit ships it, and proto.Conn's Commit and
// Prepare keep no byte past the call). Otherwise it is a copy, converted.
func (m *Mapper) UnswizzledData(id SegID) ([]byte, error) {
	ms, ok := m.bySeg[id]
	if !ok || ms.state < stDataMapped {
		return nil, nil
	}
	live := ms.seg.LiveSlots()
	if !m.anyRefs(ms.seg, live) {
		return ms.seg.Data, nil
	}
	out := append([]byte(nil), ms.seg.Data...)
	for _, i := range live {
		sl := ms.seg.Slots[i]
		if sl.Kind != segment.KindSmall {
			continue
		}
		td := m.types.Lookup(sl.Type)
		if td == nil {
			continue
		}
		obj := out[sl.DataOff : sl.DataOff+uint64(sl.Size)]
		for _, off := range td.RefOffsets {
			raw := binary.BigEndian.Uint64(obj[off:])
			if !IsSwizzled(raw) {
				continue
			}
			p, err := m.UnswizzleAddr(vmem.Addr(raw))
			if err != nil {
				return nil, err
			}
			binary.BigEndian.PutUint64(obj[off:], uint64(p))
		}
	}
	return out, nil
}

// anyRefs reports whether the type of any small object among live slots of
// seg has a reference field.
func (m *Mapper) anyRefs(seg *segment.Seg, live []int) bool {
	for _, i := range live {
		sl := seg.Slots[i]
		if td := m.types.Lookup(sl.Type); sl.Kind == segment.KindSmall && td != nil && len(td.RefOffsets) > 0 {
			return true
		}
	}
	return false
}

// MarkClean clears the dirty flag after a successful flush.
func (m *Mapper) MarkClean(id SegID) {
	if ms, ok := m.bySeg[id]; ok {
		ms.dirtyData = false
	}
}

// Seg returns the decoded segment for id if its slotted part is loaded.
func (m *Mapper) Seg(id SegID) (*segment.Seg, bool) {
	ms, ok := m.bySeg[id]
	if !ok || ms.state < stSlotted {
		return nil, false
	}
	return ms.seg, true
}

// RelocateData re-homes a loaded segment's data (compaction, resizing, or
// movement between storage areas — §2.1's on-the-fly reorganization). The
// caller has already rewritten seg.Hdr geometry and seg.Data; the mapper
// releases the old reserved range, reserves a new one, re-fixes every DP,
// and remaps. Existing references (slot addresses) remain valid throughout.
func (m *Mapper) RelocateData(id SegID) error {
	ms, ok := m.bySeg[id]
	if !ok || ms.state < stSlotted {
		return ErrUnknownAddr
	}
	// Tear down the old data mapping.
	for i := 0; i < ms.dataPages; i++ {
		delete(m.byFrame, ms.dataBase.Frame()+int64(i))
	}
	if err := m.space.Release(ms.dataBase, ms.dataPages); err != nil {
		return err
	}
	wasMapped := ms.state == stDataMapped
	ms.dataPages = int(ms.seg.Hdr.DataPages)
	if ms.dataPages == 0 {
		ms.dataPages = 1
	}
	base, err := m.space.Reserve(ms.dataPages)
	if err != nil {
		return err
	}
	ms.dataBase = base
	for i := 0; i < ms.dataPages; i++ {
		m.byFrame[base.Frame()+int64(i)] = ms
	}
	for i := range ms.seg.Slots {
		sl := &ms.seg.Slots[i]
		if sl.Kind == segment.KindSmall || sl.Kind == segment.KindForward {
			ms.dp[i] = base + vmem.Addr(sl.DataOff)
			m.stats.DPFixups++
		}
	}
	if wasMapped {
		if len(ms.seg.Data) < ms.dataPages*page.Size {
			grown := make([]byte, ms.dataPages*page.Size)
			copy(grown, ms.seg.Data)
			ms.seg.Data = grown
		}
		for i := 0; i < ms.dataPages; i++ {
			fr := ms.seg.Data[i*page.Size : (i+1)*page.Size]
			if err := m.space.Map(base+vmem.Addr(i*page.Size), fr, vmem.ProtRead); err != nil {
				return err
			}
		}
		ms.state = stDataMapped
	} else {
		ms.state = stSlotted
	}
	return nil
}

// TrustedSlotUpdate performs a trusted modification of the write-protected
// slotted image: it unprotects the affected pages, applies fn to the decoded
// segment — whose slot mutators write each changed slot into the image, which
// the pages alias — brings the image's header and checksums up to date, and
// reprotects (paper §2.2). The protect / unprotect pair is what E7 counts.
func (m *Mapper) TrustedSlotUpdate(id SegID, fn func(*segment.Seg) error) error {
	ms, ok := m.bySeg[id]
	if !ok || ms.state < stSlotted {
		return ErrUnknownAddr
	}
	if err := m.space.Protect(ms.slottedBase, ms.slottedPages, vmem.ProtReadWrite); err != nil {
		return err
	}
	ferr := fn(ms.seg)
	if ferr == nil {
		m.refreshSlotted(ms)
		// A large object the update deleted gives its range back.
		for slot := range ms.large {
			if slot >= len(ms.seg.Slots) || ms.seg.Slots[slot].Kind != segment.KindLarge {
				ferr = errors.Join(ferr, m.releaseLarge(ms, slot))
			}
		}
	}
	if err := m.space.Protect(ms.slottedBase, ms.slottedPages, vmem.ProtRead); err != nil {
		return err
	}
	return ferr
}

// refreshSlotted brings the mapped slotted image and the DPs in line with the
// decoded segment after a trusted update. It runs once per object created: the
// slots are in the image already, so the image costs its header and the two
// checksums of the slotted pages — the section checksums are not this image's
// business (EncodeSlots): an object created in a full-size segment must not
// cost a CRC of the whole data section. Nor must it cost every slot's DP: it
// re-fixes those of the slots that changed since the last refresh
// (segment.Seg.ChangedSlots), and an invariants build checks every DP
// against a full recompute.
//
// TestRefreshSlottedAllocs pins its allocation budget.
func (m *Mapper) refreshSlotted(ms *mseg) {
	ms.seg.EncodeSlots()
	// Re-fix the DPs: the update may have created, moved, or resized
	// objects (two arithmetic operations per slot, as at load).
	lo, hi := ms.seg.ChangedSlots()
	for i := lo; i < hi; i++ {
		sl := &ms.seg.Slots[i]
		if sl.Kind == segment.KindSmall || sl.Kind == segment.KindForward {
			ms.dp[i] = ms.dataBase + vmem.Addr(sl.DataOff)
			m.stats.DPFixups++
		}
	}
	if lockcheck.Enabled {
		for i := range ms.seg.Slots {
			sl := &ms.seg.Slots[i]
			if (sl.Kind == segment.KindSmall || sl.Kind == segment.KindForward) && ms.dp[i] != ms.dataBase+vmem.Addr(sl.DataOff) {
				panic(fmt.Sprintf("swizzle: slot %d's DP is stale after a trusted update", i))
			}
		}
	}
}

// EnsureLoaded forces wave 2 for id (reserve + fetch slotted) without
// dereferencing any particular object.
func (m *Mapper) EnsureLoaded(id SegID) error {
	ms, err := m.ReserveSeg(id)
	if err != nil {
		return err
	}
	if ms.state >= stSlotted {
		return nil
	}
	return m.loadSlotted(ms)
}

// EnsureData forces wave 3 for id (fetch + swizzle the data segment).
func (m *Mapper) EnsureData(id SegID) error {
	if err := m.EnsureLoaded(id); err != nil {
		return err
	}
	ms := m.bySeg[id]
	if ms.state >= stDataMapped {
		return nil
	}
	return m.loadData(ms)
}

// MarkDataDirty flags id's data as modified through a trusted path (object
// creation writes via the decoded segment, not the protected space).
func (m *Mapper) MarkDataDirty(id SegID) {
	if ms, ok := m.bySeg[id]; ok {
		ms.dirtyData = true
	}
}

// WriteData writes buf over the start of id's mapped data section through the
// space, as Object.Write writes an object: subject to its write protection,
// so the first write of each page faults and the installed update-detection
// policy decides. It marks the data dirty.
func (m *Mapper) WriteData(id SegID, buf []byte) error {
	ms, ok := m.bySeg[id]
	if !ok || ms.state < stDataMapped {
		return ErrUnknownAddr
	}
	if len(buf) > ms.dataPages*page.Size {
		return fmt.Errorf("%w: %d bytes over a data section of %d pages", ErrBadField, len(buf), ms.dataPages)
	}
	if err := m.space.WriteRange(ms.dataBase, buf); err != nil {
		return err
	}
	ms.dirtyData = true
	return nil
}

// DropSeg gives up the cached copy of a segment and returns it to wave 1, as
// the paper has it: the slotted pages are unmapped and the data and
// large-object ranges released, but the slotted reservation stays (a slotted
// run is never resized, and a reserved frame costs one map entry). An address
// another cached segment holds swizzled into it is therefore still a reserved
// address: it unswizzles, and following it faults the segment back in.
// Callback revocation uses this to drop a cached copy.
func (m *Mapper) DropSeg(id SegID) error {
	ms, ok := m.bySeg[id]
	if !ok || ms.state < stSlotted {
		return nil
	}
	return m.unload(ms)
}

// unload returns ms to wave 1 from wave 2 or 3, or from whatever part of
// wave 2 a failed load got through: the slotted pages unmapped, the data and
// large-object ranges released, the slotted reservation kept.
func (m *Mapper) unload(ms *mseg) error {
	for i := 0; i < ms.slottedPages; i++ {
		if err := m.space.Unmap(ms.slottedBase + vmem.Addr(i*page.Size)); err != nil {
			return err
		}
	}
	release := func(base vmem.Addr, n int) error {
		for i := 0; i < n; i++ {
			delete(m.byFrame, base.Frame()+int64(i))
		}
		return m.space.Release(base, n)
	}
	if ms.dataBase != vmem.NilAddr {
		if err := release(ms.dataBase, ms.dataPages); err != nil {
			return err
		}
	}
	for _, r := range ms.large {
		if err := release(r.base, r.n); err != nil {
			return err
		}
	}
	*ms = mseg{id: ms.id, state: stReserved, slottedBase: ms.slottedBase, slottedPages: ms.slottedPages}
	delete(m.loaded, ms.id)
	return nil
}

// CachedSegs lists the segments this mapper holds a copy of: slotted part
// loaded, at least. A bare reservation is not a copy.
func (m *Mapper) CachedSegs() []SegID {
	out := make([]SegID, 0, len(m.loaded))
	for id := range m.loaded {
		out = append(out, id)
	}
	return out
}

// DataRange describes one segment's mapped data range.
type DataRange struct {
	ID    SegID
	Base  vmem.Addr
	Pages int
}

// MappedDataRanges lists the data ranges currently mapped (wave 3 done);
// the detect layer walks them to re-protect pages between transactions.
func (m *Mapper) MappedDataRanges() []DataRange {
	var out []DataRange
	for id, ms := range m.loaded {
		if ms.state == stDataMapped {
			out = append(out, DataRange{ID: id, Base: ms.dataBase, Pages: ms.dataPages})
		}
	}
	return out
}
