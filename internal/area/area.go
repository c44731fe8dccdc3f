// Package area implements BeSS storage areas (paper §2).
//
// At the physical level a database consists of storage areas, which are UNIX
// files (or, here, in-memory buffers for tests). An area is partitioned into
// extents of page.PerExtent pages; disk segments are allocated from an extent
// with the binary buddy system, and file-backed areas expand one extent at a
// time when full.
//
// On-disk layout:
//
//	page 0                      area header
//	pages 1+e*PerExtent ...     extent e; its first page is the extent map
//
// The extent map records the live (offset, order) buddy allocations so the
// allocator state survives restarts; it is written through on every
// allocation change but a reservation's (Reserve), which is taken in memory
// only until Publish enters it.
package area

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"

	"bess/internal/buddy"
	"bess/internal/page"
)

// MaxSegmentPages is the largest segment one AllocSegment call can grant:
// half an extent (the first buddy block of each extent is reserved for the
// extent map, so a full-extent block never exists).
const MaxSegmentPages = page.PerExtent / 2

// Errors returned by the area layer.
var (
	ErrBadMagic    = errors.New("area: bad magic (not a BeSS storage area)")
	ErrBadGeometry = errors.New("area: page geometry mismatch")
	ErrOutOfRange  = errors.New("area: page out of range")
	ErrTooLarge    = errors.New("area: segment larger than MaxSegmentPages")
	ErrNoSpace     = errors.New("area: no space and area is not growable")
	ErrNotSegment  = errors.New("area: page is not the start of a live segment")
	ErrClosed      = errors.New("area: closed")
)

const (
	headerMagic = 0xBE550A12
	extentMagic = 0xBE55E271
	version     = 1
)

// Store abstracts the backing bytes of an area. Production areas run on
// the file/mem implementations below; the fault-injection layer
// (internal/fault) substitutes a medium that can lose power mid-write.
type Store interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Size() (int64, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

// fileStore backs an area with an *os.File.
type fileStore struct{ f *os.File }

func (s fileStore) ReadAt(p []byte, off int64) (int, error)  { return s.f.ReadAt(p, off) }
func (s fileStore) WriteAt(p []byte, off int64) (int, error) { return s.f.WriteAt(p, off) }
func (s fileStore) Size() (int64, error) {
	fi, err := s.f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}
func (s fileStore) Truncate(size int64) error { return s.f.Truncate(size) }
func (s fileStore) Sync() error               { return s.f.Sync() }
func (s fileStore) Close() error              { return s.f.Close() }

// hintEvery is how many bytes an area writes between two writeback hints: one
// log buffer (wal.BufSize). A commit's write-back then reaches the device
// while the next commits are logged, and the checkpoint's Sync finds little
// left to write. A hint is only a hint: durability comes from Sync alone.
const hintEvery = 4 << 20

// memStore backs an area with a growable byte slice.
type memStore struct {
	mu  sync.RWMutex
	buf []byte
}

func (s *memStore) ReadAt(p []byte, off int64) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if off >= int64(len(s.buf)) {
		return 0, fmt.Errorf("memstore: read at %d beyond size %d", off, len(s.buf))
	}
	n := copy(p, s.buf[off:])
	if n < len(p) {
		return n, fmt.Errorf("memstore: short read")
	}
	return n, nil
}

func (s *memStore) WriteAt(p []byte, off int64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	end := off + int64(len(p))
	if end > int64(len(s.buf)) {
		grown := make([]byte, end)
		copy(grown, s.buf)
		s.buf = grown
	}
	copy(s.buf[off:end], p)
	return len(p), nil
}

func (s *memStore) Size() (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return int64(len(s.buf)), nil
}

func (s *memStore) Truncate(size int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if size <= int64(len(s.buf)) {
		s.buf = s.buf[:size]
		return nil
	}
	grown := make([]byte, size)
	copy(grown, s.buf)
	s.buf = grown
	return nil
}

func (s *memStore) Sync() error  { return nil }
func (s *memStore) Close() error { return nil }

// Area is one storage area: a paged file with buddy-allocated segments.
// All methods are safe for concurrent use.
type Area struct {
	mu       sync.Mutex
	st       Store
	id       page.AreaID
	extents  []*buddy.Allocator // one per extent
	reserved map[page.No]bool   // runs allocated in memory only, by start
	growable bool
	closed   bool

	// The bytes written since the last hint or Sync, and the range they lie
	// in (noteWritten).
	unhinted, hintLo, hintHi int64

	stats Stats
}

// Stats are an area's cumulative counters.
type Stats struct {
	Reads, Writes int64 // pages read and written
	WriteCalls    int64 // store writes: one per WriteRun or WritePage
	Grows         int64 // extents added
	Hints         int64 // writeback hints (hintEvery), on any store
}

// CreateFile creates a new file-backed area at path with initialExtents
// extents (at least 1). The file must not already exist.
func CreateFile(path string, id page.AreaID, initialExtents int) (*Area, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("area: create %s: %w", path, err)
	}
	a, err := initArea(fileStore{f}, id, initialExtents, true)
	if err != nil {
		if cerr := f.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		os.Remove(path)
		return nil, err
	}
	return a, nil
}

// OpenFile opens an existing file-backed area, rebuilding allocator state
// from the persisted extent maps.
func OpenFile(path string) (*Area, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("area: open %s: %w", path, err)
	}
	a, err := loadArea(fileStore{f}, true)
	if err != nil {
		// Keep err intact when the cleanup Close succeeds so callers can
		// still compare against sentinels like ErrBadMagic.
		if cerr := f.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return nil, err
	}
	return a, nil
}

// NewMem creates an in-memory area with the given number of extents.
// Growable memory areas expand like file areas; non-growable ones model raw
// disk partitions, whose size is fixed (paper §2).
func NewMem(id page.AreaID, extents int, growable bool) (*Area, error) {
	return initArea(&memStore{}, id, extents, growable)
}

// Create initializes a brand-new area on st — the custom-media entry point
// (fault injection, exotic backends). CreateFile/NewMem are conveniences
// over the same path.
func Create(st Store, id page.AreaID, initialExtents int, growable bool) (*Area, error) {
	return initArea(st, id, initialExtents, growable)
}

// Load opens an existing area image on st, rebuilding allocator state from
// the persisted extent maps.
func Load(st Store, growable bool) (*Area, error) {
	return loadArea(st, growable)
}

func initArea(st Store, id page.AreaID, initialExtents int, growable bool) (*Area, error) {
	if initialExtents < 1 {
		initialExtents = 1
	}
	a := &Area{st: st, id: id, growable: growable}
	if err := a.writeHeader(initialExtents); err != nil {
		return nil, err
	}
	for e := 0; e < initialExtents; e++ {
		if err := a.addExtentLocked(); err != nil {
			return nil, err
		}
	}
	// addExtentLocked rewrote the header per extent; make count authoritative.
	if err := a.writeHeader(len(a.extents)); err != nil {
		return nil, err
	}
	return a, nil
}

func loadArea(st Store, growable bool) (*Area, error) {
	a := &Area{st: st, growable: growable}
	hdr := make([]byte, page.Size)
	if _, err := st.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("area: read header: %w", err)
	}
	if binary.BigEndian.Uint32(hdr[0:4]) != headerMagic {
		return nil, ErrBadMagic
	}
	if binary.BigEndian.Uint16(hdr[4:6]) != version {
		return nil, fmt.Errorf("area: unsupported version %d", binary.BigEndian.Uint16(hdr[4:6]))
	}
	a.id = page.AreaID(binary.BigEndian.Uint32(hdr[6:10]))
	if binary.BigEndian.Uint32(hdr[10:14]) != page.Size ||
		binary.BigEndian.Uint32(hdr[14:18]) != page.PerExtent {
		return nil, ErrBadGeometry
	}
	n := int(binary.BigEndian.Uint32(hdr[18:22]))
	for e := 0; e < n; e++ {
		alloc, err := a.loadExtent(e)
		if err != nil {
			return nil, err
		}
		a.extents = append(a.extents, alloc)
	}
	return a, nil
}

func (a *Area) writeHeader(extents int) error {
	hdr := make([]byte, page.Size)
	binary.BigEndian.PutUint32(hdr[0:4], headerMagic)
	binary.BigEndian.PutUint16(hdr[4:6], version)
	binary.BigEndian.PutUint32(hdr[6:10], uint32(a.id))
	binary.BigEndian.PutUint32(hdr[10:14], page.Size)
	binary.BigEndian.PutUint32(hdr[14:18], page.PerExtent)
	binary.BigEndian.PutUint32(hdr[18:22], uint32(extents))
	_, err := a.st.WriteAt(hdr, 0)
	return err
}

// extentOrder is log2(page.PerExtent).
func extentOrder() int {
	k, _ := buddy.OrderFor(page.PerExtent)
	return k
}

// extentStart returns the absolute page number of extent e's first page.
func extentStart(e int) page.No { return page.No(1 + e*page.PerExtent) }

// addExtentLocked appends a fresh extent, reserving its map page.
func (a *Area) addExtentLocked() error {
	alloc, err := buddy.New(extentOrder())
	if err != nil {
		return err
	}
	// Reserve offset 0 for the extent map page.
	if _, _, err := alloc.AllocOrder(0); err != nil {
		return err
	}
	e := len(a.extents)
	a.extents = append(a.extents, alloc)
	// Extend the backing store to cover the new extent and persist its map.
	end := int64(extentStart(e+1)-page.PerExtent) * page.Size // start of extent e
	end += int64(page.PerExtent) * page.Size
	if err := a.st.Truncate(end); err != nil {
		a.extents = a.extents[:e]
		return err
	}
	if err := a.persistExtent(e); err != nil {
		a.extents = a.extents[:e]
		return err
	}
	a.stats.Grows++
	return a.writeHeader(len(a.extents))
}

// persistExtent writes extent e's allocation map to its map page.
// The map records (offset, order) for every live allocation except the
// reserved map page itself.
func (a *Area) persistExtent(e int) error {
	alloc := a.extents[e]
	buf := make([]byte, page.Size)
	binary.BigEndian.PutUint32(buf[0:4], extentMagic)
	count := 0
	pos := 8
	for off := int64(1); off < int64(page.PerExtent); off++ {
		if sz, ok := alloc.BlockSize(off); ok && !a.reserved[extentStart(e)+page.No(off)] {
			k, _ := buddy.OrderFor(sz)
			buf[pos] = byte(off)
			buf[pos+1] = byte(k)
			pos += 2
			count++
		}
	}
	binary.BigEndian.PutUint16(buf[4:6], uint16(count))
	_, err := a.st.WriteAt(buf, int64(extentStart(e))*page.Size)
	return err
}

// loadExtent rebuilds extent e's allocator from its persisted map page.
func (a *Area) loadExtent(e int) (*buddy.Allocator, error) {
	buf := make([]byte, page.Size)
	if _, err := a.st.ReadAt(buf, int64(extentStart(e))*page.Size); err != nil {
		return nil, fmt.Errorf("area: read extent %d map: %w", e, err)
	}
	if binary.BigEndian.Uint32(buf[0:4]) != extentMagic {
		return nil, fmt.Errorf("area: extent %d: %w", e, ErrBadMagic)
	}
	alloc, err := buddy.New(extentOrder())
	if err != nil {
		return nil, err
	}
	if _, _, err := alloc.AllocOrder(0); err != nil {
		return nil, err
	}
	count := int(binary.BigEndian.Uint16(buf[4:6]))
	pos := 8
	for i := 0; i < count; i++ {
		off := int64(buf[pos])
		k := int(buf[pos+1])
		pos += 2
		if err := placeAt(alloc, off, k); err != nil {
			return nil, fmt.Errorf("area: extent %d: rebuild alloc at %d order %d: %w", e, off, k, err)
		}
	}
	return alloc, nil
}

// placeAt forces an allocation of order k at offset off by repeatedly
// allocating blocks of that order until the desired one is produced, then
// freeing the extras. The buddy allocator has at most PerExtent blocks, so
// this terminates quickly; it only runs when restart rebuilds an extent map or
// re-establishes a logged allocation (EnsureSegment). A block that is not
// free as a whole fails with the allocator's ErrNoSpace, everything restored.
func placeAt(alloc *buddy.Allocator, off int64, k int) error {
	var extras []int64
	defer func() {
		for _, x := range extras {
			_ = alloc.Free(x)
		}
	}()
	for {
		got, _, err := alloc.AllocOrder(k)
		if err != nil {
			return err
		}
		if got == off {
			return nil
		}
		extras = append(extras, got)
	}
}

// ID returns the area's identifier.
func (a *Area) ID() page.AreaID { return a.id }

// Extents returns the current number of extents.
func (a *Area) Extents() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.extents)
}

// Pages returns the total number of pages (header + extents).
func (a *Area) Pages() page.No {
	a.mu.Lock()
	defer a.mu.Unlock()
	return extentStart(len(a.extents))
}

// ReadPage reads page p into buf, which must be page.Size bytes.
func (a *Area) ReadPage(p page.No, buf []byte) error {
	if len(buf) != page.Size {
		return fmt.Errorf("area: ReadPage buffer is %d bytes, want %d", len(buf), page.Size)
	}
	return a.ReadRun(p, buf)
}

// ReadRun reads the len(buf)/page.Size contiguous pages starting at start
// into buf: one latch, one bounds check, one store read. Segments are
// contiguous (paper §2), so a slotted, overflow, data, or large-object run
// moves as one unit; a run can never be longer than the largest segment.
// Stats counts it as one read per page.
func (a *Area) ReadRun(start page.No, buf []byte) error {
	n, err := runPages(len(buf))
	if err != nil {
		return err
	}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return ErrClosed
	}
	limit := extentStart(len(a.extents))
	a.stats.Reads += int64(n)
	a.mu.Unlock()
	if start < 0 || start > limit-page.No(n) {
		return ErrOutOfRange
	}
	_, err = a.st.ReadAt(buf, int64(start)*page.Size)
	return err
}

// WritePage writes data (page.Size bytes) to page p.
func (a *Area) WritePage(p page.No, data []byte) error {
	if len(data) != page.Size {
		return fmt.Errorf("area: WritePage buffer is %d bytes, want %d", len(data), page.Size)
	}
	return a.WriteRun(p, data)
}

// WriteRun writes data over the len(data)/page.Size contiguous pages starting
// at start — ReadRun's twin: one latch, one bounds check, one store write.
// Stats counts it as one write call and one write per page.
func (a *Area) WriteRun(start page.No, data []byte) error {
	n, err := runPages(len(data))
	if err != nil {
		return err
	}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return ErrClosed
	}
	limit := extentStart(len(a.extents))
	a.stats.Writes += int64(n)
	a.stats.WriteCalls++
	a.mu.Unlock()
	if start < 0 || start > limit-page.No(n) {
		return ErrOutOfRange
	}
	off := int64(start) * page.Size
	if _, err = a.st.WriteAt(data, off); err != nil {
		return err
	}
	a.noteWritten(off, int64(len(data)))
	return nil
}

// noteWritten counts n bytes written at off. Once hintEvery bytes are written
// since the last hint or Sync, it asks the kernel to start writing the range
// they lie in back, if the store is a file (startWriteback: Linux's
// sync_file_range; nothing elsewhere).
func (a *Area) noteWritten(off, n int64) {
	a.mu.Lock()
	if a.unhinted == 0 {
		a.hintLo, a.hintHi = off, off+n
	} else {
		a.hintLo, a.hintHi = min(a.hintLo, off), max(a.hintHi, off+n)
	}
	if a.unhinted += n; a.unhinted < hintEvery {
		a.mu.Unlock()
		return
	}
	lo, hi := a.hintLo, a.hintHi
	a.unhinted = 0
	a.stats.Hints++
	a.mu.Unlock()
	if fs, ok := a.st.(fileStore); ok {
		// A hint that fails starts nothing: the next Sync writes it all.
		_ = startWriteback(fs.f, lo, hi-lo)
	}
}

// runPages is the page count of a run buffer of n bytes: a whole number of
// pages, at least one, at most the largest segment.
func runPages(n int) (int, error) {
	if n == 0 || n%page.Size != 0 {
		return 0, fmt.Errorf("area: run buffer is %d bytes, want a positive multiple of %d", n, page.Size)
	}
	if n/page.Size > MaxSegmentPages {
		return 0, ErrTooLarge
	}
	return n / page.Size, nil
}

// AllocSegment allocates a disk segment of at least nPages contiguous pages,
// growing the area by one extent at a time if needed and permitted, and
// enters it in its extent map: a reservation published at once. It returns
// the absolute start page and the granted page count.
func (a *Area) AllocSegment(nPages int) (page.No, int, error) {
	start, granted, err := a.Reserve(nPages)
	if err != nil {
		return 0, 0, err
	}
	if err := a.Publish(start); err != nil {
		return 0, 0, errors.Join(err, a.FreeSegment(start))
	}
	return start, granted, nil
}

// Reserve allocates a run of at least nPages contiguous pages, growing the
// area by one extent at a time if needed and permitted, in memory only: no
// extent map names it until Publish, so a restart finds it free, and
// FreeSegment gives it back without a write. It returns the absolute start
// page and the granted page count.
func (a *Area) Reserve(nPages int) (page.No, int, error) {
	if nPages <= 0 {
		return 0, 0, buddy.ErrBadRequest
	}
	if nPages > MaxSegmentPages {
		return 0, 0, ErrTooLarge
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return 0, 0, ErrClosed
	}
	for {
		for e, alloc := range a.extents {
			if off, granted, err := alloc.Alloc(int64(nPages)); err == nil {
				start := extentStart(e) + page.No(off)
				if a.reserved == nil {
					a.reserved = make(map[page.No]bool)
				}
				a.reserved[start] = true
				return start, int(granted), nil
			}
		}
		if !a.growable {
			return 0, 0, ErrNoSpace
		}
		if err := a.addExtentLocked(); err != nil {
			return 0, 0, err
		}
	}
}

// Publish enters the reserved runs at starts in their extent maps, writing
// each map once. A start that is not reserved is ErrNotSegment, and nothing
// is published.
func (a *Area) Publish(starts ...page.No) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return ErrClosed
	}
	for _, start := range starts {
		if !a.reserved[start] {
			return ErrNotSegment
		}
	}
	var touched []int
	for _, start := range starts {
		delete(a.reserved, start)
		if e := int((start - 1) / page.PerExtent); !slices.Contains(touched, e) {
			touched = append(touched, e)
		}
	}
	for _, e := range touched {
		if err := a.persistExtent(e); err != nil {
			return err
		}
	}
	return nil
}

// FreeSegment releases the segment starting at absolute page start — a
// reservation, which no extent map names, without a write.
func (a *Area) FreeSegment(start page.No) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return ErrClosed
	}
	e, off, err := a.locate(start)
	if err != nil {
		return err
	}
	if err := a.extents[e].Free(off); err != nil {
		return ErrNotSegment
	}
	if a.reserved[start] {
		delete(a.reserved, start)
		return nil
	}
	return a.persistExtent(e)
}

// EnsureSegment makes the block AllocSegment(nPages) granted at start a live
// segment, whatever the extent map on disk says: restart calls it for every
// allocation a replayed catalog record names, because the map page written at
// allocation time may not have survived the crash. It is idempotent — a block
// already live at that size is left alone — and grows the area to reach an
// extent the crash lost. A block that overlaps a different live allocation is
// an error: the log and the extent map disagree.
func (a *Area) EnsureSegment(start page.No, nPages int) error {
	if nPages > MaxSegmentPages {
		return ErrTooLarge
	}
	k, err := buddy.OrderFor(int64(nPages))
	if err != nil {
		return err
	}
	if start < 1 {
		return ErrOutOfRange
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return ErrClosed
	}
	e := int((start - 1) / page.PerExtent)
	for e >= len(a.extents) {
		if !a.growable {
			return ErrOutOfRange
		}
		if err := a.addExtentLocked(); err != nil {
			return err
		}
	}
	off := int64(start - extentStart(e))
	if sz, live := a.extents[e].BlockSize(off); live {
		if sz == int64(1)<<uint(k) {
			return nil
		}
		return fmt.Errorf("area: ensure segment at page %d order %d: a block of %d pages is live there", start, k, sz)
	}
	if err := placeAt(a.extents[e], off, k); err != nil {
		return fmt.Errorf("area: ensure segment at page %d order %d: %w", start, k, err)
	}
	return a.persistExtent(e)
}

func (a *Area) locate(p page.No) (extent int, offset int64, err error) {
	if p < 1 {
		return 0, 0, ErrOutOfRange
	}
	e := int((p - 1) / page.PerExtent)
	if e >= len(a.extents) {
		return 0, 0, ErrOutOfRange
	}
	return e, int64(p - extentStart(e)), nil
}

// Stats reports the area's cumulative counters.
func (a *Area) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// FreePages returns the number of allocatable pages currently free.
func (a *Area) FreePages() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var n int64
	for _, alloc := range a.extents {
		n += alloc.FreeUnits()
	}
	return n
}

// Empty reports whether nothing is allocated in the area: every page of
// every extent but its map page is free.
func (a *Area) Empty() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, alloc := range a.extents {
		if alloc.FreeUnits() != page.PerExtent-1 {
			return false
		}
	}
	return true
}

// Sync flushes the backing store. What it finds unwritten, it writes: the
// count toward the next writeback hint starts again.
func (a *Area) Sync() error {
	a.mu.Lock()
	a.unhinted = 0
	a.mu.Unlock()
	return a.st.Sync()
}

// Close syncs and closes the area. Further operations fail with ErrClosed.
func (a *Area) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	a.mu.Unlock()
	// Report the sync failure even when the close also fails: losing the
	// sync error would hide that buffered pages may not have hit the disk.
	if err := a.st.Sync(); err != nil {
		if cerr := a.st.Close(); cerr != nil {
			return errors.Join(err, cerr)
		}
		return err
	}
	return a.st.Close()
}
