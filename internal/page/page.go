// Package page defines the fixed page geometry shared by all BeSS storage
// layers, page identifiers, and small helpers (checksums, LSN slots) used by
// the segment and WAL layers.
//
// BeSS views every storage area as an array of fixed-size pages; the cache
// established by a node server is "a contiguous sequence of equal length
// frames, and the size of each frame is equal to the page size" (paper §4).
package page

import (
	"fmt"
	"hash/crc32"
)

// Size is the BeSS page size in bytes. All caches, virtual frames, and
// buffer-pool frames use this unit.
const Size = 4096

// PerExtent is the number of pages in one storage-area extent. Storage areas
// grow one extent at a time (paper §2). Must be a power of two so extents can
// be carved with the binary buddy system.
const PerExtent = 256

// AreaID identifies a storage area within a server.
type AreaID uint32

// No is a page number within a storage area (0-based, absolute).
type No int64

// ID names a page globally within one server: (area, page number).
type ID struct {
	Area AreaID
	Page No
}

// String renders the page ID as area:page.
func (id ID) String() string { return fmt.Sprintf("%d:%d", id.Area, id.Page) }

// Less orders IDs by (area, page).
func (id ID) Less(other ID) bool {
	if id.Area != other.Area {
		return id.Area < other.Area
	}
	return id.Page < other.Page
}

// castagnoli is the CRC-32C table used for page and log checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum computes the CRC-32C of b.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// ChecksumUpdate extends crc with b (incremental Checksum over
// discontiguous regions).
func ChecksumUpdate(crc uint32, b []byte) uint32 { return crc32.Update(crc, castagnoli, b) }

// CorruptError reports a checksum mismatch with enough identity to locate
// the bad bytes on media: which section of which object failed, the byte
// offset of the verified region, and both checksums. It wraps the sentinel
// err (segment.ErrChecksum, wal.ErrCorrupt, ...) so errors.Is keeps working.
type CorruptError struct {
	Section string // "slotted", "data", "overflow", "large", "wal", "frame"
	Area    AreaID // 0 when the region is not area-addressed
	Page    No     // first page of the damaged region (area-addressed only)
	Off     int64  // byte offset of the verified region within its container
	Len     int    // length of the verified region
	Want    uint32 // stored checksum
	Got     uint32 // recomputed checksum
	Err     error  // wrapped sentinel
}

func (e *CorruptError) Error() string {
	if e.Area != 0 || e.Page != 0 {
		return fmt.Sprintf("%v: %s section at %d:%d off=%d len=%d crc=%08x want %08x",
			e.Err, e.Section, e.Area, e.Page, e.Off, e.Len, e.Got, e.Want)
	}
	return fmt.Sprintf("%v: %s section off=%d len=%d crc=%08x want %08x",
		e.Err, e.Section, e.Off, e.Len, e.Got, e.Want)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// Verify recomputes the CRC-32C of b and checks it against want, returning
// a *CorruptError wrapping sentinel on mismatch. The zero checksum is not
// special: callers gate verification on their own "checksummed" flag.
func Verify(b []byte, want uint32, section string, sentinel error) error {
	if got := Checksum(b); got != want {
		return &CorruptError{Section: section, Len: len(b), Want: want, Got: got, Err: sentinel}
	}
	return nil
}

// LSN is a log sequence number: a byte offset into the write-ahead log.
// LSN 0 means "never logged".
type LSN uint64
