package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"bess/internal/oid"
)

// The wire codec.
//
// Every message — the args and reply of each rpc method, SegImage, the scan
// stream frames, the server catalog — describes its layout exactly once, as
// a Fields method that hands each field to a Cursor in wire order. The same
// method drives sizing, encoding and decoding, so field count, order and
// width cannot disagree between the two ends.
//
// The format is big-endian and fixed-width; variable parts carry a u32
// length or count that is checked against the remaining input before
// anything is allocated, so a corrupt prefix cannot drive a huge
// allocation. A message is exactly its fields: trailing bytes are an error,
// and a successful decode always re-encodes to the identical bytes (the
// encoding is canonical). Byte fields have one ownership rule: a decoded
// Section or Rest is a view of the input, not a copy — decoding hands the
// input over (rpc allocates a body per frame and never reuses it) — and a
// view's capacity ends with its bytes, so appending to one field reallocates
// instead of reaching the next.

// ErrBadMessage reports bytes that are not a valid encoding of the message
// they were decoded as, or a value its wire width cannot carry.
var ErrBadMessage = errors.New("proto: bad message encoding")

// Message is anything with a wire layout.
type Message interface {
	// Fields passes every field to c, in wire order.
	Fields(c *Cursor)
}

// Cursor walks one message's fields. The first error sticks: later fields
// are skipped and Encode/Decode report it. Only a decoding cursor stores
// through the pointers it is handed: sizing and encoding read the message
// and nothing else, so a message may be encoded while other goroutines read
// it.
type Cursor struct {
	buf  []byte // encoding: the output so far; decoding: the whole input
	off  int    // decoding: read position
	end  int    // decoding: end of the innermost open frame
	n    int    // sizing: bytes counted
	mode uint8
	err  error
}

const (
	encoding uint8 = iota // the zero Cursor appends to buf
	decoding
	sizing
)

func decoder(b []byte) Cursor { return Cursor{buf: b, end: len(b), mode: decoding} }

// finish ends a decode: the input must be used up.
func (c *Cursor) finish() error {
	if c.err == nil && c.off != c.end {
		c.Failf("%d trailing bytes", c.end-c.off)
	}
	return c.err
}

// Failf fails the walk with ErrBadMessage. Fields methods use it for a
// constraint the primitives cannot see, such as a magic number.
func (c *Cursor) Failf(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: "+format, append([]any{ErrBadMessage}, args...)...)
	}
}

// cursors recycles the cursors that reach Fields through the Message
// interface: the call makes the cursor escape, and a heap cursor per encode
// and decode would be the codec's only allocation besides its results.
var cursors = sync.Pool{New: func() any { return new(Cursor) }}

// walk runs m's fields over a pooled cursor starting as init and returns
// the cursor's final state.
func walk(init Cursor, m Message) Cursor {
	c := cursors.Get().(*Cursor)
	*c = init
	m.Fields(c)
	out := *c
	*c = Cursor{}
	cursors.Put(c)
	return out
}

// Encode returns the encoding of m in a fresh, exactly sized buffer — except
// that a Bytes body, being its own encoding, is returned as is, not copied.
func Encode(m Message) ([]byte, error) {
	if raw, ok := m.(*Bytes); ok {
		return raw.Data, nil
	}
	size := walk(Cursor{mode: sizing}, m).n
	c := walk(Cursor{buf: make([]byte, 0, size)}, m)
	return c.buf, c.err
}

// Decode parses b, which must be exactly one encoding of m, into m.
func Decode(b []byte, m Message) error {
	c := walk(decoder(b), m)
	return c.finish()
}

// take returns the next n input bytes, or fails the decode if fewer remain.
//
// TestDecodeSegImageAllocs pins its allocation budget.
func (c *Cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if c.end-c.off < n {
		c.truncated(n)
		return nil
	}
	c.off += n
	return c.buf[c.off-n : c.off : c.off]
}

func (c *Cursor) truncated(n int) {
	c.Failf("truncated: need %d bytes, %d remain", n, c.end-c.off)
}

// run carries a run of raw bytes: src is appended when encoding; the next n
// input bytes are returned when decoding.
//
// TestAppendSegImageAllocs and TestDecodeSegImageAllocs pin its allocation budget.
func run[S string | []byte](c *Cursor, src S, n int) []byte {
	switch {
	case c.mode == decoding:
		return c.take(n)
	case c.err != nil:
	case c.mode == sizing:
		c.n += len(src)
	default:
		c.buf = append(c.buf, src...)
	}
	return nil
}

// word carries an unsigned integer as n big-endian bytes.
//
// TestAppendSegImageAllocs and TestDecodeSegImageAllocs pin its allocation budget.
func word[T uint8 | uint16 | uint32 | uint64](c *Cursor, v *T, n int) {
	var w [8]byte
	switch {
	case c.err != nil:
	case c.mode == sizing:
		c.n += n
	case c.mode == encoding:
		binary.BigEndian.PutUint64(w[:], uint64(*v))
		c.buf = append(c.buf, w[8-n:]...)
	default:
		if b := c.take(n); b != nil {
			copy(w[8-n:], b)
			*v = T(binary.BigEndian.Uint64(w[:]))
		}
	}
}

// U8, U16, U32 and U64 carry an unsigned integer at its own width.
func (c *Cursor) U8(v *uint8)   { word(c, v, 1) }
func (c *Cursor) U16(v *uint16) { word(c, v, 2) }
func (c *Cursor) U32(v *uint32) { word(c, v, 4) }
func (c *Cursor) U64(v *uint64) { word(c, v, 8) }

// I64 carries an int64 as its two's-complement uint64.
func (c *Cursor) I64(v *int64) {
	u := uint64(*v)
	c.U64(&u)
	if c.mode == decoding {
		*v = int64(u)
	}
}

// Bool carries one byte, 0 or 1; any other value is rejected.
func (c *Cursor) Bool(v *bool) {
	var u uint8
	if *v {
		u = 1
	}
	c.U8(&u)
	if c.mode == decoding {
		if u > 1 {
			c.Failf("bad bool byte %d", u)
		}
		*v = u == 1
	}
}

// I32 carries a Go int as a signed 32-bit value (slot numbers, the -1 area
// hint): every wire value fits the receiver's int, and a value the width
// cannot carry fails the encode instead of being truncated.
func (c *Cursor) I32(v *int) {
	if c.mode != decoding && (*v < math.MinInt32 || *v > math.MaxInt32) {
		c.Failf("%d does not fit 32 signed bits", *v)
	}
	u := uint32(*v)
	c.U32(&u)
	if c.mode == decoding {
		*v = int(int32(u))
	}
}

// Count carries a non-negative Go int (page counts, sizes, offsets) as 31
// bits in a u32: a negative or oversized value is rejected on both ends,
// before any handler sees it.
func (c *Cursor) Count(v *int) {
	if c.mode != decoding && (*v < 0 || *v > math.MaxInt32) {
		c.Failf("count %d out of range", *v)
	}
	u := uint32(*v)
	c.U32(&u)
	if c.mode == decoding {
		if u > math.MaxInt32 {
			c.Failf("count %d out of range", u)
		}
		*v = int(u)
	}
}

// OID carries an object id in its 12-byte encoding.
func (c *Cursor) OID(v *oid.OID) {
	var b [oid.Size]byte
	v.Put(b[:])
	if in := run(c, b[:], oid.Size); in != nil {
		*v, _ = oid.Decode(in) // in is oid.Size bytes: Decode cannot fail
	}
}

// count32 carries a length or element count as a u32.
func (c *Cursor) count32(n int) uint32 {
	if c.mode != decoding && uint64(n) > math.MaxUint32 {
		c.Failf("length %d does not fit a u32", n)
	}
	u := uint32(n)
	c.U32(&u)
	return u
}

// length carries the u32 byte length of a variable part; when decoding it
// is checked against the remaining input, so the caller may allocate it.
func (c *Cursor) length(n int) int {
	u := c.count32(n)
	if c.mode == decoding && uint64(u) > uint64(c.end-c.off) {
		c.Failf("length %d exceeds %d remaining bytes", u, c.end-c.off)
		return 0
	}
	return int(u)
}

// Section carries a u32 length and that many bytes. A decoded section is a
// view of the input; an empty one decodes to nil.
func (c *Cursor) Section(v *[]byte) { c.bytes(v, c.length(len(*v))) }

// bytes carries n bytes with no prefix of its own: the body of Section and
// Rest, and the one place a decoded byte field is produced.
//
// TestAppendSegImageAllocs and TestDecodeSegImageAllocs pin its allocation budget.
func (c *Cursor) bytes(v *[]byte, n int) {
	b := run(c, *v, n)
	if c.mode == decoding {
		*v = nil
		if len(b) > 0 {
			*v = b
		}
	}
}

// String carries a u32 length and that many bytes.
func (c *Cursor) String(v *string) {
	if b := run(c, *v, c.length(len(*v))); c.mode == decoding {
		*v = string(b)
	}
}

// Rest carries every remaining byte of the message with no length prefix:
// the whole body of a reply that is one byte string. It must be the last
// field. Like a Section, a decoded Rest is a view of the input.
func (c *Cursor) Rest(v *[]byte) { c.bytes(v, c.end-c.off) }

// SegKey carries a segment key: u32 area, i64 start page.
func (c *Cursor) SegKey(v *SegKey) {
	c.U32(&v.Area)
	c.I64(&v.Start)
}

// Repeat carries the u32 element count of *s and returns the elements for
// the caller to range over, passing each one's fields to c. Every element
// occupies at least min > 0 bytes: a decoded count the remaining input
// cannot hold is rejected before the slice is allocated. An empty list
// decodes to nil.
func Repeat[T any](c *Cursor, s *[]T, min int) []T {
	u := c.count32(len(*s))
	if c.mode != decoding {
		return *s
	}
	*s = nil
	if c.err == nil && uint64(u)*uint64(min) > uint64(c.end-c.off) {
		c.Failf("count %d exceeds %d remaining bytes", u, c.end-c.off)
	} else if c.err == nil && u > 0 {
		*s = make([]T, u)
	}
	return *s
}

// open starts a length-prefixed frame around the fields that follow and
// returns the mark to pass to close: decoding confines those fields to the
// frame's bytes, which they must use up.
func (c *Cursor) open() int {
	if c.mode != decoding {
		var placeholder uint32
		c.U32(&placeholder)
		return len(c.buf)
	}
	outer := c.end
	c.end = c.off + c.length(0)
	return outer
}

func (c *Cursor) close(mark int) {
	switch {
	case c.err != nil || c.mode == sizing:
	case c.mode == encoding:
		if n := len(c.buf) - mark; uint64(n) > math.MaxUint32 {
			c.Failf("frame of %d bytes does not fit a u32 length", n)
		} else {
			binary.BigEndian.PutUint32(c.buf[mark-4:], uint32(n))
		}
	default:
		if c.off != c.end {
			c.Failf("%d trailing bytes in frame", c.end-c.off)
		}
		c.end = mark
	}
}
