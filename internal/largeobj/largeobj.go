// Package largeobj implements the BeSS very-large-object class (paper §2.1,
// references [3,4]): an object stored in a sequence of variable-size disk
// segments indexed by a positional B+-tree, supporting efficient byte-range
// operations — read, write, insert, delete at an arbitrary byte position,
// append, and truncate — without rewriting the whole object.
//
// Internal nodes hold subtree byte counts; leaves hold extents (disk segment
// runs with a used-byte count). An insert in the middle of a multi-megabyte
// object touches only the segments overlapping the edit plus O(log n) index
// nodes, which is the property experiment E5 measures against the
// rewrite-everything baseline.
//
// The user can supply a size hint at creation ("in anticipation of object
// growth, hints about the potential size of the object can be provided");
// the hint sets the target segment size.
package largeobj

import (
	"encoding/binary"
	"errors"
	"fmt"

	"bess/internal/page"
)

// Store is the disk substrate: contiguous page runs allocated and freed by
// the storage-area layer.
type Store interface {
	// Alloc allocates a run of at least nPages pages, returning the start
	// page and granted length.
	Alloc(nPages int) (page.No, int, error)
	// Free releases a run previously returned by Alloc.
	Free(start page.No) error
	// ReadRun reads n pages starting at start.
	ReadRun(start page.No, n int, buf []byte) error
	// WriteRun writes len(data)/page.Size pages starting at start.
	WriteRun(start page.No, data []byte) error
}

// TxStore is a Store whose writes are changes of a transaction. An object
// over one keeps, at its first change in a transaction, what it was, and
// goes back to it if the transaction aborts: the runs the aborted changes
// wrote hold nothing of the object then.
type TxStore interface {
	Store
	// OnEnd has end called once, when the current transaction ends, with
	// whether it committed. It fails outside a transaction.
	OnEnd(end func(committed bool)) error
}

// Errors returned by large-object operations.
var (
	ErrBadRange  = errors.New("largeobj: byte range out of bounds")
	ErrCorrupt   = errors.New("largeobj: corrupt descriptor")
	ErrBadHint   = errors.New("largeobj: size hint must be positive")
	ErrDestroyed = errors.New("largeobj: object destroyed")
)

// extent is one leaf entry: a disk segment run holding `used` bytes.
type extent struct {
	start page.No
	pages int32
	used  int32
}

func (e extent) capBytes() int { return int(e.pages) * page.Size }

// Tree geometry: maximum entries per leaf and children per internal node.
// Variable so E5's ablation can sweep it.
type node struct {
	leaf  bool
	ents  []extent // leaf
	kids  []*node  // internal
	sizes []int64  // byte size per kid
	total int64
}

func (n *node) computeTotal() int64 {
	if n.leaf {
		var t int64
		for _, e := range n.ents {
			t += int64(e.used)
		}
		n.total = t
		return t
	}
	var t int64
	for _, s := range n.sizes {
		t += s
	}
	n.total = t
	return t
}

// Object is one very large object. Not safe for concurrent use; the owning
// transaction serializes access.
type Object struct {
	store     Store
	root      *node
	size      int64
	segHint   int // target bytes per allocated segment
	fanout    int
	destroyed bool
	inTx      bool // a TxStore's transaction changed it, and has not ended

	// Stats for E5.
	segReads, segWrites, allocs, frees int64
}

// DefaultSegmentBytes is the target segment size absent a hint.
const DefaultSegmentBytes = 16 * page.Size // 64KB

// DefaultFanout is the tree fanout (entries per leaf / kids per internal).
const DefaultFanout = 32

// Create makes an empty large object. sizeHint (bytes, 0 = default) sets the
// target segment size: objects expected to grow big get bigger segments.
func Create(store Store, sizeHint int64) (*Object, error) {
	seg := DefaultSegmentBytes
	if sizeHint > 0 {
		// Aim for ~64 segments at the hinted size, clamped to [1 page, 1/2 extent].
		target := int(sizeHint / 64)
		seg = clampSeg(target)
	} else if sizeHint < 0 {
		return nil, ErrBadHint
	}
	return &Object{
		store:   store,
		root:    &node{leaf: true},
		segHint: seg,
		fanout:  DefaultFanout,
	}, nil
}

func clampSeg(target int) int {
	if target < page.Size {
		return page.Size
	}
	max := (page.PerExtent / 2) * page.Size
	if target > max {
		return max
	}
	// Round to whole pages.
	return (target / page.Size) * page.Size
}

// SetFanout overrides the tree fanout (ablation benches only; must be >=4).
func (o *Object) SetFanout(f int) {
	if f >= 4 {
		o.fanout = f
	}
}

// SegmentBytes returns the target segment size in effect.
func (o *Object) SegmentBytes() int { return o.segHint }

// Size returns the object's length in bytes.
func (o *Object) Size() int64 { return o.size }

// Stats reports segment-level I/O counters.
func (o *Object) Stats() (reads, writes, allocs, frees int64) {
	return o.segReads, o.segWrites, o.allocs, o.frees
}

// Segments returns the number of extents (tree leaves' entries).
func (o *Object) Segments() int {
	var count func(n *node) int
	count = func(n *node) int {
		if n.leaf {
			return len(n.ents)
		}
		c := 0
		for _, k := range n.kids {
			c += count(k)
		}
		return c
	}
	return count(o.root)
}

// Depth returns the tree height (1 = a single leaf).
func (o *Object) Depth() int {
	d := 1
	for n := o.root; !n.leaf; n = n.kids[0] {
		d++
	}
	return d
}

// --- segment I/O helpers ---

func (o *Object) readExtent(e extent) ([]byte, error) {
	buf := make([]byte, e.capBytes())
	if err := o.store.ReadRun(e.start, int(e.pages), buf); err != nil {
		return nil, err
	}
	o.segReads++
	return buf, nil
}

func (o *Object) writeExtent(e extent, data []byte) error {
	if len(data) != e.capBytes() {
		padded := make([]byte, e.capBytes())
		copy(padded, data)
		data = padded
	}
	if err := o.store.WriteRun(e.start, data); err != nil {
		return err
	}
	o.segWrites++
	return nil
}

// allocExtents cuts data into hint-sized segments and writes them out.
func (o *Object) allocExtents(data []byte) ([]extent, error) {
	var out []extent
	for len(data) > 0 {
		n := o.segHint
		if n > len(data) {
			n = len(data)
		}
		pagesWanted := (n + page.Size - 1) / page.Size
		start, granted, err := o.store.Alloc(pagesWanted)
		if err != nil {
			return out, err
		}
		o.allocs++
		e := extent{start: start, pages: int32(granted), used: int32(n)}
		if err := o.writeExtent(e, data[:n]); err != nil {
			return out, err
		}
		out = append(out, e)
		data = data[n:]
	}
	return out, nil
}

// --- tree primitives ---

// walk visits extents covering [off, off+n) in order, passing each extent's
// starting byte offset within the object. fn returning false stops the walk.
func (o *Object) walk(off, n int64, fn func(e extent, objOff int64) bool) {
	var rec func(nd *node, base int64) bool
	rec = func(nd *node, base int64) bool {
		if nd.leaf {
			cur := base
			for _, e := range nd.ents {
				end := cur + int64(e.used)
				if end > off && cur < off+n {
					if !fn(e, cur) {
						return false
					}
				}
				if cur >= off+n {
					return false
				}
				cur = end
			}
			return true
		}
		cur := base
		for i, k := range nd.kids {
			end := cur + nd.sizes[i]
			if end > off && cur < off+n {
				if !rec(k, cur) {
					return false
				}
			}
			if cur >= off+n {
				return false
			}
			cur = end
		}
		return true
	}
	rec(o.root, 0)
}

// insertAt inserts extents so the first one begins at byte position pos,
// which must be an entry boundary (callers split extents first).
func (o *Object) insertAt(pos int64, ents []extent) {
	if len(ents) == 0 {
		return
	}
	right := o.insertRec(o.root, pos, ents)
	if right != nil {
		// Root split: grow the tree.
		left := o.root
		o.root = &node{
			kids:  []*node{left, right},
			sizes: []int64{left.computeTotal(), right.computeTotal()},
		}
		o.root.computeTotal()
	}
}

func (o *Object) insertRec(n *node, pos int64, ents []extent) *node {
	if n.leaf {
		// Find the boundary index.
		idx := 0
		cur := int64(0)
		for idx < len(n.ents) && cur < pos {
			cur += int64(n.ents[idx].used)
			idx++
		}
		// (cur == pos guaranteed by callers.)
		n.ents = append(n.ents[:idx:idx], append(append([]extent{}, ents...), n.ents[idx:]...)...)
		n.computeTotal()
		if len(n.ents) <= o.fanout {
			return nil
		}
		mid := len(n.ents) / 2
		right := &node{leaf: true, ents: append([]extent{}, n.ents[mid:]...)}
		n.ents = n.ents[:mid]
		n.computeTotal()
		right.computeTotal()
		return right
	}
	// Internal: pick the kid whose range contains pos; a boundary position
	// goes to the earlier kid when it lands exactly at its end, except when
	// that kid is followed by nothing (append goes to the last kid).
	cur := int64(0)
	ki := len(n.kids) - 1
	for i := range n.kids {
		end := cur + n.sizes[i]
		if pos <= end {
			ki = i
			break
		}
		cur = end
	}
	right := o.insertRec(n.kids[ki], pos-cur, ents)
	n.sizes[ki] = n.kids[ki].total
	if right != nil {
		n.kids = append(n.kids[:ki+1:ki+1], append([]*node{right}, n.kids[ki+1:]...)...)
		n.sizes = append(n.sizes[:ki+1:ki+1], append([]int64{right.total}, n.sizes[ki+1:]...)...)
	}
	n.computeTotal()
	if len(n.kids) <= o.fanout {
		return nil
	}
	mid := len(n.kids) / 2
	r := &node{
		kids:  append([]*node{}, n.kids[mid:]...),
		sizes: append([]int64{}, n.sizes[mid:]...),
	}
	n.kids = n.kids[:mid]
	n.sizes = n.sizes[:mid]
	n.computeTotal()
	r.computeTotal()
	return r
}

// removeEntryAt removes the single extent starting exactly at byte pos.
func (o *Object) removeEntryAt(pos int64) {
	o.removeRec(o.root, pos)
	// Collapse a root with a single internal kid.
	for !o.root.leaf && len(o.root.kids) == 1 {
		o.root = o.root.kids[0]
	}
}

func (o *Object) removeRec(n *node, pos int64) {
	if n.leaf {
		cur := int64(0)
		for i := range n.ents {
			if cur == pos {
				n.ents = append(n.ents[:i:i], n.ents[i+1:]...)
				n.computeTotal()
				return
			}
			cur += int64(n.ents[i].used)
		}
		return
	}
	cur := int64(0)
	for i := range n.kids {
		end := cur + n.sizes[i]
		if pos < end || (pos == cur && n.sizes[i] == 0) {
			o.removeRec(n.kids[i], pos-cur)
			n.sizes[i] = n.kids[i].total
			// Drop empty kids (lazy rebalance: nodes may run underfull but
			// never empty).
			if (n.kids[i].leaf && len(n.kids[i].ents) == 0) ||
				(!n.kids[i].leaf && len(n.kids[i].kids) == 0) {
				n.kids = append(n.kids[:i:i], n.kids[i+1:]...)
				n.sizes = append(n.sizes[:i:i], n.sizes[i+1:]...)
			}
			n.computeTotal()
			return
		}
		cur = end
	}
}

// updateEntryAt replaces the extent starting at pos with e (used/pages may
// differ) and fixes sizes up the tree.
func (o *Object) updateEntryAt(pos int64, e extent) {
	var rec func(n *node, pos int64) bool
	rec = func(n *node, pos int64) bool {
		if n.leaf {
			cur := int64(0)
			for i := range n.ents {
				if cur == pos {
					n.ents[i] = e
					n.computeTotal()
					return true
				}
				cur += int64(n.ents[i].used)
			}
			return false
		}
		cur := int64(0)
		for i := range n.kids {
			end := cur + n.sizes[i]
			if pos < end || (pos == cur && n.sizes[i] == 0) {
				ok := rec(n.kids[i], pos-cur)
				n.sizes[i] = n.kids[i].total
				n.computeTotal()
				return ok
			}
			cur = end
		}
		return false
	}
	rec(o.root, pos)
}

// checkLive guards destroyed objects.
func (o *Object) checkLive() error {
	if o.destroyed {
		return ErrDestroyed
	}
	return nil
}

// change is called by an update whose arguments are checked, before it
// writes: over a TxStore the first update of a transaction keeps the object
// as it was, for an abort to go back to.
func (o *Object) change() error {
	ts, ok := o.store.(TxStore)
	if !ok || o.inTx {
		return nil
	}
	saved := o.EncodeDescriptor()
	if err := ts.OnEnd(func(committed bool) {
		o.inTx = false
		if committed {
			return
		}
		r, err := Open(o.store, saved)
		if err != nil {
			o.destroyed = true // unreachable: saved is the object's own encoding
			return
		}
		o.root, o.size, o.destroyed = r.root, r.size, false
	}); err != nil {
		return err
	}
	o.inTx = true
	return nil
}

// --- byte-range operations ---

// Read copies bytes [off, off+len(buf)) into buf.
func (o *Object) Read(off int64, buf []byte) error {
	if err := o.checkLive(); err != nil {
		return err
	}
	if off < 0 || off+int64(len(buf)) > o.size {
		return ErrBadRange
	}
	if len(buf) == 0 {
		return nil
	}
	var ioErr error
	o.walk(off, int64(len(buf)), func(e extent, objOff int64) bool {
		data, err := o.readExtent(e)
		if err != nil {
			ioErr = err
			return false
		}
		// Overlap of [objOff, objOff+used) with [off, off+len).
		from := max64(off, objOff)
		to := min64(off+int64(len(buf)), objOff+int64(e.used))
		copy(buf[from-off:to-off], data[from-objOff:to-objOff])
		return true
	})
	return ioErr
}

// Write overwrites bytes [off, off+len(data)); writes ending beyond the
// current size extend the object (append semantics for the overhang).
func (o *Object) Write(off int64, data []byte) error {
	if err := o.checkLive(); err != nil {
		return err
	}
	if off < 0 || off > o.size {
		return ErrBadRange
	}
	if len(data) == 0 {
		return nil
	}
	if err := o.change(); err != nil {
		return err
	}
	// Overhang beyond size is an append.
	overlap := o.size - off
	if overlap > int64(len(data)) {
		overlap = int64(len(data))
	}
	if overlap > 0 {
		var ioErr error
		type patch struct {
			e      extent
			objOff int64
		}
		var patches []patch
		o.walk(off, overlap, func(e extent, objOff int64) bool {
			patches = append(patches, patch{e, objOff})
			return true
		})
		for _, p := range patches {
			buf, err := o.readExtent(p.e)
			if err != nil {
				return err
			}
			from := max64(off, p.objOff)
			to := min64(off+overlap, p.objOff+int64(p.e.used))
			copy(buf[from-p.objOff:to-p.objOff], data[from-off:to-off])
			if err := o.writeExtent(p.e, buf); err != nil {
				return err
			}
		}
		if ioErr != nil {
			return ioErr
		}
	}
	if int64(len(data)) > overlap {
		return o.Append(data[overlap:])
	}
	return nil
}

// Append adds data at the end of the object, filling the last segment's
// free space before allocating new segments.
func (o *Object) Append(data []byte) error {
	if err := o.checkLive(); err != nil {
		return err
	}
	if len(data) == 0 {
		return nil
	}
	if err := o.change(); err != nil {
		return err
	}
	// Fill the tail of the last extent, if any space remains.
	if o.size > 0 {
		var last extent
		var lastOff int64 = -1
		o.walk(o.size-1, 1, func(e extent, objOff int64) bool {
			last, lastOff = e, objOff
			return true
		})
		if lastOff >= 0 && int(last.used) < last.capBytes() {
			room := last.capBytes() - int(last.used)
			n := room
			if n > len(data) {
				n = len(data)
			}
			buf, err := o.readExtent(last)
			if err != nil {
				return err
			}
			copy(buf[last.used:], data[:n])
			grown := last
			grown.used += int32(n)
			if err := o.writeExtent(grown, buf); err != nil {
				return err
			}
			o.updateEntryAt(lastOff, grown)
			o.size += int64(n)
			data = data[n:]
		}
	}
	if len(data) == 0 {
		return nil
	}
	ents, err := o.allocExtents(data)
	if err != nil {
		return err
	}
	o.insertAt(o.size, ents)
	o.size += int64(len(data))
	return nil
}

// Insert inserts data at byte position off, shifting the tail of the object
// without rewriting it: only the extent containing off is split.
func (o *Object) Insert(off int64, data []byte) error {
	if err := o.checkLive(); err != nil {
		return err
	}
	if off < 0 || off > o.size {
		return ErrBadRange
	}
	if len(data) == 0 {
		return nil
	}
	if err := o.change(); err != nil {
		return err
	}
	if off == o.size {
		return o.Append(data)
	}
	// Find the extent containing off and split it at the insertion point.
	var host extent
	var hostOff int64 = -1
	o.walk(off, 1, func(e extent, objOff int64) bool {
		host, hostOff = e, objOff
		return false
	})
	if hostOff < 0 {
		return ErrBadRange
	}
	cut := int(off - hostOff)
	insPos := off
	var newEnts []extent
	if cut == 0 {
		// Clean boundary: no split needed.
		var err error
		newEnts, err = o.allocExtents(data)
		if err != nil {
			return err
		}
		insPos = hostOff
	} else {
		buf, err := o.readExtent(host)
		if err != nil {
			return err
		}
		tail := append([]byte(nil), buf[cut:host.used]...)
		// Shrink the host in place.
		shrunk := host
		shrunk.used = int32(cut)
		o.updateEntryAt(hostOff, shrunk)
		// New segments: inserted data, then the tail.
		newEnts, err = o.allocExtents(data)
		if err != nil {
			return err
		}
		tailEnts, err := o.allocExtents(tail)
		if err != nil {
			return err
		}
		newEnts = append(newEnts, tailEnts...)
		insPos = hostOff + int64(cut)
	}
	o.insertAt(insPos, newEnts)
	o.size += int64(len(data))
	return nil
}

// Delete removes n bytes starting at off, closing the gap. Only the extents
// overlapping the range are touched.
func (o *Object) Delete(off, n int64) error {
	if err := o.checkLive(); err != nil {
		return err
	}
	if off < 0 || n < 0 || off+n > o.size {
		return ErrBadRange
	}
	if n == 0 {
		return nil
	}
	if err := o.change(); err != nil {
		return err
	}
	type hit struct {
		e      extent
		objOff int64
	}
	var hits []hit
	o.walk(off, n, func(e extent, objOff int64) bool {
		hits = append(hits, hit{e, objOff})
		return true
	})
	// Process back to front so byte offsets of earlier entries stay valid.
	for i := len(hits) - 1; i >= 0; i-- {
		h := hits[i]
		from := max64(off, h.objOff)
		to := min64(off+n, h.objOff+int64(h.e.used))
		cut := to - from
		switch {
		case from == h.objOff && to == h.objOff+int64(h.e.used):
			// Fully covered: free and drop.
			o.removeEntryAt(h.objOff)
			if err := o.store.Free(h.e.start); err != nil {
				return err
			}
			o.frees++
		default:
			// Partial: slide the surviving tail left within the segment.
			buf, err := o.readExtent(h.e)
			if err != nil {
				return err
			}
			copy(buf[from-h.objOff:], buf[to-h.objOff:h.e.used])
			trimmed := h.e
			trimmed.used -= int32(cut)
			if err := o.writeExtent(trimmed, buf); err != nil {
				return err
			}
			o.updateEntryAt(h.objOff, trimmed)
		}
	}
	o.size -= n
	return nil
}

// Truncate shrinks the object to n bytes (growing is Append's job).
func (o *Object) Truncate(n int64) error {
	if err := o.checkLive(); err != nil {
		return err
	}
	if n < 0 || n > o.size {
		return ErrBadRange
	}
	return o.Delete(n, o.size-n)
}

// Destroy frees every segment; the object becomes unusable.
func (o *Object) Destroy() error {
	if err := o.checkLive(); err != nil {
		return err
	}
	if err := o.change(); err != nil {
		return err
	}
	var firstErr error
	o.walk(0, o.size, func(e extent, _ int64) bool {
		if err := o.store.Free(e.start); err != nil && firstErr == nil {
			firstErr = err
		}
		o.frees++
		return true
	})
	o.root = &node{leaf: true}
	o.size = 0
	o.destroyed = true
	return firstErr
}

// --- persistence ---

// descriptor layout: magic(4) segHint(4) size(8) nExtents(4) then extents
// (start 8, pages 4, used 4 each).
const descMagic = 0xBE55B16C

// EncodeDescriptor serializes the object's index (extent list in order).
// The caller stores the blob (typically in the overflow segment or a
// dedicated index run); Open rebuilds the tree from it.
func (o *Object) EncodeDescriptor() []byte {
	var ents []extent
	o.walk(0, o.size, func(e extent, _ int64) bool {
		ents = append(ents, e)
		return true
	})
	buf := make([]byte, 20+len(ents)*16)
	binary.BigEndian.PutUint32(buf[0:4], descMagic)
	binary.BigEndian.PutUint32(buf[4:8], uint32(o.segHint))
	binary.BigEndian.PutUint64(buf[8:16], uint64(o.size))
	binary.BigEndian.PutUint32(buf[16:20], uint32(len(ents)))
	p := 20
	for _, e := range ents {
		binary.BigEndian.PutUint64(buf[p:], uint64(e.start))
		binary.BigEndian.PutUint32(buf[p+8:], uint32(e.pages))
		binary.BigEndian.PutUint32(buf[p+12:], uint32(e.used))
		p += 16
	}
	return buf
}

// Open rebuilds a large object from a descriptor blob.
func Open(store Store, desc []byte) (*Object, error) {
	if len(desc) < 20 || binary.BigEndian.Uint32(desc[0:4]) != descMagic {
		return nil, ErrCorrupt
	}
	o := &Object{
		store:   store,
		root:    &node{leaf: true},
		segHint: int(binary.BigEndian.Uint32(desc[4:8])),
		fanout:  DefaultFanout,
	}
	size := int64(binary.BigEndian.Uint64(desc[8:16]))
	n := int(binary.BigEndian.Uint32(desc[16:20]))
	if len(desc) < 20+n*16 {
		return nil, ErrCorrupt
	}
	p := 20
	var ents []extent
	var total int64
	for i := 0; i < n; i++ {
		e := extent{
			start: page.No(binary.BigEndian.Uint64(desc[p:])),
			pages: int32(binary.BigEndian.Uint32(desc[p+8:])),
			used:  int32(binary.BigEndian.Uint32(desc[p+12:])),
		}
		if e.used < 0 || int(e.used) > e.capBytes() {
			return nil, ErrCorrupt
		}
		ents = append(ents, e)
		total += int64(e.used)
		p += 16
	}
	if total != size {
		return nil, fmt.Errorf("%w: extents sum to %d, size says %d", ErrCorrupt, total, size)
	}
	// Bulk-load via repeated boundary inserts (keeps the tree balanced
	// enough; splits happen as needed).
	for i := 0; i < len(ents); i += o.fanout / 2 {
		j := i + o.fanout/2
		if j > len(ents) {
			j = len(ents)
		}
		o.insertAt(o.size, ents[i:j])
		for _, e := range ents[i:j] {
			o.size += int64(e.used)
		}
	}
	return o, nil
}

// CheckInvariants validates tree bookkeeping (sizes vs entries) — tests and
// the inspect tool call it.
func (o *Object) CheckInvariants() error {
	var rec func(n *node) (int64, error)
	rec = func(n *node) (int64, error) {
		if n.leaf {
			var t int64
			for _, e := range n.ents {
				if e.used < 0 || int(e.used) > e.capBytes() {
					return 0, fmt.Errorf("largeobj: extent used %d exceeds cap %d", e.used, e.capBytes())
				}
				t += int64(e.used)
			}
			if t != n.total {
				return 0, fmt.Errorf("largeobj: leaf total %d != computed %d", n.total, t)
			}
			return t, nil
		}
		if len(n.kids) != len(n.sizes) {
			return 0, errors.New("largeobj: kids/sizes length mismatch")
		}
		var t int64
		for i, k := range n.kids {
			kt, err := rec(k)
			if err != nil {
				return 0, err
			}
			if kt != n.sizes[i] {
				return 0, fmt.Errorf("largeobj: size[%d]=%d, subtree has %d", i, n.sizes[i], kt)
			}
			t += kt
		}
		if t != n.total {
			return 0, fmt.Errorf("largeobj: internal total %d != computed %d", n.total, t)
		}
		return t, nil
	}
	t, err := rec(o.root)
	if err != nil {
		return err
	}
	if t != o.size {
		return fmt.Errorf("largeobj: tree holds %d bytes, size says %d", t, o.size)
	}
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
