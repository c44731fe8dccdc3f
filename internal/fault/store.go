package fault

import (
	"fmt"
	"io"
	"slices"
	"sync"
)

// Store is a simulated durable medium with two images: the volatile view
// (what reads observe — the OS page cache) and the synced image (what the
// platter holds). Writes land in the volatile view only; Sync copies it to
// the synced image. A crash discards the volatile view, applies the torn
// prefix of the in-flight write to the synced image, and fails every later
// operation with ErrCrashed. CrashImage then extracts the surviving bytes
// so a test can "reboot" onto fresh media.
//
// A Store never satisfies wal.Backing or area.Store itself (their Size
// signatures conflict); the WAL() and Area() views do, structurally, so
// this package imports neither.
type Store struct {
	inj *Injector

	mu     sync.Mutex
	cur    []byte // volatile view: synced content plus unsynced writes
	synced []byte // durable image; torn prefixes land here at crash time
	closed bool
}

// NewStore returns an empty medium attached to inj.
func NewStore(inj *Injector) *Store {
	return &Store{inj: inj}
}

// NewStoreFrom returns a medium whose synced and volatile images both start
// as img (rebooting onto a surviving crash image).
func NewStoreFrom(inj *Injector, img []byte) *Store {
	return &Store{
		inj:    inj,
		cur:    append([]byte(nil), img...),
		synced: append([]byte(nil), img...),
	}
}

// writeAt applies one write event: transient error, crash (torn prefix
// applied to the synced image), or success into the volatile view.
func (s *Store) writeAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("fault: negative offset %d", off)
	}
	f := s.inj.step()
	if f.err != nil {
		return 0, f.err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("fault: store closed")
	}
	if f.crashNow {
		if !f.killed {
			s.tearLocked(p, off, f.tearSectors, f.garbage, f.gseed)
		}
		return 0, ErrCrashed
	}
	end := off + int64(len(p))
	if old := int64(len(s.cur)); end > old {
		// Grow's capacity is append's, geometric: a log written record by
		// record is not copied once per write. A hole reads as zeroes, also
		// over bytes a truncate cut off.
		s.cur = slices.Grow(s.cur, int(end-old))[:end]
		if off > old {
			clear(s.cur[old:off])
		}
	}
	copy(s.cur[off:end], p)
	if f.rotBytes > 0 {
		s.rotLocked(off, int64(len(p)), f.rotBytes, f.rotSeed)
	}
	return len(p), nil
}

// rotLocked flips nbytes seeded pseudo-random byte positions within
// [off, off+n) of the volatile view, mirroring each flip into the synced
// image where it reaches — silent rot that survives both reads and reboot.
// Flips are XORs with a nonzero byte, so a rotted extent never equals the
// original.
func (s *Store) rotLocked(off, n int64, nbytes int, seed uint64) {
	if n <= 0 {
		return
	}
	x := seed
	for k := 0; k < nbytes; k++ {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		pos := off + int64(z%uint64(n))
		bit := byte(z>>56) | 1
		if pos < int64(len(s.cur)) {
			s.cur[pos] ^= bit
		}
		if pos < int64(len(s.synced)) {
			s.synced[pos] ^= bit
		}
	}
}

// tearLocked applies the surviving prefix of the fatal write to the synced
// image: tearSectors whole sectors arrive, the rest of the write's extent
// is lost — or, with garbage, overwritten with seeded noise (the sector the
// head was in when power died).
func (s *Store) tearLocked(p []byte, off int64, tearSectors int, garbage bool, gseed uint64) {
	keep := tearSectors * SectorSize
	if keep > len(p) {
		keep = len(p)
	}
	end := off + int64(len(p))
	reach := off + int64(keep)
	if garbage {
		reach = end
	}
	if reach > int64(len(s.synced)) {
		grown := make([]byte, reach)
		copy(grown, s.synced)
		s.synced = grown
	}
	copy(s.synced[off:off+int64(keep)], p[:keep])
	if garbage && keep < len(p) {
		garbageFill(s.synced[off+int64(keep):end], gseed)
	}
}

// readAt serves reads from the volatile view. Reads are not fault events
// (crash points live at write/sync boundaries) but fail once crashed.
func (s *Store) readAt(p []byte, off int64) (int, error) {
	if s.inj.Crashed() {
		return 0, ErrCrashed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if off >= int64(len(s.cur)) {
		return 0, io.EOF
	}
	n := copy(p, s.cur[off:])
	if n < len(p) {
		return n, io.ErrUnexpectedEOF
	}
	return n, nil
}

// sync makes the volatile view durable — unless this event is the crash
// (the sync never completed; unsynced bytes are lost) or a transient error.
func (s *Store) sync() error {
	f := s.inj.step()
	if f.err != nil {
		return f.err
	}
	if f.crashNow {
		return ErrCrashed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.synced = append(s.synced[:0], s.cur...)
	if f.rotBytes > 0 {
		// Rot on a sync event lands anywhere in the image just made durable.
		s.rotLocked(0, int64(len(s.synced)), f.rotBytes, f.rotSeed)
	}
	return nil
}

// truncate resizes the volatile view (area extent growth). It counts as a
// write event; the synced image only changes at the next sync.
func (s *Store) truncate(size int64) error {
	f := s.inj.step()
	if f.err != nil {
		return f.err
	}
	if f.crashNow {
		return ErrCrashed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if size <= int64(len(s.cur)) {
		s.cur = s.cur[:size]
		return nil
	}
	grown := make([]byte, size)
	copy(grown, s.cur)
	s.cur = grown
	return nil
}

func (s *Store) size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.cur))
}

func (s *Store) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// CrashImage returns the bytes that survived the crash: after a power loss
// everything synced, plus the torn prefix (and any garbage) of the in-flight
// write; after a process crash (KillAt) every write issued before it, as
// Image. Valid any time, but meaningful after the crash fired.
func (s *Store) CrashImage() []byte {
	if s.inj.killedProcess() {
		return s.Image()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.synced...)
}

// Image returns the volatile view (what a clean shutdown would leave after
// one final sync).
func (s *Store) Image() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.cur...)
}

// WALView adapts a Store to the wal.Backing interface.
type WALView struct{ s *Store }

// WAL returns a view satisfying wal.Backing, for wal.Open.
func (s *Store) WAL() WALView { return WALView{s} }

// WriteAt implements wal.Backing.
func (v WALView) WriteAt(p []byte, off int64) (int, error) { return v.s.writeAt(p, off) }

// ReadAt implements wal.Backing.
func (v WALView) ReadAt(p []byte, off int64) (int, error) { return v.s.readAt(p, off) }

// Sync implements wal.Backing.
func (v WALView) Sync() error { return v.s.sync() }

// Close implements wal.Backing.
func (v WALView) Close() error { return v.s.close() }

// Size implements wal.Backing.
func (v WALView) Size() int64 { return v.s.size() }

// AreaView adapts a Store to the area.Store interface.
type AreaView struct{ s *Store }

// Area returns a view satisfying area.Store, for area.Create / area.Load.
func (s *Store) Area() AreaView { return AreaView{s} }

// ReadAt implements area.Store.
func (v AreaView) ReadAt(p []byte, off int64) (int, error) { return v.s.readAt(p, off) }

// WriteAt implements area.Store.
func (v AreaView) WriteAt(p []byte, off int64) (int, error) { return v.s.writeAt(p, off) }

// Size implements area.Store.
func (v AreaView) Size() (int64, error) { return v.s.size(), nil }

// Truncate implements area.Store.
func (v AreaView) Truncate(size int64) error { return v.s.truncate(size) }

// Sync implements area.Store.
func (v AreaView) Sync() error { return v.s.sync() }

// Close implements area.Store.
func (v AreaView) Close() error { return v.s.close() }
