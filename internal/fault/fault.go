// Package fault is the deterministic fault-injection layer behind the
// crash-torture tests (DESIGN.md §5). It simulates the failure modes a
// storage manager must survive without ever leaving the process:
//
//   - power loss at any chosen write/sync boundary: every byte not yet
//     covered by a successful Sync is discarded;
//   - process death at any chosen write/sync boundary: every write issued
//     before it survives, synced or not (the OS still holds it), and what
//     the process never wrote out — a log tail in its buffer — is gone;
//   - torn writes: the write in flight at the crash keeps a sector-aligned
//     prefix, loses the suffix, and the lost extent may be garbage-filled
//     (a drive scribbling mid-write);
//   - transient I/O errors (EIO-style) on any write or sync event;
//   - network faults: delay, short-write, and dropped connections on a
//     wrapped net.Conn (conn.go).
//
// The layer is scheduled, not random: an Injector numbers every write/sync
// event across all media attached to it, and the caller chooses the event at
// which the machine dies. Running a deterministic workload once counts its
// events; replaying it once per event index enumerates every crash point.
// Garbage bytes come from a seeded generator, so a failing crash point
// replays exactly.
//
// The production I/O paths do not know this package exists: wal.Open and
// area.Create/Load accept their Backing/Store interfaces, and a Store's
// WAL()/Area() views satisfy them structurally. When no injector is
// installed the real file/mem implementations run untouched — the seam is
// the interface call that was already there.
package fault

import (
	"errors"
	"fmt"
	"sync"
)

// SectorSize is the granularity at which an in-flight write tears: a crash
// never splits a sector, mirroring the atomicity unit disks actually
// provide (512B, not the 4KB page).
const SectorSize = 512

// Errors surfaced by injected faults.
var (
	// ErrCrashed is returned by every operation at and after the scheduled
	// power loss: the machine is dead until the caller extracts the
	// surviving image and "reboots" onto fresh media.
	ErrCrashed = errors.New("fault: simulated power loss")
	// ErrInjected is the transient EIO-style error: the operation did not
	// happen, but the medium is still alive and may be retried.
	ErrInjected = errors.New("fault: injected I/O error")
)

// Injector schedules faults for one simulated machine. All media attached
// to the same Injector share one event clock, so a crash point can land
// between a WAL sync and the area page write that followed it. Safe for
// concurrent use, but crash-point enumeration needs a deterministic
// workload to be meaningful.
type Injector struct {
	mu      sync.Mutex
	events  int64 // write/sync events observed so far
	crashAt int64 // crash when the event counter reaches this value; 0 = never
	crashed bool
	killed  bool // the crash is the process's death, not the power's (KillAt)

	tearSectors int  // sectors of the in-flight write that survive the crash
	garbage     bool // garbage-fill the lost extent of the torn write
	seed        uint64

	errAt map[int64]error // transient error injected at an event index
	rotAt map[int64]int   // silent bit rot: event index -> bytes to flip
}

// NewInjector returns an injector with no faults scheduled. seed drives the
// garbage-byte generator so torn images are reproducible.
func NewInjector(seed int64) *Injector {
	return &Injector{seed: uint64(seed)}
}

// SetCrashPoint schedules a power loss at event index n (1-based: the n-th
// write/sync event fails and the machine is dead from then on). If the
// fatal event is a write, tearSectors sectors of it survive; with garbage
// set, the lost extent of that write is filled with seeded pseudo-random
// bytes instead of simply not arriving.
func (i *Injector) SetCrashPoint(n int64, tearSectors int, garbage bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.crashAt = n
	i.tearSectors = tearSectors
	i.garbage = garbage
	i.killed = false
}

// KillAt schedules a process crash at event index n (1-based): the n-th
// write/sync event, and every one after it, never happens, but each write
// issued before it survives whole — the OS holds it, synced or not — so a
// medium's CrashImage is its volatile view. What dies with the process is
// what it had not written yet.
func (i *Injector) KillAt(n int64) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.crashAt = n
	i.killed = true
}

// killedProcess reports whether the crash that fired was a process crash
// (KillAt).
func (i *Injector) killedProcess() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.crashed && i.killed
}

// FailAt schedules a transient error at event index n (1-based). The event
// still consumes an index; the operation reports err and has no effect.
func (i *Injector) FailAt(n int64, err error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if err == nil {
		err = ErrInjected
	}
	if i.errAt == nil {
		i.errAt = make(map[int64]error)
	}
	i.errAt[n] = err
}

// RotAt schedules silent bit rot at event index n (1-based): the n-th
// write/sync event completes normally, and then nbytes seeded pseudo-random
// byte positions of the affected extent are flipped in both the volatile and
// synced images — the medium lies without an error, the failure mode
// checksums exist to catch. Enumerating n over a workload's events visits a
// corruption point inside every write the workload performs, the way
// SetCrashPoint enumeration visits every crash point.
func (i *Injector) RotAt(n int64, nbytes int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.rotAt == nil {
		i.rotAt = make(map[int64]int)
	}
	i.rotAt[n] = nbytes
}

// Events returns the number of write/sync events observed so far — run the
// workload once fault-free and this is the crash-point space to enumerate.
func (i *Injector) Events() int64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.events
}

// Crashed reports whether the scheduled power loss has fired.
func (i *Injector) Crashed() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.crashed
}

// fate is one event's decided outcome. Exactly one of crashNow / err /
// rotBytes is meaningful: crashNow means this event is the crash (after a
// power loss a write applies its torn prefix, after a process crash nothing;
// then everything returns ErrCrashed); err is a transient injected error;
// rotBytes>0 means the event succeeds and then rots silently. tear/garbage
// describe how the fatal write tears.
type fate struct {
	crashNow    bool
	killed      bool
	tearSectors int
	garbage     bool
	gseed       uint64
	rotBytes    int
	rotSeed     uint64
	err         error
}

// step accounts one write/sync event and decides its fate.
func (i *Injector) step() fate {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.crashed {
		return fate{err: ErrCrashed}
	}
	i.events++
	if e, ok := i.errAt[i.events]; ok {
		return fate{err: e}
	}
	if i.crashAt != 0 && i.events >= i.crashAt {
		i.crashed = true
		// Mix the event index into the garbage seed so distinct crash
		// points scribble distinct bytes.
		return fate{
			crashNow: true, killed: i.killed, tearSectors: i.tearSectors, garbage: i.garbage,
			gseed: i.seed ^ uint64(i.events)*0x9E3779B97F4A7C15,
		}
	}
	if n, ok := i.rotAt[i.events]; ok {
		return fate{rotBytes: n, rotSeed: i.seed ^ uint64(i.events)*0x9E3779B97F4A7C15}
	}
	return fate{}
}

// garbageFill overwrites p with seeded pseudo-random bytes (splitmix64).
func garbageFill(p []byte, seed uint64) {
	x := seed
	for n := 0; n < len(p); {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		for b := 0; b < 8 && n < len(p); b++ {
			p[n] = byte(z >> (8 * b))
			n++
		}
	}
}

// String describes the injector state (test failure messages).
func (i *Injector) String() string {
	i.mu.Lock()
	defer i.mu.Unlock()
	return fmt.Sprintf("fault.Injector{events=%d crashAt=%d crashed=%v killed=%v tear=%d garbage=%v}",
		i.events, i.crashAt, i.crashed, i.killed, i.tearSectors, i.garbage)
}
