package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing lives entirely in the benchmark's own files: spans are recorded
// around the calls into each layer through seams the product already
// exposes. Spans inside the product are a later issue.

// span is one timed interval. Spans of one operation share Op; Parent names
// the span that caused this one (0 = none known from outside).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out once, at exit.
// A nil *recorder and a recorder that is off record nothing, so the same
// wrappers sit in the path of the untraced comparison window at no cost.
type recorder struct {
	on    atomic.Bool
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<19)}
}

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

func (r *recorder) newID() int64 { return r.next.Add(1) }

func (r *recorder) add(name string, id, parent, op int64, start, end time.Time) {
	r.mu.Lock()
	r.spans = append(r.spans, span{name, id, parent, op, start.Sub(r.epoch).Nanoseconds(), end.Sub(r.epoch).Nanoseconds()})
	r.mu.Unlock()
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- seam (b): net.Conn wrapper under the client-side rpc.Peer ---

// tracedConn measures wire turnarounds on one client connection without
// knowing the frame format: a turnaround opens at the first Write after the
// connection was quiet and closes at the last Read before the next Write.
// With one closed-loop session per connection that is exactly request
// written → reply fully read. It also counts bytes each way.
type tracedConn struct {
	net.Conn
	rec *recorder

	mu       sync.Mutex
	open     bool      // guarded by mu: a turnaround is in progress
	start    time.Time // guarded by mu
	lastRead time.Time // guarded by mu: zero until the open turnaround saw a reply byte
	outBytes int64     // guarded by mu: bytes of the open turnaround, each way
	inBytes  int64     // guarded by mu

	op      int64   // guarded by mu: operation the session is running (set by the worker)
	opSpan  int64   // guarded by mu
	opWire  int64   // guarded by mu: turnaround ns accumulated for op
	turns   []int64 // guarded by mu: every closed turnaround, ns
	reqSize []int64 // guarded by mu: bytes written per turnaround
	repSize []int64 // guarded by mu: bytes read per turnaround

	bytesOut, bytesIn atomic.Int64 // all traffic, recorded or not
}

func (c *tracedConn) Write(p []byte) (int, error) {
	if !c.rec.enabled() {
		n, err := c.Conn.Write(p)
		c.bytesOut.Add(int64(n))
		return n, err
	}
	now := time.Now()
	c.mu.Lock()
	if c.open && !c.lastRead.IsZero() {
		c.closeTurnLocked()
	}
	if !c.open {
		c.open, c.start = true, now
	}
	c.outBytes += int64(len(p))
	c.mu.Unlock()
	n, err := c.Conn.Write(p)
	c.bytesOut.Add(int64(n))
	return n, err
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytesIn.Add(int64(n))
	if n > 0 && c.rec.enabled() {
		now := time.Now()
		c.mu.Lock()
		if c.open {
			c.lastRead = now
			c.inBytes += int64(n)
		}
		c.mu.Unlock()
	}
	return n, err
}

//bess:holds mu
func (c *tracedConn) closeTurnLocked() {
	d := c.lastRead.Sub(c.start).Nanoseconds()
	c.turns = append(c.turns, d)
	c.reqSize = append(c.reqSize, c.outBytes)
	c.repSize = append(c.repSize, c.inBytes)
	c.opWire += d
	c.rec.add("rpc.turnaround", c.rec.newID(), c.opSpan, c.op, c.start, c.lastRead)
	c.open, c.lastRead, c.outBytes, c.inBytes = false, time.Time{}, 0, 0
}

// beginOp tags the turnarounds that follow with the session's operation.
func (c *tracedConn) beginOp(op, spanID int64) {
	c.mu.Lock()
	c.op, c.opSpan, c.opWire = op, spanID, 0
	c.mu.Unlock()
}

// endOp closes the turnaround the operation's last reply left open and
// returns the wire time the operation accumulated.
func (c *tracedConn) endOp() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.open && !c.lastRead.IsZero() {
		c.closeTurnLocked()
	}
	w := c.opWire
	c.op, c.opSpan, c.opWire = 0, 0, 0
	return w
}

// --- seam (c): timing wrappers over the real WAL and area files ---

// devCounters is one device operation's count, bytes and busy time.
type devCounters struct {
	n, bytes, ns atomic.Int64
}

func (d *devCounters) note(bytes int, dur time.Duration) {
	d.n.Add(1)
	d.bytes.Add(int64(bytes))
	d.ns.Add(dur.Nanoseconds())
}

// devStats is what the device wrappers of one server collect. busyNs sums
// every timed device call so a single-caller replay can subtract device time
// from a server call's duration.
type devStats struct {
	rec *recorder

	walWrite, walSync           devCounters
	areaRead, areaWrite, areaSy devCounters
	busyNs                      atomic.Int64

	mu       sync.Mutex
	walSyncs []int64 // guarded by mu: each WAL sync's duration, ns
}

// timedFile wraps one real file as a wal.Backing (wal=true) or area.Store.
type timedFile struct {
	f   *os.File
	st  *devStats
	wal bool
}

func (t *timedFile) ReadAt(p []byte, off int64) (int, error) {
	if t.wal || !t.st.rec.enabled() {
		return t.f.ReadAt(p, off)
	}
	t0 := time.Now()
	n, err := t.f.ReadAt(p, off)
	d := time.Since(t0)
	t.st.areaRead.note(n, d)
	t.st.busyNs.Add(d.Nanoseconds())
	return n, err
}

func (t *timedFile) WriteAt(p []byte, off int64) (int, error) {
	if !t.st.rec.enabled() {
		return t.f.WriteAt(p, off)
	}
	t0 := time.Now()
	n, err := t.f.WriteAt(p, off)
	d := time.Since(t0)
	if t.wal {
		t.st.walWrite.note(n, d)
	} else {
		t.st.areaWrite.note(n, d)
	}
	t.st.busyNs.Add(d.Nanoseconds())
	return n, err
}

func (t *timedFile) Sync() error {
	if !t.st.rec.enabled() {
		return t.f.Sync()
	}
	t0 := time.Now()
	err := t.f.Sync()
	end := time.Now()
	d := end.Sub(t0)
	t.st.busyNs.Add(d.Nanoseconds())
	if t.wal {
		t.st.walSync.note(0, d)
		t.st.mu.Lock()
		t.st.walSyncs = append(t.st.walSyncs, d.Nanoseconds())
		t.st.mu.Unlock()
		t.st.rec.add("device.wal_sync", t.st.rec.newID(), 0, 0, t0, end)
	} else {
		t.st.areaSy.note(0, d)
		t.st.rec.add("device.area_sync", t.st.rec.newID(), 0, 0, t0, end)
	}
	return err
}

func (t *timedFile) Close() error              { return t.f.Close() }
func (t *timedFile) Truncate(size int64) error { return t.f.Truncate(size) }
func (t *timedFile) fileSize() (int64, error) {
	fi, err := t.f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// walFile and areaFile give the one wrapper the two Size signatures the
// product interfaces ask for.
type walFile struct{ *timedFile }

func (w walFile) Size() int64 {
	n, err := w.fileSize()
	if err != nil {
		return 0 // the product's own file backing reads a failed Stat as empty too
	}
	return n
}

type areaFile struct{ *timedFile }

func (a areaFile) Size() (int64, error) { return a.fileSize() }
